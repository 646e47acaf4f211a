#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "bench.h"
#include "core/preprocess.h"
#include "core/trainer.h"
#include "exec/executor.h"
#include "io/io.h"
#include "metric/score.h"
#include "plan/stats.h"
#include "rl/trainer.h"
#include "serve/serve_engine.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "util/string_util.h"
#include "workloadgen/generator.h"
#include "workloadgen/stats.h"

namespace perfbench {

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

// ---- Report.

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  failures_.push_back(why);
}

std::string Report::ToTable() const {
  std::string out;
  for (const auto& [name, metric] : metrics_) {
    out += util::Format("  %-36s %14.6g %s\n", name.c_str(), metric.first,
                        metric.second.c_str());
  }
  return out;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.first) +
           ", \"unit\": " + JsonString(metric.second) + "}";
  }
  return out + "}}";
}

// ---- Statistics helpers.

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t RowsDigest(const exec::ResultSet& result, bool corrupt) {
  StreamHash hash;
  hash.Add(static_cast<uint64_t>(result.num_rows()));
  for (size_t i = 0; i < result.num_rows(); ++i) hash.Add(result.RowKey(i));
  if (corrupt) hash.Add(std::string("corrupted expected row"));
  return hash.value();
}

void StreamHash::Add(const std::string& text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  hash_ ^= 0xff;
  hash_ *= 1099511628211ULL;
}

void StreamHash::Add(uint64_t value) {
  Add(std::to_string(value));
}

// ---- Tracer.

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{name, now, now, parent, request});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_s = now;
}

double Tracer::MeanUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  size_t n = 0;
  for (const SpanRecord& s : spans_) {
    if (name != s.name) continue;
    sum += s.end_s - s.start_s;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n) * 1e6;
}

size_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const SpanRecord& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[s.name] += std::max(0.0, (s.end_s - s.start_s) - child_time[i + 1]);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"name\": " << JsonString(s.name)
        << ", \"start_us\": " << JsonNumber((s.start_s - origin) * 1e6)
        << ", \"end_us\": " << JsonNumber((s.end_s - origin) * 1e6)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void FinishTrace(const Args& args, const Tracer& tracer, Report* report) {
  if (!tracer.enabled()) return;
  const std::string path =
      args.out_dir + "/trace-" + args.workload + "-" +
      std::to_string(args.seed) + ".json";
  if (!tracer.WriteJson(path)) {
    report->Fail("cannot write the span dump to " + path);
    return;
  }
  std::fprintf(stderr, "spans written to %s\nself time per layer (s):\n",
               path.c_str());
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    std::fprintf(stderr, "  %-24s %.6f\n", name.c_str(), seconds);
  }
}

// ---- Inputs and set-up.

Sizes Sizes::Tiny() {
  Sizes sizes;
  sizes.data_scale = 0.05;
  sizes.pool_queries = 60;
  sizes.k = 60;
  sizes.frame_size = 10;
  sizes.iterations = 1;
  sizes.setup_reps = 2;
  sizes.variants = 1;
  return sizes;
}

data::DatasetBundle MakeDatabase(const Sizes& sizes) {
  data::DatasetOptions options;
  options.scale = sizes.data_scale;
  options.seed = 42;
  options.workload_size = sizes.pool_queries;
  return data::MakeImdbJob(options);
}

metric::Workload GenerateWorkload(const data::DatasetBundle& bundle,
                                  size_t count, uint64_t seed) {
  const workloadgen::DatabaseStats stats =
      workloadgen::DatabaseStats::Collect(*bundle.db);
  const workloadgen::QueryGenerator generator(bundle.db.get(), &stats,
                                              bundle.fks);
  workloadgen::QueryGenOptions options;
  options.max_joins = 2;
  options.max_predicates = 3;
  const metric::Workload raw = generator.GenerateWorkload(count, options, seed);
  exec::ExecOptions exec_options;
  exec_options.num_threads = 4;
  const exec::QueryEngine engine(exec_options);
  const storage::DatabaseView view(bundle.db.get());
  // A query whose intermediate rows exceed the budget has a large result:
  // keep it without materializing up to 10^6 rows.
  util::ExecContext budget;
  budget.set_max_rows(100'000);
  metric::Workload kept;
  for (const metric::WeightedQuery& wq : raw.queries()) {
    auto bound = sql::Bind(wq.stmt, *bundle.db);
    if (!bound.ok()) continue;
    auto rows = engine.Execute(bound.value(), view, budget);
    const bool large = !rows.ok() && rows.status().code() ==
                                         util::StatusCode::kResourceExhausted;
    if (large || (rows.ok() && rows.value().num_rows() > 0)) {
      kept.Add(wq.stmt.Clone(), wq.weight);
    }
  }
  kept.NormalizeWeights();
  return kept;
}

core::AsqpConfig MakeConfig(const Sizes& sizes) {
  core::AsqpConfig config;
  config.k = sizes.k;
  config.frame_size = sizes.frame_size;
  config.trainer.iterations = sizes.iterations;
  config.trainer.num_workers = 4;
  config.trainer.learning_rate = 2e-3;
  config.seed = 1;
  return config;
}

std::string PerturbConstants(const std::string& sql, util::Rng* rng) {
  std::string out;
  out.reserve(sql.size() + 16);
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (c == '\'') {  // copy a string literal verbatim
      const size_t close = sql.find('\'', i + 1);
      const size_t end = close == std::string::npos ? sql.size() : close + 1;
      out.append(sql, i, end - i);
      i = end;
      continue;
    }
    const bool starts_number =
        std::isdigit(static_cast<unsigned char>(c)) &&
        (i == 0 || !(std::isalnum(static_cast<unsigned char>(sql[i - 1])) ||
                     sql[i - 1] == '_' || sql[i - 1] == '.'));
    if (!starts_number) {
      out += c;
      ++i;
      continue;
    }
    size_t end = i;
    bool is_double = false;
    while (end < sql.size() &&
           (std::isdigit(static_cast<unsigned char>(sql[end])) ||
            sql[end] == '.')) {
      is_double |= sql[end] == '.';
      ++end;
    }
    const std::string literal = sql.substr(i, end - i);
    if (is_double) {
      const double v = std::stod(literal) * rng->UniformDouble(0.97, 1.03);
      out += util::Format("%.6f", v);
    } else {
      const int64_t v = std::stoll(literal);
      const int64_t span = std::max<int64_t>(2, v / 100);
      out += std::to_string(std::max<int64_t>(0, v + rng->UniformInt(-span, span)));
    }
    i = end;
  }
  return out;
}

TrainedModel TrainTimed(const storage::Database& db,
                        const metric::Workload& train,
                        const core::AsqpConfig& config, Report* report) {
  TrainedModel out;
  const double start = NowSeconds();
  auto trained = core::AsqpTrainer(config).Train(db, train);
  out.seconds = NowSeconds() - start;
  if (!trained.ok()) {
    report->Fail("AsqpTrainer::Train failed: " + trained.status().ToString());
    return out;
  }
  out.model = std::move(trained.value().model);
  return out;
}

namespace {

/// Seed of the fixed training workload.
constexpr uint64_t kTrainingWorkloadSeed = 0x9195;

/// Eq. 1 recomputed from `set` saved to disk and loaded back must equal
/// `score`.
void CheckSavedScore(const Args& args, const storage::Database& db,
                     const metric::Workload& test,
                     const storage::ApproximationSet& set, double score,
                     metric::ScoreEvaluator* evaluator, Report* report) {
  const std::string path = args.out_dir + "/set-" + args.workload + "-" +
                           std::to_string(args.seed) + ".txt";
  if (!io::SaveApproximationSet(set, path).ok()) {
    report->Fail("cannot save the approximation set to " + path);
    return;
  }
  auto loaded = io::LoadApproximationSet(path, &db);
  if (!loaded.ok()) {
    report->Fail("cannot reload the saved approximation set: " +
                 loaded.status().ToString());
    return;
  }
  auto rescored = evaluator->Score(test, loaded.value());
  if (!rescored.ok() || rescored.value() != score) {
    report->Fail("Eq. 1 recomputed from the saved set differs: " +
                 std::to_string(rescored.ValueOr(-1.0)) + " vs " +
                 std::to_string(score));
  }
}

}  // namespace

void SetUp(const Args& args, const serve::ServeOptions* serve, System* out,
           Tracer* tracer, Report* report) {
  const Sizes sizes = args.tiny ? Sizes::Tiny() : Sizes::Full();
  const core::AsqpConfig config = MakeConfig(sizes);
  out->bundle = MakeDatabase(sizes);
  const storage::Database& db = *out->bundle.db;
  const metric::Workload pool =
      GenerateWorkload(out->bundle, sizes.pool_queries, kTrainingWorkloadSeed);
  util::Rng rng(kTrainingWorkloadSeed);
  std::tie(out->train, out->test) = pool.TrainTestSplit(0.5, &rng);

  const size_t reps = tracer->enabled() ? 1 : sizes.setup_reps;
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < reps && report->correct(); ++rep) {
    const double start = NowSeconds();
    TrainedModel trained = TrainTimed(db, out->train, config, report);
    if (trained.model == nullptr) return;
    if (serve != nullptr) {
      const serve::ServeEngine engine(trained.model.get(), *serve);
    }
    setup_s.push_back(NowSeconds() - start);
    std::fprintf(stderr, "  set-up %zu: %.3f s\n", rep, setup_s.back());
    if (out->model != nullptr && trained.model->approximation_set().rows() !=
                                     out->model->approximation_set().rows()) {
      report->Fail("AsqpTrainer::Train built another approximation set on a "
                   "repeat with the same inputs");
    }
    out->model = std::move(trained.model);
  }
  if (out->model == nullptr) return;
  std::fprintf(stderr,
               "model: %zu tuples, k=%zu, trained on %zu queries, %zu held "
               "out\n",
               db.TotalRows(), config.k, out->train.size(), out->test.size());

  const storage::ApproximationSet& set = out->model->approximation_set();
  metric::ScoreEvaluator evaluator(&db,
                                   metric::ScoreOptions{config.frame_size});
  const double start = NowSeconds();
  util::Result<double> score = util::Status::Internal("not run");
  {
    const Span span(tracer, "metric.score");
    score = evaluator.Score(out->test, set);
  }
  if (!score.ok()) {
    report->Fail("ScoreEvaluator::Score failed: " + score.status().ToString());
    return;
  }
  if (tracer->enabled()) {
    report->Metric("metric.score_s", NowSeconds() - start, "s");
    TraceSetupLayers(db, out->train, config, set, tracer, report);
    return;
  }
  CheckSavedScore(args, db, out->test, set, score.value(), &evaluator, report);
  report->Metric("setup_s", Percentile(setup_s, 0.5), "s");
  report->Metric("score", score.value(), "score");
}

void TraceSetupLayers(const storage::Database& db,
                      const metric::Workload& train,
                      const core::AsqpConfig& config,
                      const storage::ApproximationSet& expected,
                      Tracer* tracer, Report* report) {
  const Span setup(tracer, "setup");
  double t = NowSeconds();
  {
    const Span span(tracer, "plan.stats_collect", setup.id());
    const plan::StatsCatalog stats = plan::StatsCatalog::Collect(db);
    (void)stats.num_tables();
  }
  report->Metric("plan.stats_collect_s", NowSeconds() - t, "s");

  t = NowSeconds();
  util::Result<core::PreprocessResult> preprocess =
      util::Status::Internal("not run");
  {
    const Span span(tracer, "core.preprocess", setup.id());
    preprocess = core::Preprocess(db, train, config);
  }
  report->Metric("core.preprocess_s", NowSeconds() - t, "s");
  if (!preprocess.ok()) {
    report->Fail("core::Preprocess failed: " + preprocess.status().ToString());
    return;
  }
  report->Metric("core.joined_tuples",
                 static_cast<double>(preprocess->joined_tuples_collected),
                 "count");
  report->Metric("core.actions",
                 static_cast<double>(preprocess->space.num_actions()), "count");

  // Same trainer configuration AsqpTrainer::Train derives.
  rl::TrainerConfig trainer_config = config.trainer;
  trainer_config.seed ^= config.seed;
  t = NowSeconds();
  util::Result<rl::TrainResult> trained = util::Status::Internal("not run");
  {
    const Span span(tracer, "rl.train", setup.id());
    trained = rl::Train(core::MakeEnvFactory(&preprocess->space, config),
                        trainer_config);
  }
  const double train_s = NowSeconds() - t;
  report->Metric("rl.train_s", train_s, "s");
  if (!trained.ok()) {
    report->Fail("rl::Train failed: " + trained.status().ToString());
    return;
  }
  const size_t episodes = trained->episodes_run;
  report->Metric("rl.episodes", static_cast<double>(episodes), "count");
  report->Metric("rl.s_per_episode",
                 episodes == 0 ? 0.0 : train_s / static_cast<double>(episodes),
                 "s");

  core::AsqpModel model(&db, config, std::move(preprocess).value(),
                        std::move(trained->policy));
  t = NowSeconds();
  storage::ApproximationSet set;
  {
    const Span span(tracer, "core.generate_set", setup.id());
    set = model.GenerateApproximationSet();
  }
  report->Metric("core.generate_set_s", NowSeconds() - t, "s");
  if (set.rows() != expected.rows()) {
    report->Fail("the layer-by-layer set-up built another approximation set "
                 "than AsqpTrainer::Train");
  }
}

void ProbeLayers(core::AsqpModel* model, const std::vector<std::string>& sqls,
                 double budget_s, Tracer* tracer, Report* report) {
  const storage::Database& db = *model->database();
  exec::ExecOptions options;
  options.planner_stats =
      std::make_shared<const plan::StatsCatalog>(plan::StatsCatalog::Collect(db));
  options.index_catalog = model->index_catalog();
  const exec::QueryEngine engine(options);
  const storage::DatabaseView approx(&db, &model->approximation_set());
  const storage::DatabaseView full(&db);

  size_t planned_tables = 0;
  size_t index_paths = 0;
  double rows_in = 0.0;
  double rows_out = 0.0;
  const double start = NowSeconds();
  for (size_t i = 0; i < sqls.size() && NowSeconds() - start < budget_s; ++i) {
    const Span probe(tracer, "probe", 0, i + 1);
    util::Result<sql::SelectStatement> stmt = util::Status::Internal("not run");
    {
      const Span span(tracer, "sql.parse", probe.id(), i + 1);
      stmt = sql::Parse(sqls[i]);
    }
    if (!stmt.ok()) {
      report->Fail("sql::Parse failed on a generated query: " + sqls[i]);
      return;
    }
    util::Result<sql::BoundQuery> bound = util::Status::Internal("not run");
    {
      const Span span(tracer, "sql.bind", probe.id(), i + 1);
      bound = sql::Bind(stmt.value(), db);
    }
    if (!bound.ok()) {
      report->Fail("sql::Bind failed on a generated query: " + sqls[i]);
      return;
    }
    {
      const Span span(tracer, "sql.fingerprint", probe.id(), i + 1);
      (void)sql::FingerprintQuery(bound->stmt);
    }
    double answerability = 0.0;
    {
      const Span span(tracer, "core.answerability", probe.id(), i + 1);
      answerability = model->EstimateAnswerability(stmt.value());
    }
    {
      const Span span(tracer, "core.answer", probe.id(), i + 1);
      auto answer = model->Answer(stmt.value());
      if (!answer.ok()) {
        report->Fail("AsqpModel::Answer failed: " + answer.status().ToString());
        return;
      }
    }
    const bool routed_approx =
        answerability >= model->config().answerable_threshold;
    {
      const Span span(tracer, "plan.plan", probe.id(), i + 1);
      const sql::BoundQuery planned = engine.PlanForView(bound.value(), approx);
      planned_tables += planned.num_tables();
      for (const sql::AccessPath& path : planned.access_paths) {
        index_paths += path.kind == sql::AccessPath::Kind::kIndexRange;
      }
    }
    size_t approx_rows = 0;
    {
      const Span span(tracer, "exec.execute_approx", probe.id(), i + 1);
      auto result = engine.Execute(bound.value(), approx);
      if (result.ok()) approx_rows = result->num_rows();
    }
    size_t full_rows = 0;
    {
      const Span span(tracer, "exec.execute_full", probe.id(), i + 1);
      auto result = engine.Execute(bound.value(), full);
      if (result.ok()) full_rows = result->num_rows();
    }
    const storage::DatabaseView& routed = routed_approx ? approx : full;
    for (const auto& table : bound->tables) {
      rows_in += static_cast<double>(routed.VisibleRows(*table));
    }
    rows_out += static_cast<double>(routed_approx ? approx_rows : full_rows);
  }
  report->Metric("sql.parse_us", tracer->MeanUs("sql.parse"), "us");
  report->Metric("sql.bind_us", tracer->MeanUs("sql.bind"), "us");
  report->Metric("sql.fingerprint_us", tracer->MeanUs("sql.fingerprint"), "us");
  report->Metric("core.answerability_us", tracer->MeanUs("core.answerability"),
                 "us");
  report->Metric("core.answer_us", tracer->MeanUs("core.answer"), "us");
  report->Metric("plan.plan_us", tracer->MeanUs("plan.plan"), "us");
  report->Metric("plan.index_path_ratio",
                 planned_tables == 0 ? 0.0
                                     : static_cast<double>(index_paths) /
                                           static_cast<double>(planned_tables),
                 "ratio");
  report->Metric("exec.execute_approx_us",
                 tracer->MeanUs("exec.execute_approx"), "us");
  report->Metric("exec.execute_full_us", tracer->MeanUs("exec.execute_full"),
                 "us");
  report->Metric("exec.rows_in_per_row_out",
                 rows_out == 0.0 ? 0.0 : rows_in / rows_out, "ratio");
  report->Metric("bench.probe_queries",
                 static_cast<double>(tracer->Count("probe")), "count");
}

void EmitAnswerStats(const core::AsqpModel& model,
                     const core::AsqpModel::AnswerStats& before,
                     Report* report) {
  const core::AsqpModel::AnswerStats now = model.answer_stats();
  const uint64_t answered = now.answered - before.answered;
  report->Metric("core.approx_route_ratio",
                 answered == 0 ? 0.0
                               : static_cast<double>(now.approx_served -
                                                     before.approx_served) /
                                     static_cast<double>(answered),
                 "ratio");
  report->Metric("core.fallbacks",
                 static_cast<double>(now.fallbacks - before.fallbacks), "count");
  report->Metric("core.retries",
                 static_cast<double>(now.retries - before.retries), "count");
  report->Metric("core.learned_served",
                 static_cast<double>(now.learned_served - before.learned_served),
                 "count");
}

double LimitP99(std::vector<double> answered_ms, size_t failed) {
  answered_ms.insert(answered_ms.end(), failed,
                     std::numeric_limits<double>::infinity());
  return Percentile(std::move(answered_ms), 0.99);
}

double LadderRate(double sustained_qps, double limit_p99_ms) {
  if (!(limit_p99_ms <= kLatencyLimitMs)) return 0.0;
  double best = 0.0;
  for (double rate = 10.0; rate <= sustained_qps; rate *= 3.0) best = rate;
  return best;
}

}  // namespace perfbench
