// Workload `explore_shared`: an open loop. One generator thread calls
// ServeEngine::AnswerSqlAsync for 64 logical sessions on a fixed schedule
// and one CompletionQueue waiter collects the results; the batch
// scheduler is on. Sessions drill down through overlapping predicate
// variants over the same table sets, each request spelled one of four
// canonically equal ways, so repeats are answer-cache hits and first
// occurrences arrive in bursts that batch together. The schedule is
// replayed at each rate of a fixed ladder on a fresh engine;
// max_rate_qps is the highest rate whose p99 (timed from when each
// request was due) stays within the latency limit without a growing
// backlog.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "serve/answer_future.h"
#include "serve/serve_engine.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

constexpr size_t kSessions = 64;
constexpr size_t kBurst = 8;  ///< sessions that send together
constexpr size_t kPaths = 32;  ///< paths walked at once; 2 sessions each
constexpr size_t kStepsPerPath = 4;
constexpr size_t kSpellings = 4;
/// Offered rates (requests/s) of the sweep, in the order they run. The
/// nominal rate, whose latencies and throughput are the headline metrics
/// (medians over its three steps), is interleaved with the others so that
/// a slow spell of the machine disturbs at most one of its steps.
constexpr double kNominalRate = 1200;
const std::vector<double> kSteps = {kNominalRate, 600,  kNominalRate,
                                    2400,         kNominalRate, 4800};

/// `sql` (generated SQL: qualified column references, no aliases) in
/// spelling `spelling`: 0 as is, 1 with integer literals written as
/// decimals, 2 with every table aliased, 3 both. All four are canonically
/// equal (same sql::FingerprintQuery).
std::string Respell(const std::string& sql, size_t spelling,
                    const std::vector<sql::TableRef>& from) {
  std::string out;
  for (size_t i = 0; i < sql.size();) {
    const char c = sql[i];
    if (c == '\'') {  // copy a string literal verbatim
      const size_t close = sql.find('\'', i + 1);
      const size_t end = close == std::string::npos ? sql.size() : close + 1;
      out.append(sql, i, end - i);
      i = end;
      continue;
    }
    const bool word_start =
        i == 0 || !(std::isalnum(static_cast<unsigned char>(sql[i - 1])) ||
                    sql[i - 1] == '_' || sql[i - 1] == '.');
    size_t end = i;
    while (end < sql.size() &&
           (std::isalnum(static_cast<unsigned char>(sql[end])) ||
            sql[end] == '_' || sql[end] == '.')) {
      ++end;
    }
    if (!word_start || end == i) {
      out += c;
      ++i;
      continue;
    }
    std::string word = sql.substr(i, end - i);
    const bool integer = std::all_of(word.begin(), word.end(), [](char d) {
      return std::isdigit(static_cast<unsigned char>(d)) != 0;
    });
    if (integer && spelling % 2 == 1) word += ".0";
    if (spelling >= 2) {
      for (size_t t = 0; t < from.size(); ++t) {
        const std::string& table = from[t].table;
        const std::string alias = util::Format("a%zu", t);
        if (word.rfind(table + ".", 0) == 0) {  // a column reference
          word = alias + word.substr(table.size());
          break;
        }
        if (word == table) {  // the FROM entry
          word = table + " " + alias;
          break;
        }
      }
    }
    out += word;
    i = end;
  }
  return out;
}

/// Drill-down bases: training and held-out queries of at most
/// kMaxAnswerJoins joins that the model answers from the approximation
/// set, so first occurrences take the batched shared-scan path. When the
/// model deems none answerable (tiny self-test models), all of them.
std::vector<std::string> AnswerableBases(const System& system) {
  std::vector<std::string> all;
  std::vector<std::string> answerable;
  for (const metric::Workload* workload : {&system.train, &system.test}) {
    for (const metric::WeightedQuery& wq : workload->queries()) {
      if (wq.stmt.from.size() > kMaxAnswerJoins + 1) continue;
      all.push_back(wq.ToSql());
      if (system.model->EstimateAnswerability(wq.stmt) >=
          system.model->config().answerable_threshold) {
        answerable.push_back(wq.ToSql());
      }
    }
  }
  return answerable.empty() ? all : answerable;
}

/// The open-loop schedule: fire f sends the next request of each of the
/// kBurst sessions in burst group f % (kSessions / kBurst).
struct Request {
  size_t fire = 0;
  std::string sql;
};

/// Each session walks drill-down paths: a path is a base query whose
/// constants are perturbed anew at each of kStepsPerPath steps (predicate
/// variants over one table set); two sessions share every path. Each step
/// is sent twice, in different spellings of one fingerprint.
std::vector<Request> MakeSchedule(const System& system, size_t count,
                                  uint64_t seed, StreamHash* stream) {
  const std::vector<std::string> bases = AnswerableBases(system);
  util::Rng rng(seed);
  std::vector<size_t> paths;  // base index per path
  std::map<std::pair<size_t, size_t>, std::vector<std::string>> steps;
  const size_t groups = kSessions / kBurst;
  std::vector<Request> schedule;
  for (size_t fire = 0; schedule.size() < count && !bases.empty(); ++fire) {
    const size_t group = fire % groups;
    const size_t round = fire / groups;  // the session's request number
    const size_t step = round / 2;
    for (size_t member = 0; member < kBurst && schedule.size() < count;
         ++member) {
      const size_t session = group * kBurst + member;
      const size_t p = session % kPaths + kPaths * (step / kStepsPerPath);
      while (paths.size() <= p) paths.push_back(rng.NextBounded(bases.size()));
      std::vector<std::string>& spellings = steps[{p, step % kStepsPerPath}];
      if (spellings.empty()) {
        util::Rng step_rng(seed ^ (p * 1000003ULL + step % kStepsPerPath));
        const std::string text = PerturbConstants(bases[paths[p]], &step_rng);
        auto stmt = sql::Parse(text);
        auto bound = stmt.ok() ? sql::Bind(stmt.value(), *system.bundle.db)
                               : util::Result<sql::BoundQuery>(stmt.status());
        if (!bound.ok()) continue;
        const uint64_t fingerprint = sql::FingerprintQuery(bound->stmt).hash;
        for (size_t s = 0; s < kSpellings; ++s) {
          std::string spelled = Respell(text, s, stmt->from);
          auto respelled = sql::ParseAndBind(spelled, *system.bundle.db);
          const bool same = respelled.ok() &&
                            sql::FingerprintQuery(respelled->stmt).hash ==
                                fingerprint;
          spellings.push_back(same ? std::move(spelled) : text);
        }
      }
      Request request{fire, spellings[(session + round) % kSpellings]};
      stream->Add(request.sql);
      stream->Add(static_cast<uint64_t>(fire));
      schedule.push_back(std::move(request));
    }
  }
  return schedule;
}

struct StepResult {
  double rate = 0.0;
  std::vector<Served> served;
  std::vector<double> lag_ms;
  std::vector<double> resolve_us;
  double wall_s = 0.0;
  size_t queue_depth_max = 0;
  bool backlog_grows = false;
  double generator_busy_share = 0.0;
};

/// Replay `schedule` at `rate` requests/s against `engine`.
StepResult RunStep(serve::ServeEngine* engine,
                   const std::vector<Request>& schedule, double rate,
                   Tracer* tracer) {
  const size_t n = schedule.size();
  StepResult step;
  step.rate = rate;
  step.served.resize(n);
  step.lag_ms.resize(n);
  step.resolve_us.resize(n);
  std::vector<double> due(n);
  std::vector<double> submitted(n);
  std::vector<uint32_t> span(n, 0);
  serve::CompletionQueue completions;
  std::atomic<size_t> sent{0};
  std::atomic<bool> sending{true};

  const double fire_interval = static_cast<double>(kBurst) / rate;
  const double start = NowSeconds() + 0.01;
  std::thread waiter([&] {
    size_t received = 0;
    while (received < n) {
      std::optional<serve::CompletionQueue::Completion> done =
          completions.Next();
      if (!done.has_value()) {
        if (!sending.load() && received >= sent.load()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      const double now = NowSeconds();
      const size_t i = done->tag;
      tracer->End(span[i]);
      step.served[i].latency_ms = (now - due[i]) * 1e3;
      step.resolve_us[i] = (now - submitted[i]) * 1e6;
      Record(done->result, &step.served[i]);
      ++received;
    }
  });

  double own_busy = 0.0;
  size_t backlog_mid = 0;
  size_t backlog_end = 0;
  const size_t last_fire = schedule.back().fire;
  for (size_t i = 0; i < n; ++i) {
    const Request& request = schedule[i];
    due[i] = start + static_cast<double>(request.fire) * fire_interval;
    // Sleep until a millisecond before the request is due, then spin: a
    // thread woken from sleep can start late by milliseconds, which would
    // count as latency.
    double now = NowSeconds();
    if (due[i] - now > 1e-3) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due[i] - now - 1e-3));
    }
    while ((now = NowSeconds()) < due[i]) {
    }
    const double t0 = now;
    step.lag_ms[i] = (t0 - due[i]) * 1e3;
    step.served[i].sql = &request.sql;
    span[i] = tracer->Begin("serve.request", 0, i + 1);
    serve::AnswerFuture future;
    {
      const Span submit(tracer, "serve.submit", span[i], i + 1);
      future = engine->AnswerSqlAsync(request.sql);
    }
    const double t1 = NowSeconds();
    submitted[i] = t1;
    completions.Track(future, i);
    sent.store(i + 1);
    if (i + 1 == n || schedule[i + 1].fire != request.fire) {
      // Outside the engine: sample its queue and the backlog once a fire.
      step.queue_depth_max = std::max<size_t>(step.queue_depth_max,
                                              engine->stats().queue_depth);
      if (request.fire == last_fire / 2) backlog_mid = completions.pending();
      if (request.fire == last_fire) backlog_end = completions.pending();
    }
    own_busy += NowSeconds() - t1;  // the generator's own work
  }
  sending.store(false);
  waiter.join();
  step.wall_s = NowSeconds() - start;
  step.backlog_grows = backlog_end > backlog_mid + 2 * kBurst;
  step.generator_busy_share = own_busy / step.wall_s;
  return step;
}

/// The step's p99 for the limit check: failures count as missing it.
bool MeetsLimit(const StepResult& step) {
  const ServedTotals totals = Totals(step.served);
  return !step.backlog_grows && step.generator_busy_share <= 0.5 &&
         LimitP99(totals.answered_ms, totals.failed) <= kLatencyLimitMs;
}

void PrintStep(const StepResult& step) {
  const ServedTotals totals = Totals(step.served);
  const bool valid = step.generator_busy_share <= 0.5;
  std::fprintf(stderr,
               "  rate %6.0f/s: sent %zu, succeeded %zu, failed %zu, p50 %.3f "
               "ms, p99 %.3f ms, generator lag p99 %.3f ms, backlog %s, "
               "step %s\n",
               step.rate, totals.attempted, totals.answered_ms.size(),
               totals.failed, Percentile(totals.answered_ms, 0.5),
               Percentile(totals.answered_ms, 0.99),
               Percentile(step.lag_ms, 0.99),
               step.backlog_grows ? "grows" : "steady",
               valid ? "valid" : "INVALID (generator-bound)");
}

}  // namespace

void RunExploreShared(const Args& args, Report* report) {
  serve::ServeOptions options;
  options.batch_window_ms = 2.0;
  options.batch_max_queries = kBurst;
  options.async = true;
  options.queue_capacity = 4096;
  Tracer tracer(args.trace);
  System setup;
  SetUp(args, &options, &setup, &tracer, report);
  if (setup.model == nullptr) return;
  core::AsqpModel* model = setup.model.get();

  // Equal request counts per step, sized so the sweep takes `seconds`.
  double seconds_per_request = 0.0;
  for (double rate : kSteps) seconds_per_request += 1.0 / rate;
  const size_t count = std::max<size_t>(
      kSessions, static_cast<size_t>(args.seconds / seconds_per_request /
                                     (args.tiny ? 4.0 : 1.0)));
  StreamHash stream;
  const std::vector<Request> schedule =
      MakeSchedule(setup, count, args.seed, &stream);
  if (schedule.empty()) {
    report->Fail("no held-out or training query to drill down from");
    return;
  }
  std::printf("stream_hash %016llx\n",
              static_cast<unsigned long long>(stream.value()));
  {
    std::unordered_set<std::string> texts;
    std::unordered_set<uint64_t> fingerprints;
    for (const Request& r : schedule) {
      texts.insert(r.sql);
      auto bound = sql::ParseAndBind(r.sql, *setup.bundle.db);
      if (!bound.ok()) {
        report->Fail("a scheduled query does not bind: " + r.sql);
        return;
      }
      fingerprints.insert(sql::FingerprintQuery(bound->stmt).hash);
    }
    std::fprintf(stderr,
                 "explore_shared: %zu requests per step from %zu sessions, "
                 "%zu distinct texts, %zu distinct fingerprints (repeat "
                 "share %.3f)\n",
                 schedule.size(), kSessions, texts.size(), fingerprints.size(),
                 1.0 - static_cast<double>(fingerprints.size()) /
                           static_cast<double>(schedule.size()));
  }

  if (args.trace) {
    std::vector<std::string> sqls;
    for (const Request& r : schedule) sqls.push_back(r.sql);
    ProbeLayers(model, sqls, args.seconds / 4, &tracer, report);
    StepResult plain;
    {
      Tracer off(false);
      serve::ServeEngine engine(model, options);
      plain = RunStep(&engine, schedule, kNominalRate, &off);
    }
    serve::ServeEngine engine(model, options);
    const core::AsqpModel::AnswerStats before = model->answer_stats();
    const StepResult traced = RunStep(&engine, schedule, kNominalRate, &tracer);
    PrintStep(plain);
    PrintStep(traced);
    EmitAnswerStats(*model, before, report);
    EmitServeStats(engine, traced.served.size(), report);
    report->Metric("serve.queue_depth_max",
                   static_cast<double>(traced.queue_depth_max), "count");
    report->Metric("serve.answer_us", tracer.MeanUs("serve.request"), "us");
    report->Metric("serve.submit_us", tracer.MeanUs("serve.submit"), "us");
    report->Metric("serve.resolve_us", Mean(traced.resolve_us), "us");
    report->Metric("bench.generator_lag_ms", Percentile(traced.lag_ms, 0.99),
                   "ms");
    const Verified verified =
        VerifyServed(model, traced.served, args.corrupt, &tracer, report);
    report->Metric("serve.self_us", verified.serve_self_us, "us");
    report->Metric("core.spelling_split_fingerprints",
                   static_cast<double>(verified.split_fingerprints), "count");
    report->Metric("bench.trace_overhead_pct",
                   (Mean(Totals(traced.served).answered_ms) /
                        Mean(Totals(plain.served).answered_ms) -
                    1.0) * 100.0,
                   "%");
    const ServedTotals totals = Totals(traced.served);
    report->attempted = totals.attempted;
    report->failed = totals.failed;
    FinishTrace(args, tracer, report);
    return;
  }

  std::vector<Served> all;
  std::map<double, std::vector<bool>> meets;  // per rate, per step
  std::vector<double> qps;
  std::vector<double> mean;
  std::vector<double> p50;
  std::vector<double> p99;
  for (double rate : kSteps) {
    serve::ServeEngine engine(model, options);
    const StepResult step = RunStep(&engine, schedule, rate, &tracer);
    PrintStep(step);
    meets[rate].push_back(MeetsLimit(step));
    all.insert(all.end(), step.served.begin(), step.served.end());
    if (rate == kNominalRate) {
      const ServedTotals totals = Totals(step.served);
      qps.push_back(static_cast<double>(totals.answered_ms.size()) /
                    step.wall_s);
      mean.push_back(Mean(totals.answered_ms));
      p50.push_back(Percentile(totals.answered_ms, 0.5));
      p99.push_back(Percentile(totals.answered_ms, 0.99));
    }
  }
  (void)VerifyServed(model, all, args.corrupt, &tracer, report);

  // A rate meets the limit when most of its steps do.
  double max_rate = 0.0;
  for (const auto& [rate, steps] : meets) {
    const auto met = std::count(steps.begin(), steps.end(), true);
    if (2 * static_cast<size_t>(met) > steps.size()) max_rate = rate;
  }
  const ServedTotals totals = Totals(all);
  report->attempted = totals.attempted;
  report->failed = totals.failed;
  const double attempted = static_cast<double>(totals.attempted);
  report->Metric("qps", Percentile(qps, 0.5), "1/s");
  report->Metric("query_avg_ms", Percentile(mean, 0.5), "ms");
  report->Metric("latency_p50_ms", Percentile(p50, 0.5), "ms");
  report->Metric("latency_p99_ms", Percentile(p99, 0.5), "ms");
  report->Metric("max_rate_qps", max_rate, "1/s");
  report->Metric("answered_ratio",
                 static_cast<double>(totals.answered_ms.size()) / attempted,
                 "ratio");
  report->Metric("exact_ratio",
                 1.0 - static_cast<double>(totals.degraded) / attempted,
                 "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
