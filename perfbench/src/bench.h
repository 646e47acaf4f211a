// Shared pieces of the end-to-end benchmark: arguments, the metric report,
// span tracing, seeded inputs and model set-up. Each workload
// (pipeline.cc, explore_cold.cc, explore_shared.cc) drives the library
// only through its public API and times its own calls into each layer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "data/dataset.h"
#include "exec/result_set.h"
#include "metric/workload.h"
#include "util/random.h"

namespace asqp::serve {
struct ServeOptions;
class ServeEngine;
}  // namespace asqp::serve

namespace perfbench {

using namespace asqp;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  /// Traced run: print per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test size: tiny data and phases, same code paths and checks.
  bool tiny = false;
  /// Self-test: corrupt one expected answer, so the checks must fail.
  bool corrupt = false;
  /// Directory for the saved approximation set and the span dump.
  std::string out_dir = ".";
};

/// Metrics and correctness verdict of one run; printed as the final JSON
/// line by main().
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Record a correctness failure: the run prints correct=false, exits 1.
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  /// One "name value unit" line per metric, for people reading the log.
  std::string ToTable() const;
  std::string ToJson() const;

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> failures_;
};

// ---- Small statistics helpers.

double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double PeakRssMb();
double NowSeconds();

/// Order-sensitive 64-bit digest of a result's rows (not column names).
/// With `corrupt`, an extra row is digested: a wrong expected answer.
uint64_t RowsDigest(const exec::ResultSet& result, bool corrupt = false);

/// FNV-1a accumulator for the generated query stream's hash.
class StreamHash {
 public:
  void Add(const std::string& text);
  void Add(uint64_t value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// ---- Span tracing (traced runs only).

/// Spans kept in memory and written out when the run ends. Each span has
/// a name, start, end, parent span and request id. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (0 when tracing is off). parent 0 = root.
  uint32_t Begin(const char* name, uint32_t parent = 0, uint64_t request = 0);
  void End(uint32_t id);

  /// Mean span duration in microseconds for `name` (0 when none).
  double MeanUs(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Self time per span name, in seconds: each span's duration minus the
  /// part of it covered by its child spans.
  std::map<std::string, double> SelfSeconds() const;
  /// Write every span as JSON; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  struct SpanRecord {
    const char* name;
    double start_s;
    double end_s;
    uint32_t parent;
    uint64_t request;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // id = index + 1
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint32_t parent = 0,
       uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// ---- Inputs and set-up shared by the workloads.

/// Sizes of one run; Tiny() is the self-test scale.
struct Sizes {
  double data_scale = 1.0;
  size_t pool_queries = 300;  ///< generated before dropping empty ones
  size_t k = 400;
  int frame_size = 50;
  size_t iterations = 4;
  size_t setup_reps = 3;
  /// Constant-perturbed variants added per held-out query.
  size_t variants = 3;
  static Sizes Full() { return Sizes{}; }
  static Sizes Tiny();
};

/// Joins per statement the sessions send. Two-join statements fan out
/// through title's many-to-many links into results of up to 10^6 rows
/// (about a second each); one such statement in a hundred decides p99
/// alone, so p99 would measure which constants the seed drew rather than
/// the system. Training and scoring still use two-join queries.
constexpr size_t kMaxAnswerJoins = 1;

/// The IMDB database every workload runs on. It is fixed (seed 42): the
/// data is the system's state; the workload seed drives only the queries.
data::DatasetBundle MakeDatabase(const Sizes& sizes);

/// `count` queries from workloadgen::QueryGenerator drawn with `seed`,
/// keeping those that bind and have a non-empty full-database result (or
/// exceed a 10^5-row intermediate budget, which only large results do).
metric::Workload GenerateWorkload(const data::DatasetBundle& bundle,
                                  size_t count, uint64_t seed);

core::AsqpConfig MakeConfig(const Sizes& sizes);

/// `sql` with its numeric constants perturbed (string literals untouched).
std::string PerturbConstants(const std::string& sql, util::Rng* rng);

/// One AsqpTrainer::Train, timed; the model is null on failure (reported).
struct TrainedModel {
  std::unique_ptr<core::AsqpModel> model;
  double seconds = 0.0;
};
TrainedModel TrainTimed(const storage::Database& db,
                        const metric::Workload& train,
                        const core::AsqpConfig& config, Report* report);

/// Traced decomposition of one set-up, layer by layer, through the public
/// entry points AsqpTrainer::Train is built from: plan::StatsCatalog,
/// core::Preprocess, rl::Train and AsqpModel::GenerateApproximationSet.
/// Emits plan.stats_collect_s, core.preprocess_s, core.joined_tuples,
/// core.actions, rl.train_s, rl.episodes, rl.s_per_episode and
/// core.generate_set_s; fails the run if the rebuilt set differs from
/// `expected` (the trainer's own set for the same inputs).
void TraceSetupLayers(const storage::Database& db,
                      const metric::Workload& train,
                      const core::AsqpConfig& config,
                      const storage::ApproximationSet& expected,
                      Tracer* tracer, Report* report);

/// Traced per-layer probe of `sqls` against `model`: sql::Parse,
/// sql::Bind, sql::FingerprintQuery, EstimateAnswerability,
/// AsqpModel::Answer, QueryEngine::PlanForView and QueryEngine::Execute
/// over the approximation-set and full views. Emits the sql.*, plan.plan_us,
/// plan.index_path_ratio, exec.* and core.answer_us /
/// core.answerability_us metrics. Stops early after `budget_s` seconds.
void ProbeLayers(core::AsqpModel* model, const std::vector<std::string>& sqls,
                 double budget_s, Tracer* tracer, Report* report);

/// Emit the model's answer_stats() counters (core.approx_route_ratio,
/// core.fallbacks, core.retries, core.learned_served) since `before`.
void EmitAnswerStats(const core::AsqpModel& model,
                     const core::AsqpModel::AnswerStats& before,
                     Report* report);

/// The interactive latency limit on p99.
constexpr double kLatencyLimitMs = 250.0;

/// p99 latency for the limit check: `failed` requests count as missing it.
double LimitP99(std::vector<double> answered_ms, size_t failed);

/// max_rate_qps of a closed loop, which has no backlog: the highest rate
/// of the fixed ladder 10, 30, 90, ... (x3) at or below `sustained_qps`,
/// when `limit_p99_ms` is within kLatencyLimitMs; else 0.
double LadderRate(double sustained_qps, double limit_p99_ms);

/// Traced runs: write the spans and print each layer's self time.
void FinishTrace(const Args& args, const Tracer& tracer, Report* report);

/// The trained model every workload runs against. Its training workload
/// and train/test split are fixed (the system's state): the workload seed
/// drives only the requests, so score and setup_s measure the system, not
/// the draw.
struct System {
  data::DatasetBundle bundle;
  metric::Workload train;
  metric::Workload test;  ///< the held-out queries
  std::unique_ptr<core::AsqpModel> model;
};

/// Build the system. Untraced: train Sizes::setup_reps times, each
/// repetition timed from dataset built to model ready (AsqpTrainer::Train,
/// plus one ServeEngine construction with `*serve` when it is set), and
/// emit setup_s and score (Eq. 1 on the held-out queries).
/// Fails the run if the repetitions build different approximation sets or
/// Eq. 1 recomputed from the set saved to disk differs. Traced: train
/// once, decompose the set-up by layer and emit metric.score_s.
void SetUp(const Args& args, const serve::ServeOptions* serve, System* out,
           Tracer* tracer, Report* report);

// ---- Serving workloads (serving.cc).

/// One served response, reduced to what the checks and metrics need.
struct Served {
  const std::string* sql = nullptr;
  double latency_ms = 0.0;
  bool ok = false;
  bool fell_back = false;
  bool from_cache = false;
  bool raw_timeout = false;  ///< kDeadlineExceeded / kCancelled leaked
  uint64_t digest = 0;
};

/// Reduce `result` into `served` (thread-safe: touches only `served`).
void Record(const util::Result<core::AnswerResult>& result, Served* served);

/// Totals over a set of responses, for the end-to-end metrics.
struct ServedTotals {
  std::vector<double> answered_ms;  ///< latencies of answered requests
  size_t attempted = 0;
  size_t failed = 0;    ///< errors, refusals and typed kDegraded
  size_t degraded = 0;  ///< answers with fell_back set
};
ServedTotals Totals(const std::vector<Served>& served);

/// The correctness check of the serving workloads: every answered,
/// non-degraded response's rows must equal a direct AsqpModel::Answer of
/// a statement with the same canonical fingerprint (each distinct SQL text
/// is answered directly once, on 4 threads), and no raw
/// kDeadlineExceeded / kCancelled may reach a client. The answer cache
/// and batch dedup serve one answer per fingerprint, while the mediator
/// routes each spelling by its own answerability estimate, so spellings
/// of one fingerprint can have different direct answers: such
/// fingerprints are counted and printed, not failed. `corrupt` corrupts
/// the expected answers of the first fingerprint. Direct answers are
/// traced as "verify.core_answer".
struct Verified {
  /// Mean served latency minus mean direct latency over the executed
  /// (non-cached) responses: serve.self_us.
  double serve_self_us = 0.0;
  /// Fingerprints whose spellings have different direct answers.
  size_t split_fingerprints = 0;
};
Verified VerifyServed(core::AsqpModel* model, const std::vector<Served>& served,
                      bool corrupt, Tracer* tracer, Report* report);

/// Emit the serve.* counters of ServeEngine::stats() over `attempted`
/// requests (all but serve.queue_depth_max, which the workload samples).
void EmitServeStats(const serve::ServeEngine& engine, size_t attempted,
                    Report* report);

// ---- Workloads.

void RunPipeline(const Args& args, Report* report);
void RunExploreCold(const Args& args, Report* report);
void RunExploreShared(const Args& args, Report* report);

}  // namespace perfbench
