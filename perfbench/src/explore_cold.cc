// Workload `explore_cold`: 2 closed-loop sessions send SQL to one
// ServeEngine with the library's default options. Every request has its
// own canonical fingerprint (workloadgen::QueryGenerator queries and
// constant-perturbed held-out queries, deduplicated by
// sql::FingerprintQuery), so the answer cache never hits; the estimator
// routes part of the traffic to the approximation set and the rest to the
// full database.
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "serve/serve_engine.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "workloadgen/generator.h"
#include "workloadgen/stats.h"

namespace perfbench {

namespace {

/// Two sessions, so that with the engine's pool worker at most 3 threads
/// are busy on 4 cores. With 4 sessions the cores were oversubscribed and
/// p99 followed the host's contention: it spread 0.30 (quartile distance
/// over median) across ten seeds.
constexpr size_t kSessions = 2;

/// `count` SQL texts with pairwise distinct fingerprints, alternating
/// generated queries and perturbed held-out queries of at most
/// kMaxAnswerJoins joins.
std::vector<std::string> DistinctRequests(const System& setup,
                                          size_t count, uint64_t seed,
                                          StreamHash* stream) {
  const storage::Database& db = *setup.bundle.db;
  const workloadgen::DatabaseStats stats =
      workloadgen::DatabaseStats::Collect(db);
  const workloadgen::QueryGenerator generator(&db, &stats, setup.bundle.fks);
  workloadgen::QueryGenOptions options;
  options.max_joins = kMaxAnswerJoins;
  options.max_predicates = 3;
  std::vector<const metric::WeightedQuery*> held_out;
  for (const metric::WeightedQuery& wq : setup.test.queries()) {
    if (wq.stmt.from.size() <= kMaxAnswerJoins + 1) held_out.push_back(&wq);
  }
  util::Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  std::vector<std::string> sqls;
  for (size_t attempt = 0; sqls.size() < count && attempt < 20 * count;
       ++attempt) {
    std::string text =
        attempt % 2 == 0 || held_out.empty()
            ? generator.Generate(options, &rng).ToSql()
            : PerturbConstants(held_out[attempt / 2 % held_out.size()]->ToSql(),
                               &rng);
    auto bound = sql::ParseAndBind(text, db);
    if (!bound.ok()) continue;
    if (!seen.insert(sql::FingerprintQuery(bound->stmt).hash).second) continue;
    stream->Add(text);
    sqls.push_back(std::move(text));
  }
  return sqls;
}

struct Phase {
  std::vector<Served> served;  ///< one per request sent, in request order
  double wall_s = 0.0;
};

/// Closed loop: kSessions threads take the next request in order, call
/// ServeEngine::AnswerSql and wait for it, until `seconds` pass or the
/// requests run out.
Phase RunSessions(serve::ServeEngine* engine,
                  const std::vector<std::string>& sqls, double seconds,
                  Tracer* tracer) {
  std::vector<Served> slots(sqls.size());
  std::atomic<size_t> next{0};
  const double start = NowSeconds();
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&] {
      while (NowSeconds() - start < seconds) {
        const size_t i = next++;
        if (i >= sqls.size()) break;
        Served& slot = slots[i];
        slot.sql = &sqls[i];
        const double t0 = NowSeconds();
        util::Result<core::AnswerResult> answer =
            util::Status::Internal("not run");
        {
          const Span span(tracer, "serve.answer", 0, i + 1);
          answer = engine->AnswerSql(sqls[i]);
        }
        slot.latency_ms = (NowSeconds() - t0) * 1e3;
        Record(answer, &slot);
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  Phase phase;
  phase.wall_s = NowSeconds() - start;
  const size_t sent = std::min(next.load(), sqls.size());
  if (sent == sqls.size()) {
    std::fprintf(stderr, "explore_cold: all %zu requests sent before the "
                 "time ran out\n", sqls.size());
  }
  slots.resize(sent);
  phase.served = std::move(slots);
  return phase;
}

}  // namespace

void RunExploreCold(const Args& args, Report* report) {
  const serve::ServeOptions options;  // the library's defaults
  Tracer tracer(args.trace);
  System setup;
  SetUp(args, &options, &setup, &tracer, report);
  if (setup.model == nullptr) return;
  core::AsqpModel* model = setup.model.get();

  // Enough distinct requests for three times the throughput seen (about
  // 300 answers/s); the run stops early, with a message, if they run out.
  StreamHash stream;
  const size_t count = static_cast<size_t>(
      args.seconds * (args.tiny ? 100.0 : 1000.0));
  const std::vector<std::string> sqls =
      DistinctRequests(setup, count, args.seed, &stream);
  std::printf("stream_hash %016llx\n",
              static_cast<unsigned long long>(stream.value()));
  std::fprintf(stderr, "explore_cold: %zu distinct requests, %zu sessions\n",
               sqls.size(), kSessions);

  if (args.trace) {
    ProbeLayers(model, sqls, args.seconds / 4, &tracer, report);
    Phase plain;
    {
      Tracer off(false);
      serve::ServeEngine engine(model, options);
      plain = RunSessions(&engine, sqls, args.seconds / 2, &off);
    }
    serve::ServeEngine engine(model, options);
    const core::AsqpModel::AnswerStats before = model->answer_stats();
    const Phase traced = RunSessions(&engine, sqls, args.seconds / 2, &tracer);
    EmitAnswerStats(*model, before, report);
    EmitServeStats(engine, traced.served.size(), report);
    report->Metric("serve.answer_us", tracer.MeanUs("serve.answer"), "us");
    const Verified verified =
        VerifyServed(model, traced.served, args.corrupt, &tracer, report);
    report->Metric("serve.self_us", verified.serve_self_us, "us");
    report->Metric("core.spelling_split_fingerprints",
                   static_cast<double>(verified.split_fingerprints), "count");
    const ServedTotals plain_totals = Totals(plain.served);
    const ServedTotals traced_totals = Totals(traced.served);
    report->Metric("bench.trace_overhead_pct",
                   (Mean(traced_totals.answered_ms) /
                        Mean(plain_totals.answered_ms) -
                    1.0) * 100.0,
                   "%");
    report->attempted = traced_totals.attempted;
    report->failed = traced_totals.failed;
    FinishTrace(args, tracer, report);
    return;
  }

  serve::ServeEngine engine(model, options);
  const Phase phase = RunSessions(&engine, sqls, args.seconds, &tracer);
  const ServedTotals totals = Totals(phase.served);
  if (engine.stats().cache_hits != 0) {
    report->Fail("requests with distinct fingerprints hit the answer cache");
  }
  (void)VerifyServed(model, phase.served, args.corrupt, &tracer, report);

  const double attempted = static_cast<double>(totals.attempted);
  const double qps =
      static_cast<double>(totals.answered_ms.size()) / phase.wall_s;
  report->attempted = totals.attempted;
  report->failed = totals.failed;
  std::fprintf(stderr, "explore_cold: %zu requests, %zu answered, %zu failed\n",
               totals.attempted, totals.answered_ms.size(), totals.failed);
  report->Metric("qps", qps, "1/s");
  report->Metric("query_avg_ms", Mean(totals.answered_ms), "ms");
  report->Metric("latency_p50_ms", Percentile(totals.answered_ms, 0.5), "ms");
  report->Metric("latency_p99_ms", Percentile(totals.answered_ms, 0.99), "ms");
  report->Metric("max_rate_qps",
                 LadderRate(qps,
                            LimitP99(totals.answered_ms, totals.failed)),
                 "1/s");
  report->Metric("answered_ratio",
                 static_cast<double>(totals.answered_ms.size()) / attempted,
                 "ratio");
  report->Metric("exact_ratio",
                 1.0 - static_cast<double>(totals.degraded) / attempted,
                 "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
