// Workload `pipeline`: Algorithm 1 on IMDB. The set-up (SetUp) trains
// AsqpTrainer::Train on a fixed generated workload with a fixed k, scores
// the approximation set by Eq. 1 on the held-out queries and checks the
// score against the set saved to disk. Then one session answers the
// held-out queries of at most kMaxAnswerJoins joins, and seeded
// constant-perturbed variants of them, through AsqpModel::Answer.
#include <cstdio>

#include "bench.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

struct AnswerPhase {
  std::vector<double> latencies_ms;  ///< answered requests only
  double wall_s = 0.0;
  size_t failed = 0;
  size_t degraded = 0;
};

/// One closed-loop session calling AsqpModel::Answer round-robin over
/// `stmts` for `seconds`. Every repeat of a statement must return the rows
/// of its first answer; `corrupt` corrupts the first statement's.
AnswerPhase RunAnswers(core::AsqpModel* model,
                       const std::vector<sql::SelectStatement>& stmts,
                       double seconds, bool corrupt, Tracer* tracer,
                       Report* report) {
  AnswerPhase phase;
  std::vector<uint64_t> first_digest(stmts.size(), 0);
  std::vector<bool> seen(stmts.size(), false);
  const double start = NowSeconds();
  for (size_t i = 0; NowSeconds() - start < seconds; ++i) {
    const size_t q = i % stmts.size();
    const double t0 = NowSeconds();
    util::Result<core::AnswerResult> answer = util::Status::Internal("not run");
    {
      const Span span(tracer, "core.answer", 0, i + 1);
      answer = model->Answer(stmts[q]);
    }
    if (!answer.ok()) {
      ++phase.failed;
      continue;
    }
    phase.latencies_ms.push_back((NowSeconds() - t0) * 1e3);
    if (answer->fell_back) ++phase.degraded;
    if (!seen[q]) {
      seen[q] = true;
      first_digest[q] = RowsDigest(answer->result, corrupt && q == 0);
    } else if (RowsDigest(answer->result) != first_digest[q]) {
      report->Fail("AsqpModel::Answer returned other rows on a repeat of: " +
                   stmts[q].ToSql());
      break;
    }
  }
  phase.wall_s = NowSeconds() - start;
  if (corrupt && phase.latencies_ms.size() + phase.failed <= stmts.size()) {
    report->Fail("self-test: the phase ended before a repeat was checked");
  }
  return phase;
}

}  // namespace

void RunPipeline(const Args& args, Report* report) {
  const Sizes sizes = args.tiny ? Sizes::Tiny() : Sizes::Full();
  Tracer tracer(args.trace);
  System system;
  SetUp(args, nullptr, &system, &tracer, report);
  if (system.model == nullptr) return;
  core::AsqpModel* model = system.model.get();

  // The answered statements: held-out queries and perturbed variants.
  StreamHash stream;
  util::Rng rng(args.seed);
  std::vector<std::string> sqls;
  std::vector<sql::SelectStatement> stmts;
  for (const metric::WeightedQuery& wq : system.test.queries()) {
    if (wq.stmt.from.size() > kMaxAnswerJoins + 1) continue;
    for (size_t v = 0; v <= sizes.variants; ++v) {
      std::string text = v == 0 ? wq.ToSql() : PerturbConstants(wq.ToSql(), &rng);
      auto stmt = sql::Parse(text);
      if (!stmt.ok() || !sql::Bind(stmt.value(), *system.bundle.db).ok()) {
        continue;
      }
      stream.Add(text);
      sqls.push_back(std::move(text));
      stmts.push_back(std::move(stmt).value());
    }
  }
  std::printf("stream_hash %016llx\n",
              static_cast<unsigned long long>(stream.value()));
  std::fprintf(stderr, "pipeline: %zu answer statements, 1 session\n",
               stmts.size());

  if (args.trace) {
    ProbeLayers(model, sqls, args.seconds / 4, &tracer, report);
    Tracer off(false);
    const AnswerPhase plain =
        RunAnswers(model, stmts, args.seconds / 4, false, &off, report);
    const core::AsqpModel::AnswerStats before = model->answer_stats();
    const AnswerPhase traced =
        RunAnswers(model, stmts, args.seconds / 4, args.corrupt, &tracer,
                   report);
    EmitAnswerStats(*model, before, report);
    report->Metric("bench.trace_overhead_pct",
                   (Mean(traced.latencies_ms) / Mean(plain.latencies_ms) - 1.0) *
                       100.0,
                   "%");
    report->failed = traced.failed;
    report->attempted = traced.latencies_ms.size() + traced.failed;
    FinishTrace(args, tracer, report);
    return;
  }

  const AnswerPhase phase =
      RunAnswers(model, stmts, args.seconds, args.corrupt, &tracer, report);
  report->failed = phase.failed;
  report->attempted = phase.latencies_ms.size() + phase.failed;
  const double attempted = static_cast<double>(report->attempted);
  const double qps =
      static_cast<double>(phase.latencies_ms.size()) / phase.wall_s;
  report->Metric("qps", qps, "1/s");
  report->Metric("query_avg_ms", Mean(phase.latencies_ms), "ms");
  report->Metric("latency_p50_ms", Percentile(phase.latencies_ms, 0.5), "ms");
  report->Metric("latency_p99_ms", Percentile(phase.latencies_ms, 0.99), "ms");
  report->Metric("max_rate_qps",
                 LadderRate(qps,
                            LimitP99(phase.latencies_ms, phase.failed)),
                 "1/s");
  report->Metric("answered_ratio",
                 static_cast<double>(phase.latencies_ms.size()) / attempted,
                 "ratio");
  report->Metric("exact_ratio",
                 1.0 - static_cast<double>(phase.degraded) / attempted, "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
