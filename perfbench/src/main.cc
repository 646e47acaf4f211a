// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <pipeline|explore_cold|explore_shared> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny]
//             [--corrupt]
//
// Prints the run's metrics by name with their units, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run (spans are written to --out-dir).
// Exits 1 when an answer is wrong or a check fails. --tiny and --corrupt
// serve the self-test: tiny inputs, and one deliberately wrong expected
// answer that the checks must reject.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},        {"score", "score"},
    {"query_avg_ms", "ms"},  {"qps", "1/s"},
    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"max_rate_qps", "1/s"}, {"answered_ratio", "ratio"},
    {"exact_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};

// Every per-layer metric, printed by every traced run. A layer the
// workload does not exercise reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"sql.parse_us", "us"},
    {"sql.bind_us", "us"},
    {"sql.fingerprint_us", "us"},
    {"plan.plan_us", "us"},
    {"plan.index_path_ratio", "ratio"},
    {"plan.stats_collect_s", "s"},
    {"exec.execute_approx_us", "us"},
    {"exec.execute_full_us", "us"},
    {"exec.rows_in_per_row_out", "ratio"},
    {"serve.answer_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.resolve_us", "us"},
    {"serve.self_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.mean_batch_size", "count"},
    {"serve.shared_scan_saved", "count"},
    {"serve.batch_solo", "count"},
    {"serve.rejected", "count"},
    {"serve.admission_expired", "count"},
    {"serve.shed_learned", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.cache_mb", "MB"},
    {"core.answer_us", "us"},
    {"core.answerability_us", "us"},
    {"core.approx_route_ratio", "ratio"},
    {"core.fallbacks", "count"},
    {"core.retries", "count"},
    {"core.learned_served", "count"},
    {"core.spelling_split_fingerprints", "count"},
    {"core.preprocess_s", "s"},
    {"core.joined_tuples", "count"},
    {"core.actions", "count"},
    {"rl.train_s", "s"},
    {"rl.episodes", "count"},
    {"rl.s_per_episode", "s"},
    {"core.generate_set_s", "s"},
    {"metric.score_s", "s"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.generator_lag_ms", "ms"},
    {"bench.probe_queries", "count"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pipeline|explore_cold|explore_shared> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny] "
               "[--corrupt]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt") {
      args.corrupt = true;
    } else if (!has_value) {
      return Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = argv[++i];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  Report report;
  const std::vector<MetricSpec>& expected = args.trace ? kPerLayer : kEndToEnd;
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) report.Metric(m.name, 0.0, m.unit);
  }
  if (args.workload == "pipeline") {
    perfbench::RunPipeline(args, &report);
  } else if (args.workload == "explore_cold") {
    perfbench::RunExploreCold(args, &report);
  } else if (args.workload == "explore_shared") {
    perfbench::RunExploreShared(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (report.correct()) {
    for (const MetricSpec& m : expected) {
      if (!report.Has(m.name)) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                     m.name);
        return 2;
      }
    }
  }

  std::printf("%s%s\n", report.ToTable().c_str(), report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
