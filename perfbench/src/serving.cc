// Response bookkeeping and the correctness check shared by the serving
// workloads (explore_cold, explore_shared).
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "serve/serve_engine.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"

namespace perfbench {

void Record(const util::Result<core::AnswerResult>& result, Served* served) {
  served->ok = result.ok();
  if (!result.ok()) {
    const util::StatusCode code = result.status().code();
    served->raw_timeout = code == util::StatusCode::kDeadlineExceeded ||
                          code == util::StatusCode::kCancelled;
    return;
  }
  served->fell_back = result->fell_back;
  served->from_cache = result->from_cache;
  served->digest = RowsDigest(result->result);
}

ServedTotals Totals(const std::vector<Served>& served) {
  ServedTotals totals;
  for (const Served& s : served) {
    ++totals.attempted;
    if (!s.ok) {
      ++totals.failed;
      continue;
    }
    totals.answered_ms.push_back(s.latency_ms);
    totals.degraded += s.fell_back ? 1 : 0;
  }
  return totals;
}

Verified VerifyServed(core::AsqpModel* model, const std::vector<Served>& served,
                      bool corrupt, Tracer* tracer, Report* report) {
  // One direct answer per distinct SQL text; texts grouped by fingerprint.
  std::unordered_map<std::string, size_t> index;
  std::vector<const std::string*> texts;
  for (const Served& s : served) {
    if (s.raw_timeout) {
      report->Fail("a raw kDeadlineExceeded/kCancelled reached a client: " +
                   *s.sql);
    }
    if (!s.ok || s.fell_back) continue;
    if (index.emplace(*s.sql, texts.size()).second) texts.push_back(s.sql);
  }
  struct Direct {
    uint64_t fingerprint = 0;
    uint64_t digest = 0;
    double latency_ms = 0.0;
    bool ok = false;
  };
  std::vector<Direct> direct(texts.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < texts.size(); i = next++) {
        auto stmt = sql::Parse(*texts[i]);
        if (!stmt.ok()) continue;
        auto bound = sql::Bind(stmt.value(), *model->database());
        if (!bound.ok()) continue;
        direct[i].fingerprint = sql::FingerprintQuery(bound->stmt).hash;
        const double start = NowSeconds();
        util::Result<core::AnswerResult> answer =
            util::Status::Internal("not run");
        {
          const Span span(tracer, "verify.core_answer", 0, i + 1);
          answer = model->Answer(stmt.value());
        }
        direct[i].latency_ms = (NowSeconds() - start) * 1e3;
        if (!answer.ok()) continue;
        direct[i].ok = true;
        direct[i].digest = RowsDigest(answer->result);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The rows each fingerprint may be served with.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> expected;
  for (const Direct& d : direct) {
    if (!d.ok) continue;
    const bool corrupted = corrupt && d.fingerprint == direct[0].fingerprint;
    expected[d.fingerprint].insert(corrupted ? ~d.digest : d.digest);
  }
  size_t split = 0;
  for (const auto& [fingerprint, digests] : expected) {
    split += digests.size() > 1 ? 1 : 0;
  }

  double served_sum = 0.0;
  double direct_sum = 0.0;
  size_t executed = 0;
  size_t mismatches = 0;
  for (const Served& s : served) {
    if (!s.ok || s.fell_back) continue;
    const Direct& d = direct[index.at(*s.sql)];
    const auto it = expected.find(d.fingerprint);
    if (it == expected.end() || it->second.count(s.digest) == 0) {
      if (++mismatches <= 3) {
        report->Fail("served rows differ from every direct AsqpModel::Answer "
                     "of the fingerprint of: " + *s.sql);
      }
    }
    if (!s.from_cache) {
      served_sum += s.latency_ms;
      direct_sum += d.latency_ms;
      ++executed;
    }
  }
  std::fprintf(stderr,
               "verified %zu responses against %zu direct answers of %zu "
               "fingerprints: %zu mismatches; %zu fingerprints whose "
               "spellings the mediator answers differently\n",
               served.size(), texts.size(), expected.size(), mismatches, split);
  Verified verified;
  verified.split_fingerprints = split;
  if (executed > 0) {
    verified.serve_self_us =
        (served_sum - direct_sum) / static_cast<double>(executed) * 1e3;
  }
  return verified;
}

void EmitServeStats(const serve::ServeEngine& engine, size_t attempted,
                    Report* report) {
  const serve::ServeEngine::Stats stats = engine.stats();
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  report->Metric("serve.cache_hit_ratio",
                 ratio(stats.cache_hits, attempted),
                 "ratio");
  report->Metric("serve.mean_batch_size",
                 ratio(stats.batch_members, stats.batches_formed), "count");
  report->Metric("serve.shared_scan_saved",
                 static_cast<double>(stats.shared_scan_saved), "count");
  report->Metric("serve.batch_solo", static_cast<double>(stats.batch_solo),
                 "count");
  report->Metric("serve.rejected", static_cast<double>(stats.rejected),
                 "count");
  report->Metric("serve.admission_expired",
                 static_cast<double>(stats.admission_expired), "count");
  report->Metric("serve.shed_learned",
                 static_cast<double>(stats.shed_learned), "count");
  // Whether the working set fits the answer cache.
  const serve::AnswerCache::Stats cache = engine.cache().stats();
  report->Metric("serve.cache_evictions", static_cast<double>(cache.evictions),
                 "count");
  report->Metric("serve.cache_mb", static_cast<double>(cache.bytes) / 1048576.0,
                 "MB");
}

}  // namespace perfbench
