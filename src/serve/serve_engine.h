// The concurrent serving layer: one ServeEngine fronts one trained
// AsqpModel for N simultaneous mediator sessions.
//
// Four mechanisms turn the single-query mediator into a server:
//   1. A process-wide util::ThreadPool shared by every session's
//      morsel-parallel execution (injected via ExecOptions::shared_pool),
//      so N concurrent queries use one bounded pool instead of N private
//      ones — total execution threads never exceed the configured cap
//      (observable via util::ThreadPool::LiveWorkerCount()).
//   2. A sharded answer cache keyed by sql::QueryFingerprint of the bound
//      AST: repeat queries — in any equivalent spelling — return the
//      cached AnswerResult without executing or occupying an execution
//      slot. Entries are stamped with the model's approximation-set
//      generation; FineTune() bumps it, invalidating every stale entry.
//   3. One admission and execution path: every cache miss becomes a
//      BatchScheduler ticket. The scheduler bounds in-flight executions at
//      max_inflight and queued tickets at queue_capacity (a full queue is
//      rejected with kResourceExhausted). Tickets over the same table set
//      that arrive within batch_window_ms execute as one batch sharing a
//      single scan pass per table (AsqpModel::AnswerBatch), byte-identical
//      to answering each alone. AnswerAsync returns an AnswerFuture
//      resolved by the scheduler's fixed executor threads, so hundreds of
//      sessions wait without hundreds of threads. A synchronous Answer
//      with a zero window runs its one-ticket batch on the caller's own
//      thread when a slot is free and nothing is queued; otherwise it
//      queues like any other ticket and waits on its future.
//   4. Overload control (the serve side of the degradation ladder): a
//      request whose deadline is already dead is turned away before it
//      costs a ticket; a ticket that cannot run (queue full, expired or
//      cancelled while queued) is load-shed to the model's learned
//      fallback when it can take the query; and a deadline or
//      cancellation that leaks out of the ladder is converted to a
//      learned answer or a typed kDegraded — under overload a client gets
//      an answer (possibly approximate, with an error estimate) or a
//      typed degradation, never a raw timeout.
//
// Answer() calls may run from any number of threads. FineTune() takes the
// engine's writer lock, so in-flight queries drain before the model is
// retrained and new arrivals wait until the swap completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/model.h"
#include "plan/plan_reuse.h"
#include "serve/answer_cache.h"
#include "serve/answer_future.h"
#include "serve/batch_scheduler.h"
#include "util/annotations.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace asqp {
namespace serve {

struct ServeOptions {
  /// Executions (batches) in flight at once, inline and on executors.
  size_t max_inflight = 4;
  /// Tickets allowed to queue behind them (excess is rejected).
  size_t queue_capacity = 16;
  /// Worker threads in the shared execution pool. Total morsel
  /// concurrency per query = pool workers + the session's own thread.
  /// 0 = 1 worker.
  size_t pool_threads = 1;
  /// Answer-cache byte budget (0 disables caching).
  size_t cache_bytes = 64ull << 20;
  size_t cache_shards = 8;
  /// Load shedding: when a ticket cannot run (queue full, deadline expired
  /// or cancelled while queued) or a deadline/cancellation leaks out of the
  /// ladder, answer supported aggregate queries from the model's learned
  /// fallback instead of erroring. Unsupported queries keep the typed
  /// admission error (queue full) or degrade to kDegraded.
  bool shed_to_learned = true;
  /// Gather window for shared-scan batching, in milliseconds: same-table-set
  /// queries arriving within the window execute as one batch sharing a
  /// single scan pass per table. 0 (the default) means immediate
  /// single-ticket batches; a synchronous Answer then runs on the caller's
  /// thread whenever a slot is free and nothing is queued.
  double batch_window_ms = 0.0;
  /// Queries a gathering group may accumulate before it executes without
  /// waiting out the window.
  size_t batch_max_queries = 8;
  /// No effect: every query is a scheduler ticket and AnswerAsync never
  /// blocks. Kept so existing callers that set it still compile.
  bool async = false;
};

class ServeEngine {
 public:
  /// `model` must outlive the engine. The engine re-routes the model's
  /// execution through its shared pool (AsqpModel::SetExecutionPool).
  ServeEngine(core::AsqpModel* model, ServeOptions options);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Serve one query: fingerprint -> cache lookup -> (on miss) a scheduler
  /// ticket, run inline or queued -> ExecuteBatch -> cache fill. Cache
  /// hits return immediately with AnswerResult::from_cache set, costing no
  /// ticket. `context` bounds both the queue wait and the execution.
  [[nodiscard]] util::Result<core::AnswerResult> Answer(
      const sql::SelectStatement& stmt,
      const util::ExecContext& context = util::ExecContext());

  /// Parse `sql`, then Answer() it.
  [[nodiscard]] util::Result<core::AnswerResult> AnswerSql(
      const std::string& sql,
      const util::ExecContext& context = util::ExecContext());

  /// Serve one query without blocking the caller: returns an AnswerFuture
  /// that resolves when the query's batch executes on an executor thread
  /// (or immediately on a cache hit / fast-path rejection). Results are
  /// byte-identical to Answer().
  [[nodiscard]] AnswerFuture AnswerAsync(
      const sql::SelectStatement& stmt,
      const util::ExecContext& context = util::ExecContext());

  /// Parse `sql`, then AnswerAsync() it (parse errors resolve the future).
  [[nodiscard]] AnswerFuture AnswerSqlAsync(
      const std::string& sql,
      const util::ExecContext& context = util::ExecContext());

  /// Retrain on drifted/new queries (AsqpModel::FineTune) under the
  /// writer lock: waits for in-flight queries to drain, swaps the model
  /// state, and invalidates every cached answer from older generations.
  [[nodiscard]] util::Status FineTune(const metric::Workload& new_queries);

  struct Stats {
    uint64_t served = 0;          ///< successful Answer() calls
    uint64_t cache_hits = 0;      ///< served straight from the cache
    uint64_t admitted = 0;        ///< entered execution
    uint64_t rejected = 0;        ///< ticket queue full
    uint64_t admission_expired = 0;  ///< deadline/cancel while queued
    uint64_t shed_learned = 0;    ///< load-shed to the learned fallback
    uint64_t degraded = 0;        ///< every tier exhausted (kDegraded)
    uint64_t expired_fast_path = 0;  ///< dead on arrival, never admitted
    /// Batching/queue observability.
    uint64_t queue_depth = 0;     ///< tickets queued right now (gauge)
    uint64_t batches_formed = 0;  ///< groups promoted, plus inline runs
    uint64_t batch_members = 0;   ///< tickets across all formed batches
    uint64_t shared_scan_saved = 0;  ///< table scans avoided by sharing
    uint64_t batch_solo = 0;      ///< members that fell back to solo exec
  };
  Stats stats() const {
    const BatchScheduler::Stats b = scheduler_->stats();
    return Stats{served_.load(std::memory_order_relaxed),
                 cache_hits_.load(std::memory_order_relaxed),
                 admitted_.load(std::memory_order_relaxed),
                 rejected_.load(std::memory_order_relaxed),
                 admission_expired_.load(std::memory_order_relaxed),
                 shed_learned_.load(std::memory_order_relaxed),
                 degraded_.load(std::memory_order_relaxed),
                 expired_fast_path_.load(std::memory_order_relaxed),
                 scheduler_->QueueDepth(),
                 b.batches_formed,
                 b.batch_members,
                 shared_scan_saved_.load(std::memory_order_relaxed),
                 batch_solo_.load(std::memory_order_relaxed)};
  }

  const AnswerCache& cache() const { return cache_; }
  AnswerCache& mutable_cache() { return cache_; }
  const ServeOptions& options() const { return options_; }
  /// Unsynchronized escape hatch for setup/instrumentation in tests and
  /// benches; do not use while Answer/FineTune are in flight.
  core::AsqpModel* model() { return model_; }  // NOLINT(asqp-guard-violation)
  /// The shared execution pool (for instrumentation/tests).
  util::ThreadPool* pool() { return pool_.get(); }

 private:
  /// The front half shared by Answer and AnswerAsync: the dead-on-arrival
  /// check, then bind, fingerprint and cache probe under the reader lock.
  /// Resolves `promise` and returns nullopt when the query needs no
  /// execution (cache hit, dead on arrival, bind error); otherwise returns
  /// the query's ticket.
  std::optional<BatchScheduler::Ticket> MakeTicket(
      const sql::SelectStatement& stmt, const util::ExecContext& context,
      const AnswerPromise& promise);

  /// Resolve the promise of a ticket the full queue refused: shed to the
  /// learned tier, else the typed kResourceExhausted back-pressure error.
  void RejectQueueFull(const sql::SelectStatement& stmt,
                       const AnswerPromise& promise);

  /// Execute one batch (on an executor thread, or inline on a synchronous
  /// caller's thread): per-ticket expiry / cache re-probe / canonical
  /// dedup, then AsqpModel::AnswerBatch for the representatives, then the
  /// shed/degrade tail and cache fill, resolving every ticket's promise.
  void ExecuteBatch(std::vector<BatchScheduler::Ticket>&& tickets);

  /// Load shedding, the one learned-tier conversion for every failure
  /// class: answer `stmt` from `model`'s learned fallback, tagged with
  /// `reason`, when shed_to_learned is on and the query is in the learned
  /// class; otherwise return `failure` (counted as degraded when
  /// kDegraded). `model` is *model_, read under the caller's reader lock.
  util::Result<core::AnswerResult> ShedToLearned(
      const core::AsqpModel& model, const sql::SelectStatement& stmt,
      std::string reason, util::Status failure);

  /// The cached answer for `fp` at `generation`, marked from_cache and
  /// counted as a hit; nullopt on a miss.
  std::optional<core::AnswerResult> CacheHit(const sql::QueryFingerprint& fp,
                                             uint64_t generation);

  /// Resolve `promise`, counting a successful answer as served.
  void Resolve(const AnswerPromise& promise,
               util::Result<core::AnswerResult> result);

  /// Readers (shared_lock): Answer() binds, fingerprints, and executes
  /// against a stable model. Writer (unique_lock): FineTune().
  core::AsqpModel* model_ ASQP_GUARDED_BY(model_mu_);
  ServeOptions options_;
  std::shared_ptr<util::ThreadPool> pool_;
  AnswerCache cache_;
  /// Fingerprint-keyed planned-query reuse for batch members (internally
  /// synchronized; generation-stamped like the answer cache).
  plan::PlanReuseCache plan_cache_;
  std::shared_mutex model_mu_;

  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> admission_expired_{0};
  std::atomic<uint64_t> shed_learned_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> expired_fast_path_{0};
  std::atomic<uint64_t> shared_scan_saved_{0};
  std::atomic<uint64_t> batch_solo_{0};

  /// The one admission mechanism. Declared last so its destructor runs
  /// first: pending batches flush against a still-live engine.
  std::unique_ptr<BatchScheduler> scheduler_;
};

}  // namespace serve
}  // namespace asqp
