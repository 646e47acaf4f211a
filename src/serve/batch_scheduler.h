// Admission and shared-scan batch formation for the serving layer: every
// query ServeEngine executes passes through here.
//
// ServeEngine turns each query into a Ticket (statement copy, caller
// context, fingerprint, promise). AnswerAsync Submit()s it to a bounded
// ticket queue; a gather thread groups queued tickets by their table-set
// key, and a group executes as one batch when it reaches max_batch members
// or its oldest ticket has waited out the gather window, whichever comes
// first — so queries over the same tables share one scan pass
// (multi-query optimization), while disjoint-table queries sit in
// different groups and never wait on each other's batches. A fixed pool of
// executor threads drains ready batches through the engine's ExecuteFn
// (ServeEngine::ExecuteBatch), which resolves every member's promise;
// sessions wait on futures, not threads.
//
// Synchronous callers first try TryRunInline(): with a zero gather window,
// a free execution slot and nothing queued, the one-ticket batch runs on
// the caller's own thread (no executor handoff). Inline runs and executor
// batches share one slot count capped at `executors`, and an inline run is
// only allowed while no ticket is queued — so a late arrival never
// overtakes a queued ticket, and total executions never exceed the cap.
//
// Shutdown flushes: the destructor stops intake, promotes every gathering
// group to a batch, executes them all, then joins — no ticket is ever
// dropped with an unresolved promise.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/answer_future.h"
#include "sql/ast.h"
#include "sql/canonicalize.h"
#include "util/annotations.h"
#include "util/exec_context.h"

namespace asqp {
namespace serve {

class BatchScheduler {
 public:
  struct Options {
    /// Seconds a group's oldest ticket waits for peers before the group
    /// executes. <= 0 promotes tickets to batches immediately (one-ticket
    /// batches, no cross-query gathering) and enables TryRunInline.
    double window_seconds = 0.001;
    /// A group reaching this many members executes without waiting.
    size_t max_batch = 8;
    /// Tickets queued (gathering + ready) before Submit rejects.
    size_t queue_capacity = 16;
    /// Executor threads draining ready batches, and the execution slots
    /// they share with inline runs: the engine's in-flight bound.
    size_t executors = 1;
  };

  /// One queued query. The statement is an owned deep copy (the caller's
  /// may die while the ticket waits); the context shares the caller's
  /// cancellation flag and deadline.
  struct Ticket {
    sql::SelectStatement stmt;
    util::ExecContext context;
    sql::QueryFingerprint fingerprint;
    /// Grouping key: the sorted, deduplicated bound table names.
    std::string group_key;
    AnswerPromise promise;
  };

  using ExecuteFn = std::function<void(std::vector<Ticket>&&)>;

  /// `execute` runs on executor threads and must resolve every ticket's
  /// promise (ServeEngine::ExecuteBatch does).
  BatchScheduler(Options options, ExecuteFn execute);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueue a ticket. Returns false — without resolving the promise —
  /// when the queue is at capacity or the scheduler is shutting down; the
  /// caller owns the rejection (shed / typed back-pressure error).
  [[nodiscard]] bool Submit(Ticket ticket) ASQP_EXCLUDES(mu_);

  /// Run `ticket` as a one-ticket batch on the calling thread, when the
  /// gather window is zero, an execution slot is free and no ticket is
  /// queued. Returns true once the batch has executed (the ticket was
  /// consumed and its promise resolved); false leaves `ticket` untouched
  /// for the caller to Submit().
  [[nodiscard]] bool TryRunInline(Ticket& ticket) ASQP_EXCLUDES(mu_);

  struct Stats {
    uint64_t submitted = 0;       ///< tickets queued or run inline
    uint64_t rejected = 0;        ///< Submit refusals (queue full)
    uint64_t batches_formed = 0;  ///< groups promoted, plus inline runs
    uint64_t batch_members = 0;   ///< tickets across all formed batches
  };
  Stats stats() const;

  /// Tickets gathering or ready but not yet handed to an executor.
  size_t QueueDepth() const;

  const Options& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Groups only live inside `gathering_`, so their fields inherit its
  /// lock protocol.
  struct Group {
    std::vector<Ticket> tickets ASQP_GUARDED_BY(mu_);
    /// Arrival of the first (oldest) ticket.
    Clock::time_point oldest ASQP_GUARDED_BY(mu_);
  };

  void GatherLoop();
  void ExecutorLoop();
  void ReleaseInlineSlot() ASQP_EXCLUDES(mu_);

  const Options options_;
  const ExecuteFn execute_;

  mutable std::mutex mu_;
  std::condition_variable gather_cv_;
  std::condition_variable exec_cv_;
  bool stop_ ASQP_GUARDED_BY(mu_) = false;
  bool flushed_ ASQP_GUARDED_BY(mu_) = false;
  std::map<std::string, Group> gathering_ ASQP_GUARDED_BY(mu_);
  std::deque<std::vector<Ticket>> ready_ ASQP_GUARDED_BY(mu_);
  size_t queued_tickets_ ASQP_GUARDED_BY(mu_) = 0;
  /// Executions in progress, inline and on executors (<= slots_).
  size_t running_ ASQP_GUARDED_BY(mu_) = 0;
  const size_t slots_;
  uint64_t submitted_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t batches_formed_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t batch_members_ ASQP_GUARDED_BY(mu_) = 0;

  std::thread gatherer_;
  std::vector<std::thread> executors_;
};

}  // namespace serve
}  // namespace asqp
