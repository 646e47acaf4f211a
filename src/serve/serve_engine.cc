#include "serve/serve_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sql/binder.h"
#include "sql/parser.h"

namespace asqp {
namespace serve {

ServeEngine::ServeEngine(core::AsqpModel* model, ServeOptions options)
    : model_(model),
      options_(options),
      pool_(std::make_shared<util::ThreadPool>(
          std::max<size_t>(1, options.pool_threads))),
      cache_(options.cache_bytes,
             std::max<size_t>(1, options.cache_shards)) {
  model_->SetExecutionPool(pool_);
  BatchScheduler::Options sched;
  sched.window_seconds = std::max(0.0, options_.batch_window_ms) / 1000.0;
  sched.max_batch = std::max<size_t>(1, options_.batch_max_queries);
  sched.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  sched.executors = std::max<size_t>(1, options_.max_inflight);
  scheduler_ = std::make_unique<BatchScheduler>(
      sched, [this](std::vector<BatchScheduler::Ticket>&& batch) {
        ExecuteBatch(std::move(batch));
      });
}

ServeEngine::~ServeEngine() {
  // Stop intake and flush every pending batch while the model and pool
  // are still alive (the scheduler's destructor executes them), then
  // detach the model from the pool we are about to destroy: the model
  // outlives the engine and must not execute on a dead pool.
  scheduler_.reset();
  model_->SetExecutionPool(nullptr);
}

util::Result<core::AnswerResult> ServeEngine::Answer(
    const sql::SelectStatement& stmt, const util::ExecContext& context) {
  AnswerPromise promise;
  AnswerFuture future = promise.future();
  std::optional<BatchScheduler::Ticket> ticket =
      MakeTicket(stmt, context, promise);
  // Inline first: with a zero window, a free slot and an empty queue the
  // one-ticket batch runs on this thread, skipping the executor handoff.
  if (ticket.has_value() && !scheduler_->TryRunInline(*ticket) &&
      !scheduler_->Submit(std::move(*ticket))) {
    RejectQueueFull(stmt, promise);
  }
  // Take(), not Get(): this future has exactly one consumer, so the
  // resolved answer moves out without a row-set copy.
  return future.Take();
}

util::Result<core::AnswerResult> ServeEngine::AnswerSql(
    const std::string& sql, const util::ExecContext& context) {
  ASQP_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(sql));
  return Answer(stmt, context);
}

AnswerFuture ServeEngine::AnswerAsync(const sql::SelectStatement& stmt,
                                      const util::ExecContext& context) {
  AnswerPromise promise;
  AnswerFuture future = promise.future();
  std::optional<BatchScheduler::Ticket> ticket =
      MakeTicket(stmt, context, promise);
  if (ticket.has_value() && !scheduler_->Submit(std::move(*ticket))) {
    RejectQueueFull(stmt, promise);
  }
  return future;
}

AnswerFuture ServeEngine::AnswerSqlAsync(const std::string& sql,
                                         const util::ExecContext& context) {
  util::Result<sql::SelectStatement> stmt = sql::Parse(sql);
  if (!stmt.ok()) {
    AnswerPromise promise;
    promise.Resolve(stmt.status());
    return promise.future();
  }
  return AnswerAsync(stmt.value(), context);
}

std::optional<BatchScheduler::Ticket> ServeEngine::MakeTicket(
    const sql::SelectStatement& stmt, const util::ExecContext& context,
    const AnswerPromise& promise) {
  // Load-shedding fast path: a request that is already dead on arrival
  // never costs a ticket or an execution slot. Raw deadline /
  // cancellation reads here, never ExecContext::Check() — the latter
  // fires the exec.deadline fault point and would turn away healthy
  // clients under chaos testing.
  if (context.IsCancelled()) {
    expired_fast_path_.fetch_add(1, std::memory_order_relaxed);
    promise.Resolve(util::Status::Cancelled(
        "serve: request already cancelled on arrival"));
    return std::nullopt;
  }
  if (context.deadline().Expired()) {
    expired_fast_path_.fetch_add(1, std::memory_order_relaxed);
    promise.Resolve(util::Status::DeadlineExceeded(
        "serve: deadline already expired on arrival"));
    return std::nullopt;
  }

  // Reader scope: binding and the cache probe read the model (database
  // schema, generation), so they must see a stable model — a concurrent
  // FineTune may otherwise swap the policy or bump the generation
  // mid-fingerprint. Released before the ticket runs or queues: queued
  // tickets must not hold a reader lock or FineTune's writer acquisition
  // would deadlock against a full queue.
  std::shared_lock<std::shared_mutex> reader(model_mu_);
  // Fingerprint the *bound* statement so table aliases normalize away.
  // Binding is cheap (name resolution only) relative to execution, and a
  // failed bind short-circuits before any ticket exists.
  util::Result<sql::BoundQuery> bound = sql::Bind(stmt, *model_->database());
  if (!bound.ok()) {
    promise.Resolve(bound.status());
    return std::nullopt;
  }
  sql::QueryFingerprint fingerprint = sql::FingerprintQuery(bound.value().stmt);
  if (std::optional<core::AnswerResult> hit =
          CacheHit(fingerprint, model_->generation())) {
    Resolve(promise, std::move(*hit));
    return std::nullopt;
  }
  // Group key: sorted, deduplicated bound table names — queries over the
  // same table set gather into one shared-scan batch regardless of the
  // order tables appear in the FROM list.
  std::vector<std::string> names;
  names.reserve(bound.value().tables.size());
  for (const auto& table : bound.value().tables) {
    names.push_back(table->name());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::string group_key;
  for (const std::string& name : names) {
    if (!group_key.empty()) group_key += ',';
    group_key += name;
  }
  return BatchScheduler::Ticket{stmt.Clone(), context, std::move(fingerprint),
                                std::move(group_key), promise};
}

void ServeEngine::RejectQueueFull(const sql::SelectStatement& stmt,
                                  const AnswerPromise& promise) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> reader(model_mu_);
  Resolve(promise,
          ShedToLearned(*model_, stmt, "shed:queue_full",
                        util::Status::ResourceExhausted(
                            "serve: ticket queue is full")));
}

void ServeEngine::ExecuteBatch(std::vector<BatchScheduler::Ticket>&& tickets) {
  // Reader lock for the whole batch: FineTune's writer waits for at most
  // one in-flight batch per execution slot.
  std::shared_lock<std::shared_mutex> reader(model_mu_);
  const uint64_t generation = model_->generation();

  // Triage each ticket: expired/cancelled while queued (shed — a queued
  // ticket's deadline is checked here, when its batch is picked up),
  // answered by the cache since it was submitted, or deduplicated onto a
  // canonically-equivalent peer in the same batch. Survivors become batch
  // representatives.
  struct Representative {
    size_t ticket = 0;
    std::vector<size_t> duplicates;
  };
  std::vector<Representative> reps;
  std::map<std::string, size_t> by_canonical;
  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchScheduler::Ticket& ticket = tickets[i];
    const bool cancelled = ticket.context.IsCancelled();
    if (cancelled || ticket.context.deadline().Expired()) {
      admission_expired_.fetch_add(1, std::memory_order_relaxed);
      Resolve(ticket.promise,
              ShedToLearned(*model_, ticket.stmt,
                            cancelled ? "shed:cancelled"
                                      : "shed:admission_deadline",
                            util::Status::Degraded(
                                "admission budget exhausted while queued "
                                "and the learned tier cannot answer")));
      continue;
    }
    if (std::optional<core::AnswerResult> hit =
            CacheHit(ticket.fingerprint, generation)) {
      Resolve(ticket.promise, std::move(*hit));
      continue;
    }
    const auto ins =
        by_canonical.emplace(ticket.fingerprint.canonical, reps.size());
    if (ins.second) {
      reps.push_back(Representative{i, {}});
    } else {
      // Canonically equivalent to an earlier member: same canonical text
      // implies byte-identical results, so one execution serves both.
      reps[ins.first->second].duplicates.push_back(i);
      shared_scan_saved_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (reps.empty()) return;
  admitted_.fetch_add(reps.size(), std::memory_order_relaxed);

  std::vector<core::AsqpModel::BatchQuery> queries;
  queries.reserve(reps.size());
  for (const Representative& rep : reps) {
    const BatchScheduler::Ticket& t = tickets[rep.ticket];
    queries.push_back(core::AsqpModel::BatchQuery{&t.stmt, t.context,
                                                  &t.fingerprint.canonical});
  }
  core::AsqpModel::BatchStats bstats;
  std::vector<util::Result<core::AnswerResult>> answers =
      model_->AnswerBatch(queries, &plan_cache_, &bstats);
  shared_scan_saved_.fetch_add(bstats.scans_saved, std::memory_order_relaxed);
  batch_solo_.fetch_add(bstats.solo, std::memory_order_relaxed);

  // Per-representative tail. A member that failed degrades alone; its
  // peers' results are already computed and resolve normally.
  for (size_t r = 0; r < reps.size(); ++r) {
    const Representative& rep = reps[r];
    BatchScheduler::Ticket& ticket = tickets[rep.ticket];
    util::Result<core::AnswerResult> outcome = std::move(answers[r]);
    if (!outcome.ok()) {
      const util::Status failure = outcome.status();
      if (failure.code() == util::StatusCode::kDeadlineExceeded ||
          failure.code() == util::StatusCode::kCancelled) {
        // Belt and suspenders: the ladder degrades deadline/cancellation
        // failures itself, but one racing the ladder's tier boundaries
        // can still leak — convert it so a client never sees a raw
        // timeout.
        outcome = ShedToLearned(
            *model_, ticket.stmt,
            "shed:" + core::FallbackReasonFromStatus(failure),
            util::Status::Degraded("no tier could answer within the budget: " +
                                   failure.ToString()));
      } else if (failure.code() == util::StatusCode::kDegraded) {
        degraded_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (!outcome.value().fell_back) {
      // Degraded (fell-back) answers are not cached: a retry without
      // pressure may serve the better approximation-set answer.
      cache_.Insert(ticket.fingerprint, generation, outcome.value());
    }
    for (size_t dup : rep.duplicates) {
      Resolve(tickets[dup].promise, outcome);
    }
    Resolve(ticket.promise, std::move(outcome));
  }
}

util::Result<core::AnswerResult> ServeEngine::ShedToLearned(
    const core::AsqpModel& model, const sql::SelectStatement& stmt,
    std::string reason, util::Status failure) {
  if (options_.shed_to_learned) {
    util::Result<core::AnswerResult> shed = model.TryLearnedAnswer(stmt);
    if (shed.ok()) {
      shed.value().fallback_reason = std::move(reason);
      shed_learned_.fetch_add(1, std::memory_order_relaxed);
      return shed;
    }
  }
  if (failure.code() == util::StatusCode::kDegraded) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  return failure;
}

std::optional<core::AnswerResult> ServeEngine::CacheHit(
    const sql::QueryFingerprint& fp, uint64_t generation) {
  std::shared_ptr<const core::AnswerResult> hit =
      cache_.Lookup(fp, generation);
  if (hit == nullptr) return std::nullopt;
  core::AnswerResult result = *hit;
  result.from_cache = true;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void ServeEngine::Resolve(const AnswerPromise& promise,
                          util::Result<core::AnswerResult> result) {
  if (result.ok()) served_.fetch_add(1, std::memory_order_relaxed);
  promise.Resolve(std::move(result));
}

util::Status ServeEngine::FineTune(const metric::Workload& new_queries) {
  std::unique_lock<std::shared_mutex> writer(model_mu_);
  ASQP_RETURN_NOT_OK(model_->FineTune(new_queries));
  // Lazy per-lookup invalidation already guarantees correctness; the
  // eager sweep frees the stale entries' bytes immediately. Cached plans
  // bind against the old approximation set, so drop them all.
  cache_.InvalidateOlderThan(model_->generation());
  plan_cache_.Clear();
  return util::Status::OK();
}

}  // namespace serve
}  // namespace asqp
