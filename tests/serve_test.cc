// Serving-layer tests: AnswerCache unit behavior (LRU, byte budget,
// generations, collisions), BatchScheduler admission (FIFO order, bounded
// queue, inline runs that never overtake a queued ticket, the shared slot
// cap, shutdown flush) and ServeEngine end-to-end on a trained model
// (cache hits byte-identical to executions, equivalent spellings share an
// entry, FineTune invalidates, shared-pool answers identical at every
// pool size, a batch of one is AsqpModel::Answer).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "plan/stats.h"
#include "serve/answer_cache.h"
#include "serve/batch_scheduler.h"
#include "serve/serve_engine.h"
#include "sql/canonicalize.h"
#include "tests/testing.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"

namespace asqp {
namespace serve {
namespace {

// ---- AnswerCache unit tests -------------------------------------------

core::AnswerResult MakeAnswer(const std::string& tag, size_t rows) {
  exec::ResultSet rs({"tag", "n"});
  for (size_t i = 0; i < rows; ++i) {
    rs.mutable_rows().push_back(
        {storage::Value(tag), storage::Value(static_cast<int64_t>(i))});
  }
  core::AnswerResult result;
  result.result = std::move(rs);
  result.used_approximation = true;
  result.answerability = 0.5;
  return result;
}

sql::QueryFingerprint MakeFp(uint64_t hash, const std::string& canonical) {
  sql::QueryFingerprint fp;
  fp.hash = hash;
  fp.canonical = canonical;
  return fp;
}

TEST(AnswerCacheTest, LookupReturnsInsertedAnswer) {
  AnswerCache cache(1 << 20, /*num_shards=*/2);
  const sql::QueryFingerprint fp = MakeFp(42, "q1");
  EXPECT_EQ(cache.Lookup(fp, 0), nullptr);
  cache.Insert(fp, 0, MakeAnswer("a", 3));
  auto hit = cache.Lookup(fp, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.num_rows(), 3u);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(AnswerCacheTest, StaleGenerationInvalidatesLazily) {
  AnswerCache cache(1 << 20, 1);
  const sql::QueryFingerprint fp = MakeFp(7, "q");
  cache.Insert(fp, /*generation=*/0, MakeAnswer("a", 2));
  // A lookup at a newer generation must miss AND erase the stale entry.
  EXPECT_EQ(cache.Lookup(fp, 1), nullptr);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(AnswerCacheTest, InvalidateOlderThanSweepsEagerly) {
  AnswerCache cache(1 << 20, 4);
  for (uint64_t h = 0; h < 8; ++h) {
    cache.Insert(MakeFp(h, "q" + std::to_string(h)), /*generation=*/0,
                 MakeAnswer("a", 1));
  }
  cache.Insert(MakeFp(100, "fresh"), /*generation=*/1, MakeAnswer("b", 1));
  cache.InvalidateOlderThan(1);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 8u);
  EXPECT_NE(cache.Lookup(MakeFp(100, "fresh"), 1), nullptr);
}

TEST(AnswerCacheTest, HashCollisionWithDifferentCanonicalMisses) {
  AnswerCache cache(1 << 20, 1);
  cache.Insert(MakeFp(5, "canonical-a"), 0, MakeAnswer("a", 1));
  EXPECT_EQ(cache.Lookup(MakeFp(5, "canonical-b"), 0), nullptr);
  EXPECT_EQ(cache.stats().hash_collisions, 1u);
  // The original entry is untouched.
  EXPECT_NE(cache.Lookup(MakeFp(5, "canonical-a"), 0), nullptr);
}

TEST(AnswerCacheTest, EvictsLruUnderByteBudget) {
  const size_t one_bytes = EstimateAnswerBytes(MakeAnswer("x", 4));
  // Room for ~3 entries in a single shard.
  AnswerCache cache(3 * one_bytes + one_bytes / 2, 1);
  cache.Insert(MakeFp(1, "q1"), 0, MakeAnswer("x", 4));
  cache.Insert(MakeFp(2, "q2"), 0, MakeAnswer("x", 4));
  cache.Insert(MakeFp(3, "q3"), 0, MakeAnswer("x", 4));
  // Touch q1 so q2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(MakeFp(1, "q1"), 0), nullptr);
  cache.Insert(MakeFp(4, "q4"), 0, MakeAnswer("x", 4));
  AnswerCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, cache.byte_budget());
  EXPECT_EQ(cache.Lookup(MakeFp(2, "q2"), 0), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(MakeFp(1, "q1"), 0), nullptr);  // kept (recent)
  EXPECT_NE(cache.Lookup(MakeFp(4, "q4"), 0), nullptr);
}

TEST(AnswerCacheTest, OversizedAnswerIsNotCached) {
  AnswerCache cache(256, 1);  // smaller than any realistic answer
  cache.Insert(MakeFp(1, "big"), 0, MakeAnswer("x", 100));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(MakeFp(1, "big"), 0), nullptr);
}

TEST(AnswerCacheTest, ZeroBudgetDisablesCaching) {
  AnswerCache cache(0, 4);
  cache.Insert(MakeFp(1, "q"), 0, MakeAnswer("x", 1));
  EXPECT_EQ(cache.Lookup(MakeFp(1, "q"), 0), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(AnswerCacheTest, ReplaceSameFingerprintKeepsOneEntry) {
  AnswerCache cache(1 << 20, 1);
  cache.Insert(MakeFp(9, "q"), 0, MakeAnswer("old", 1));
  cache.Insert(MakeFp(9, "q"), 0, MakeAnswer("new", 2));
  auto hit = cache.Lookup(MakeFp(9, "q"), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.num_rows(), 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(AnswerCacheTest, ClearDropsEverything) {
  AnswerCache cache(1 << 20, 4);
  for (uint64_t h = 0; h < 6; ++h) {
    cache.Insert(MakeFp(h, "q" + std::to_string(h)), 0, MakeAnswer("x", 1));
  }
  cache.Clear();
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// ---- ServeEngine on a trained model -----------------------------------

// ---- BatchScheduler unit tests ----------------------------------------

/// A ticket named `tag` (carried as its canonical text) in group `group`;
/// `future` receives the ticket's future.
BatchScheduler::Ticket NamedTicket(const std::string& tag,
                                   AnswerFuture* future,
                                   const std::string& group = "t") {
  BatchScheduler::Ticket ticket;
  ticket.fingerprint.canonical = tag;
  ticket.group_key = group;
  *future = ticket.promise.future();
  return ticket;
}

/// An ExecuteFn body: records each ticket's name in execution order and
/// resolves it with an empty answer. A ticket named "hold" blocks until
/// `release` opens, with `holding` raised while it waits.
class ExecutionLog {
 public:
  void LogAndResolve(std::vector<BatchScheduler::Ticket>&& batch) {
    for (BatchScheduler::Ticket& ticket : batch) {
      if (ticket.fingerprint.canonical == "hold") {
        holding_.store(true);
        release_.wait();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        order_.push_back(ticket.fingerprint.canonical);
      }
      ticket.promise.Resolve(core::AnswerResult());
    }
  }
  void AwaitHolding() const {
    while (!holding_.load()) std::this_thread::yield();
  }
  void Release() { open_.set_value(); }
  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> release_ = open_.get_future().share();
  std::atomic<bool> holding_{false};
  std::mutex mu_;
  std::vector<std::string> order_;
};

BatchScheduler::Options ImmediateOptions(size_t executors) {
  BatchScheduler::Options options;
  options.window_seconds = 0.0;
  options.queue_capacity = 8;
  options.executors = executors;
  return options;
}

TEST(BatchSchedulerTest, TicketsAreServedInFifoOrder) {
  ExecutionLog log;
  BatchScheduler scheduler(
      ImmediateOptions(/*executors=*/1),
      [&log](std::vector<BatchScheduler::Ticket>&& batch) {
        log.LogAndResolve(std::move(batch));
      });
  AnswerFuture hold;
  ASSERT_TRUE(scheduler.Submit(NamedTicket("hold", &hold)));
  log.AwaitHolding();
  std::vector<AnswerFuture> queued(4);
  for (size_t i = 0; i < queued.size(); ++i) {
    ASSERT_TRUE(scheduler.Submit(NamedTicket(std::to_string(i), &queued[i])));
  }
  EXPECT_EQ(scheduler.QueueDepth(), 4u);
  log.Release();
  for (AnswerFuture& f : queued) ASSERT_TRUE(f.Get().ok());
  EXPECT_EQ(log.order(),
            (std::vector<std::string>{"hold", "0", "1", "2", "3"}));
}

TEST(BatchSchedulerTest, FullQueueRejectsWithoutResolvingThePromise) {
  BatchScheduler::Options options;
  options.window_seconds = 60.0;  // nothing leaves the queue on its own
  options.queue_capacity = 2;
  ExecutionLog log;
  BatchScheduler scheduler(
      options, [&log](std::vector<BatchScheduler::Ticket>&& batch) {
        log.LogAndResolve(std::move(batch));
      });
  AnswerFuture a;
  AnswerFuture b;
  AnswerFuture c;
  ASSERT_TRUE(scheduler.Submit(NamedTicket("a", &a)));
  ASSERT_TRUE(scheduler.Submit(NamedTicket("b", &b)));
  EXPECT_FALSE(scheduler.Submit(NamedTicket("c", &c)));
  // The caller owns the rejection: the scheduler resolved nothing.
  EXPECT_FALSE(c.Ready());
  EXPECT_EQ(scheduler.QueueDepth(), 2u);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_EQ(scheduler.stats().submitted, 2u);
}

TEST(BatchSchedulerTest, InlineRunNeverOvertakesAQueuedTicket) {
  ExecutionLog log;
  BatchScheduler scheduler(
      ImmediateOptions(/*executors=*/1),
      [&log](std::vector<BatchScheduler::Ticket>&& batch) {
        log.LogAndResolve(std::move(batch));
      });
  std::thread session([&scheduler] {
    AnswerFuture hold;
    BatchScheduler::Ticket first = NamedTicket("hold", &hold);
    // Free slot, empty queue: runs on this thread.
    ASSERT_TRUE(scheduler.TryRunInline(first));
    // The slot was freed a moment ago while "queued" still waits for the
    // executor to wake: the late arrival must queue behind it.
    AnswerFuture late;
    BatchScheduler::Ticket next = NamedTicket("late", &late);
    if (!scheduler.TryRunInline(next)) {
      ASSERT_TRUE(scheduler.Submit(std::move(next)));
    }
    ASSERT_TRUE(late.Get().ok());
  });
  log.AwaitHolding();
  AnswerFuture queued;
  ASSERT_TRUE(scheduler.Submit(NamedTicket("queued", &queued)));
  AnswerFuture busy;
  BatchScheduler::Ticket refused = NamedTicket("busy", &busy);
  EXPECT_FALSE(scheduler.TryRunInline(refused));  // the slot is held
  EXPECT_FALSE(busy.Ready());
  log.Release();
  session.join();
  ASSERT_TRUE(queued.Get().ok());
  EXPECT_EQ(log.order(),
            (std::vector<std::string>{"hold", "queued", "late"}));
}

TEST(BatchSchedulerTest, InlineAndExecutorRunsNeverExceedTheSlotCap) {
  constexpr size_t kSlots = 2;
  constexpr size_t kSessions = 6;
  constexpr size_t kPerSession = 20;
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  BatchScheduler::Options options = ImmediateOptions(kSlots);
  options.queue_capacity = kSessions;
  BatchScheduler scheduler(
      options, [&running, &high_water](
                   std::vector<BatchScheduler::Ticket>&& batch) {
        const int now = running.fetch_add(1) + 1;
        int seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        running.fetch_sub(1);
        for (BatchScheduler::Ticket& t : batch) {
          t.promise.Resolve(core::AnswerResult());
        }
      });
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    // Even sessions call like a synchronous Answer (inline first), odd
    // ones like AnswerAsync (always queued).
    sessions.emplace_back([&scheduler, s] {
      for (size_t i = 0; i < kPerSession; ++i) {
        AnswerFuture future;
        BatchScheduler::Ticket ticket = NamedTicket("q", &future);
        const bool ran = s % 2 == 0 && scheduler.TryRunInline(ticket);
        if (!ran) {
          ASSERT_TRUE(scheduler.Submit(std::move(ticket)));
        }
        ASSERT_TRUE(future.Get().ok());
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  EXPECT_GE(high_water.load(), 1);
  EXPECT_LE(high_water.load(), static_cast<int>(kSlots));
  // Inline runs count as one-ticket batches.
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_formed, kSessions * kPerSession);
  EXPECT_EQ(stats.batch_members, kSessions * kPerSession);
}

TEST(BatchSchedulerTest, DestructorResolvesEveryPromise) {
  BatchScheduler::Options options;
  options.window_seconds = 60.0;  // groups would gather for a minute
  options.queue_capacity = 8;
  std::vector<AnswerFuture> futures(5);
  ExecutionLog log;
  {
    BatchScheduler scheduler(
        options, [&log](std::vector<BatchScheduler::Ticket>&& batch) {
          log.LogAndResolve(std::move(batch));
        });
    for (size_t i = 0; i < futures.size(); ++i) {
      ASSERT_TRUE(scheduler.Submit(NamedTicket(
          std::to_string(i), &futures[i], i % 2 == 0 ? "t" : "p")));
    }
    for (const AnswerFuture& f : futures) EXPECT_FALSE(f.Ready());
  }
  for (const AnswerFuture& f : futures) EXPECT_TRUE(f.Ready());
  EXPECT_EQ(log.order().size(), futures.size());
}

// ---- ServeEngine ------------------------------------------------------

class ServeEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions opts;
    opts.scale = 0.05;
    opts.workload_size = 16;
    opts.seed = 7;
    // Suite fixture: paired with delete in TearDownTestSuite.
    bundle_ = new data::DatasetBundle(data::MakeImdbJob(opts));  // NOLINT(asqp-naked-new)

    // Kept for tests that train their own copy of the suite model (see
    // FineTuneInvalidatesCachedAnswers).
    core::AsqpConfig& config = config_;
    config.k = 300;
    config.frame_size = 25;
    config.num_representatives = 10;
    config.pool_target = 400;
    config.trainer.iterations = 8;
    config.trainer.episodes_per_iteration = 4;
    config.trainer.num_workers = 1;
    config.trainer.learning_rate = 2e-3;
    config.trainer.hidden_dim = 64;
    config.seed = 3;
    core::AsqpTrainer trainer(config);
    auto report = trainer.Train(*bundle_->db, bundle_->workload);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    model_ = std::move(report.value().model);
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete bundle_;  // NOLINT(asqp-naked-new)
    bundle_ = nullptr;
  }

  static ServeOptions SmallServe() {
    ServeOptions options;
    options.max_inflight = 2;
    options.queue_capacity = 8;
    options.pool_threads = 2;
    options.cache_bytes = 4 << 20;
    options.cache_shards = 4;
    return options;
  }

  static std::vector<std::string> Keys(const exec::ResultSet& rs) {
    std::vector<std::string> keys;
    keys.reserve(rs.num_rows());
    for (size_t i = 0; i < rs.num_rows(); ++i) keys.push_back(rs.RowKey(i));
    return keys;
  }

  static data::DatasetBundle* bundle_;
  static core::AsqpConfig config_;
  static std::unique_ptr<core::AsqpModel> model_;
};

data::DatasetBundle* ServeEngineTest::bundle_ = nullptr;
core::AsqpConfig ServeEngineTest::config_;
std::unique_ptr<core::AsqpModel> ServeEngineTest::model_ = nullptr;

const char kQuery[] =
    "SELECT t.name, ci.role FROM title t, cast_info ci "
    "WHERE ci.movie_id = t.id AND t.production_year >= 2000";

TEST_F(ServeEngineTest, RepeatQueryIsServedFromCache) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  EXPECT_FALSE(cold.from_cache);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kQuery));
  EXPECT_TRUE(warm.from_cache);
  // Byte-identical: same column names, same rows in the same order.
  EXPECT_EQ(warm.result.column_names(), cold.result.column_names());
  EXPECT_EQ(Keys(warm.result), Keys(cold.result));
  EXPECT_EQ(warm.used_approximation, cold.used_approximation);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.admitted, 1u);  // the hit never took a slot
}

TEST_F(ServeEngineTest, EquivalentSpellingsShareOneEntry) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult first,
                       engine.AnswerSql(
                           "SELECT t.name, ci.role FROM title t, cast_info ci "
                           "WHERE ci.movie_id = t.id "
                           "AND t.production_year >= 2000"));
  EXPECT_FALSE(first.from_cache);
  // Different aliases, flipped join operands, flipped >= to <=, reordered
  // conjuncts — same query, must hit.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult second,
                       engine.AnswerSql(
                           "SELECT x.name, y.role FROM title x, cast_info y "
                           "WHERE 2000 <= x.production_year "
                           "AND x.id = y.movie_id"));
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(Keys(second.result), Keys(first.result));
  EXPECT_EQ(engine.cache().stats().entries, 1u);
}

TEST_F(ServeEngineTest, BetweenAndPairedInequalitiesShareOneEntry) {
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult first,
                       engine.AnswerSql(
                           "SELECT t.name FROM title t "
                           "WHERE t.production_year BETWEEN 1990 AND 2005"));
  EXPECT_FALSE(first.from_cache);
  // The canonicalizer expands BETWEEN into its conjunct parts, so the
  // paired-inequality spelling lands on the same fingerprint — and the
  // differential suite proves the two spellings execute to identical
  // bytes, so handing one the other's cached answer is sound.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult second,
                       engine.AnswerSql(
                           "SELECT t.name FROM title t "
                           "WHERE t.production_year >= 1990 "
                           "AND t.production_year <= 2005"));
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(Keys(second.result), Keys(first.result));
  EXPECT_EQ(engine.cache().stats().entries, 1u);
}

TEST_F(ServeEngineTest, ZeroCacheBytesAlwaysExecutes) {
  ServeOptions options = SmallServe();
  options.cache_bytes = 0;
  ServeEngine engine(model_.get(), options);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult a, engine.AnswerSql(kQuery));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult b, engine.AnswerSql(kQuery));
  EXPECT_FALSE(a.from_cache);
  EXPECT_FALSE(b.from_cache);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(Keys(a.result), Keys(b.result));
}

TEST_F(ServeEngineTest, AnswersAreIdenticalAcrossPoolSizes) {
  // The acceptance bar: cached answers byte-identical to uncached ones at
  // every thread count. Serve the same query through pools of 1, 2, and 4
  // workers (cold + warm each) and through the bare model; every result
  // must match row-for-row.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult direct,
                       model_->AnswerSql(kQuery));
  const std::vector<std::string> want = Keys(direct.result);
  for (size_t pool_threads : {1u, 2u, 4u}) {
    ServeOptions options = SmallServe();
    options.pool_threads = pool_threads;
    ServeEngine engine(model_.get(), options);
    ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
    ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kQuery));
    EXPECT_FALSE(cold.from_cache);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(Keys(cold.result), want) << "pool_threads=" << pool_threads;
    EXPECT_EQ(Keys(warm.result), want) << "pool_threads=" << pool_threads;
    EXPECT_EQ(cold.result.column_names(), direct.result.column_names());
  }
}

TEST_F(ServeEngineTest, FineTuneInvalidatesCachedAnswers) {
  // FineTune changes the model it runs on, so this test trains its own
  // copy of the suite model: the shared model_ every other test reads then
  // stays the same whatever order the tests run in.
  core::AsqpTrainer trainer(config_);
  ASSERT_OK_AND_ASSIGN(core::TrainReport report,
                       trainer.Train(*bundle_->db, bundle_->workload));
  const std::unique_ptr<core::AsqpModel> model = std::move(report.model);
  ServeEngine engine(model.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult cold, engine.AnswerSql(kQuery));
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kQuery));
  ASSERT_TRUE(warm.from_cache);
  ASSERT_GE(engine.cache().stats().entries, 1u);

  const uint64_t generation_before = model->generation();
  ASSERT_OK_AND_ASSIGN(
      metric::Workload drift,
      metric::Workload::FromSql(
          {"SELECT p.name FROM person p WHERE p.birth_year > 1980",
           "SELECT p.name, p.birth_year FROM person p "
           "WHERE p.birth_year < 1950"}));
  ASSERT_OK(engine.FineTune(drift));
  EXPECT_GT(model->generation(), generation_before);
  // The eager sweep emptied the cache...
  EXPECT_EQ(engine.cache().stats().entries, 0u);
  // ...so the next Answer re-executes against the new approximation set.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult fresh, engine.AnswerSql(kQuery));
  EXPECT_FALSE(fresh.from_cache);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult rewarmed, engine.AnswerSql(kQuery));
  EXPECT_TRUE(rewarmed.from_cache);
  (void)cold;
}

TEST_F(ServeEngineTest, DegradedAnswersAreNotCached) {
  ServeEngine engine(model_.get(), SmallServe());
  // An impossible deadline forces the approximation attempt to degrade to
  // the full-database fallback path; those answers must not be cached.
  util::ExecContext context;
  context.set_deadline(util::Deadline::AfterSeconds(0.0));
  auto result = engine.AnswerSql(kQuery, context);
  if (result.ok() && result.value().fell_back) {
    EXPECT_EQ(engine.cache().stats().entries, 0u);
  }
  // Either way the expired context must not have poisoned the cache with
  // a partial answer: a follow-up unlimited query is a cold execution.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult after, engine.AnswerSql(kQuery));
  EXPECT_FALSE(after.from_cache);
}

TEST_F(ServeEngineTest, DeadOnArrivalRequestsNeverTakeAnAdmissionSlot) {
  ServeEngine engine(model_.get(), SmallServe());
  // Already-expired deadline: turned away with a typed error before
  // binding, caching, or admission are even consulted.
  util::ExecContext expired;
  expired.set_deadline(util::Deadline::AfterSeconds(0.0));
  util::Result<core::AnswerResult> late = engine.AnswerSql(kQuery, expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded);

  // Already-cancelled: same fast path, typed kCancelled.
  util::ExecContext cancelled;
  cancelled.RequestCancel();
  util::Result<core::AnswerResult> gone =
      engine.AnswerSql(kQuery, cancelled);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), util::StatusCode::kCancelled);

  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.expired_fast_path, 2u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(engine.cache().stats().entries, 0u);

  // The engine is unharmed: a live request still executes normally.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult healthy, engine.AnswerSql(kQuery));
  EXPECT_FALSE(healthy.from_cache);
  EXPECT_EQ(engine.stats().admitted, 1u);
}

// ---- Batched / async serving ------------------------------------------

// Queries over one table with distinct predicates: the batch shares a
// single scan pass while each member keeps its own filter results.
const char kTitleRecent[] =
    "SELECT t.name FROM title t WHERE t.production_year >= 2000";
const char kTitleOld[] =
    "SELECT t.name FROM title t WHERE t.production_year < 1960";
const char kPersonQuery[] =
    "SELECT p.name FROM person p WHERE p.birth_year > 1970";

TEST_F(ServeEngineTest, BatchedAnswersAreByteIdenticalToUnbatched) {
  const std::vector<std::string> sqls = {kQuery, kTitleRecent, kTitleOld,
                                         kPersonQuery};
  // Unbatched reference answers first (one engine at a time: each engine
  // re-routes the model's execution pool through itself).
  std::vector<std::vector<std::string>> want;
  std::vector<std::vector<std::string>> want_columns;
  {
    ServeEngine plain(model_.get(), SmallServe());
    for (const std::string& sql : sqls) {
      ASSERT_OK_AND_ASSIGN(core::AnswerResult r, plain.AnswerSql(sql));
      want.push_back(Keys(r.result));
      want_columns.push_back(r.result.column_names());
    }
  }
  ServeOptions options = SmallServe();
  options.batch_window_ms = 5.0;
  options.batch_max_queries = 4;
  ServeEngine batched(model_.get(), options);
  std::vector<AnswerFuture> futures;
  futures.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    futures.push_back(batched.AnswerSqlAsync(sql));
  }
  for (size_t i = 0; i < sqls.size(); ++i) {
    util::Result<core::AnswerResult> got = futures[i].Get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Keys(got.value().result), want[i]) << sqls[i];
    EXPECT_EQ(got.value().result.column_names(), want_columns[i]);
  }
  ServeEngine::Stats stats = batched.stats();
  EXPECT_EQ(stats.served, sqls.size());
  EXPECT_GE(stats.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members, sqls.size());
}

TEST_F(ServeEngineTest, SameTablePredicatesShareOneBatchAndOneScan) {
  // The shared pass runs over the approximation set, so both members must
  // take tier 0. Threshold 0 pins that; the suite model's own answerability
  // estimate for these two statements is not what this test is about.
  core::AsqpConfig& config = model_->mutable_config();
  const double saved_threshold = config.answerable_threshold;
  config.answerable_threshold = 0.0;
  ServeOptions options = SmallServe();
  // max_batch = 2 closes the group the instant the second same-table
  // query arrives — the test never depends on window timing.
  options.batch_window_ms = 200.0;
  options.batch_max_queries = 2;
  ServeEngine engine(model_.get(), options);
  AnswerFuture a = engine.AnswerSqlAsync(kTitleRecent);
  AnswerFuture b = engine.AnswerSqlAsync(kTitleOld);
  util::Result<core::AnswerResult> ra = a.Get();
  util::Result<core::AnswerResult> rb = b.Get();
  config.answerable_threshold = saved_threshold;
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members, 2u);
  // Two members over one table: the shared pass saved one scan.
  EXPECT_GE(stats.shared_scan_saved, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(ServeEngineTest, EquivalentSpellingsDeduplicateWithinABatch) {
  ServeOptions options = SmallServe();
  options.batch_window_ms = 200.0;
  options.batch_max_queries = 2;
  ServeEngine engine(model_.get(), options);
  // Same query in two spellings (flipped inequality): one execution
  // serves both members.
  AnswerFuture a = engine.AnswerSqlAsync(
      "SELECT t.name FROM title t WHERE t.production_year >= 2000");
  AnswerFuture b = engine.AnswerSqlAsync(
      "SELECT t.name FROM title t WHERE 2000 <= t.production_year");
  util::Result<core::AnswerResult> ra = a.Get();
  util::Result<core::AnswerResult> rb = b.Get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(Keys(ra.value().result), Keys(rb.value().result));
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batch_members, 2u);
  EXPECT_EQ(stats.admitted, 1u);  // one representative executed
  EXPECT_GE(stats.shared_scan_saved, 1u);
  EXPECT_EQ(engine.cache().stats().entries, 1u);
}

TEST_F(ServeEngineTest, DisjointTableQueriesNeverShareABatch) {
  ServeOptions options = SmallServe();
  // Window far longer than the test: if disjoint-table queries gathered
  // into one group, the title pair below could not close its batch at
  // max_batch=2 and the waits would stall for the full window.
  options.batch_window_ms = 10000.0;
  options.batch_max_queries = 2;
  ServeEngine engine(model_.get(), options);
  AnswerFuture t1 = engine.AnswerSqlAsync(kTitleRecent);
  AnswerFuture p1 = engine.AnswerSqlAsync(kPersonQuery);
  AnswerFuture t2 = engine.AnswerSqlAsync(kTitleOld);
  AnswerFuture p2 = engine.AnswerSqlAsync(
      "SELECT p.name FROM person p WHERE p.birth_year < 1940");
  for (AnswerFuture* f : {&t1, &p1, &t2, &p2}) {
    util::Result<core::AnswerResult> r = f->Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ServeEngine::Stats stats = engine.stats();
  // Two groups (title, person), each closed by its own second member.
  EXPECT_EQ(stats.batches_formed, 2u);
  EXPECT_EQ(stats.batch_members, 4u);
}

TEST_F(ServeEngineTest, CompletionQueueMultiplexesManySessions) {
  // Zero window (the default): immediate per-query batches.
  ServeEngine engine(model_.get(), SmallServe());
  const std::vector<std::string> sqls = {kTitleRecent, kTitleOld,
                                         kPersonQuery, kQuery};
  CompletionQueue queue;
  for (size_t i = 0; i < sqls.size(); ++i) {
    queue.Track(engine.AnswerSqlAsync(sqls[i]), i);
  }
  std::vector<bool> seen(sqls.size(), false);
  size_t delivered = 0;
  while (auto done = queue.Next()) {
    ASSERT_LT(done->tag, seen.size());
    EXPECT_FALSE(seen[done->tag]) << "duplicate delivery";
    seen[done->tag] = true;
    ASSERT_TRUE(done->result.ok()) << done->result.status().ToString();
    ++delivered;
  }
  EXPECT_EQ(delivered, sqls.size());
  EXPECT_EQ(queue.pending(), 0u);
}

TEST_F(ServeEngineTest, SyncAnswerRidesTheBatchedPathWhenSchedulerIsOn) {
  std::vector<std::string> want;
  {
    ServeEngine plain(model_.get(), SmallServe());
    ASSERT_OK_AND_ASSIGN(core::AnswerResult r, plain.AnswerSql(kTitleRecent));
    want = Keys(r.result);
  }
  ServeEngine engine(model_.get(), SmallServe());
  ASSERT_OK_AND_ASSIGN(core::AnswerResult got, engine.AnswerSql(kTitleRecent));
  EXPECT_EQ(Keys(got.result), want);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batch_members, 1u);  // the sync call became a ticket
  // And the batched execution filled the answer cache as usual.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult warm, engine.AnswerSql(kTitleRecent));
  EXPECT_TRUE(warm.from_cache);
}

TEST_F(ServeEngineTest, AsyncFastPathRejectsDeadRequestsWithoutATicket) {
  ServeEngine engine(model_.get(), SmallServe());
  util::ExecContext expired;
  expired.set_deadline(util::Deadline::AfterSeconds(0.0));
  AnswerFuture late = engine.AnswerSqlAsync(kTitleRecent, expired);
  ASSERT_TRUE(late.Ready());  // resolved before return, no ticket queued
  util::Result<core::AnswerResult> r = late.Get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.expired_fast_path, 1u);
  EXPECT_EQ(stats.batch_members, 0u);
}

// A synchronous caller queued behind a busy slot is checked when its batch
// is picked up: expired or cancelled while queued, it is shed to the
// learned tier or gets a typed kDegraded — never a raw timeout.
TEST_F(ServeEngineTest, InlineSlotQueuedSyncCallerIsShedOnExpiryOrCancel) {
  // The slot holder: a synchronous join whose every tier-0 attempt fails
  // transiently, so each of its retries sleeps a backoff (>= 25 ms each)
  // while it holds the only execution slot.
  core::AsqpConfig& config = model_->mutable_config();
  const core::AsqpConfig saved = config;
  config.answerable_threshold = 0.0;  // every query takes tier 0
  config.fallback_retry_attempts = 10;
  config.fallback_retry_backoff_seconds = 0.05;
  util::FaultInjector::Global().Reset();
  util::FaultInjector::Global().Arm("exec.join.alloc", /*count=*/-1);

  ServeOptions options = SmallServe();
  options.max_inflight = 1;
  options.cache_bytes = 0;
  {
    ServeEngine engine(model_.get(), options);
    std::thread holder([&engine] {
      util::Result<core::AnswerResult> held = engine.AnswerSql(kQuery);
      if (!held.ok()) {
        EXPECT_EQ(held.status().code(), util::StatusCode::kDegraded)
            << held.status().ToString();
      }
    });
    while (engine.stats().admitted == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const char kAggregate[] =
        "SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000";
    util::Result<core::AnswerResult> expired =
        util::Status::Internal("unset");
    util::Result<core::AnswerResult> cancelled =
        util::Status::Internal("unset");
    util::ExecContext cancel_context;
    cancel_context.EnableCancellation();
    std::thread expiring([&engine, &expired, kAggregate] {
      // Alive on arrival, long dead once the holder lets go.
      expired =
          engine.AnswerSql(kAggregate, util::ExecContext::WithDeadline(0.1));
    });
    std::thread cancelling([&engine, &cancelled, &cancel_context, kAggregate] {
      cancelled = engine.AnswerSql(kAggregate, cancel_context);
    });
    while (engine.stats().queue_depth < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cancel_context.RequestCancel();
    holder.join();
    expiring.join();
    cancelling.join();

    const std::pair<util::Result<core::AnswerResult>*, const char*> cases[] =
        {{&expired, "shed:admission_deadline"}, {&cancelled, "shed:cancelled"}};
    for (const auto& [result, reason] : cases) {
      if (result->ok()) {
        EXPECT_EQ(result->value().fallback_reason, reason);
        EXPECT_EQ(result->value().tier, core::AnswerTier::kLearned);
      } else {
        EXPECT_EQ(result->status().code(), util::StatusCode::kDegraded)
            << reason << ": " << result->status().ToString();
      }
    }
    EXPECT_EQ(engine.stats().admission_expired, 2u);
  }
  util::FaultInjector::Global().Reset();
  config = saved;
  model_->circuit_breaker().RecordSuccess();
}

// With a zero window every ServeEngine::Answer is a one-ticket batch, and a
// batch of one is AsqpModel::Answer by construction: same rows, columns,
// tier and routing — for the solo index range scan over the approximation
// set and for queries below the answerability threshold — and no
// serve.batch fault point.
TEST_F(ServeEngineTest, BatchOfOneIsModelAnswer) {
  const std::vector<std::string> sqls = {
      "SELECT t.name FROM title t WHERE t.production_year = 2010",
      "SELECT p.name FROM person p WHERE p.birth_year > 1970", kQuery};

  // The first query plans an index range scan over the approximation set.
  exec::ExecOptions explain_options;
  explain_options.planner_stats = std::make_shared<const plan::StatsCatalog>(
      plan::StatsCatalog::Collect(*bundle_->db));
  explain_options.index_catalog = model_->index_catalog();
  const storage::DatabaseView set_view(bundle_->db.get(),
                                       &model_->approximation_set());
  ASSERT_OK_AND_ASSIGN(
      const std::string plan,
      exec::QueryEngine(explain_options).ExplainSql(sqls[0], set_view));
  EXPECT_NE(plan.find("IndexRangeScan"), std::string::npos) << plan;

  // Threshold 0 routes every query to the approximation set; above 1 every
  // query is below the threshold and goes to the full database.
  core::AsqpConfig& config = model_->mutable_config();
  const double saved_threshold = config.answerable_threshold;
  util::FaultInjector::Global().Reset();
  util::FaultInjector::Global().Arm("serve.batch", /*count=*/-1);
  for (const double threshold : {0.0, 1.01}) {
    config.answerable_threshold = threshold;
    std::vector<core::AnswerResult> want;
    for (const std::string& sql : sqls) {
      ASSERT_OK_AND_ASSIGN(core::AnswerResult direct, model_->AnswerSql(sql));
      EXPECT_EQ(direct.used_approximation, threshold == 0.0) << sql;
      want.push_back(std::move(direct));
    }
    ServeOptions options = SmallServe();
    options.cache_bytes = 0;
    ServeEngine engine(model_.get(), options);
    for (size_t i = 0; i < sqls.size(); ++i) {
      util::Result<core::AnswerResult> got = engine.AnswerSql(sqls[i]);
      ASSERT_TRUE(got.ok()) << sqls[i] << ": " << got.status().ToString();
      EXPECT_EQ(Keys(got.value().result), Keys(want[i].result)) << sqls[i];
      EXPECT_EQ(got.value().result.column_names(),
                want[i].result.column_names());
      EXPECT_EQ(got.value().tier, want[i].tier) << sqls[i];
      EXPECT_EQ(got.value().used_approximation, want[i].used_approximation);
    }
    const ServeEngine::Stats stats = engine.stats();
    EXPECT_EQ(stats.batches_formed, sqls.size());
    EXPECT_EQ(stats.batch_members, sqls.size());
    EXPECT_EQ(stats.batch_solo, 0u);
  }
  EXPECT_EQ(util::FaultInjector::Global().fire_count("serve.batch"), 0);
  util::FaultInjector::Global().Reset();
  config.answerable_threshold = saved_threshold;
}

}  // namespace
}  // namespace serve
}  // namespace asqp
