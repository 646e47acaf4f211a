#include <gtest/gtest.h>

#include "core/config.h"
#include "core/preprocess.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "metric/score.h"
#include "sql/parser.h"
#include "tests/testing.h"

namespace asqp {
namespace core {
namespace {

/// Small IMDB bundle shared across the core tests (built once: the full
/// pipeline is the expensive part we are testing).
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions opts;
    opts.scale = 0.05;  // ~1000 titles, ~3000 cast rows
    opts.workload_size = 24;
    opts.seed = 7;
    // Suite fixture: paired with delete in TearDownTestSuite.
    bundle_ = new data::DatasetBundle(data::MakeImdbJob(opts));  // NOLINT(asqp-naked-new)
  }
  static void TearDownTestSuite() {
    delete bundle_;  // NOLINT(asqp-naked-new)
    bundle_ = nullptr;
  }

  static AsqpConfig SmallConfig() {
    AsqpConfig config;
    config.k = 300;
    config.frame_size = 25;
    config.num_representatives = 10;
    config.pool_target = 400;
    config.max_tuples_per_rep = 1500;
    config.trainer.iterations = 12;
    config.trainer.episodes_per_iteration = 4;
    config.trainer.num_workers = 1;
    config.trainer.learning_rate = 2e-3;
    config.trainer.hidden_dim = 64;
    config.seed = 3;
    return config;
  }

  static data::DatasetBundle* bundle_;
};

data::DatasetBundle* CoreTest::bundle_ = nullptr;

TEST_F(CoreTest, PreprocessBuildsConsistentActionSpace) {
  ASSERT_OK_AND_ASSIGN(
      PreprocessResult pre,
      Preprocess(*bundle_->db, bundle_->workload, SmallConfig()));
  const rl::ActionSpace& space = pre.space;
  ASSERT_GT(space.num_actions(), 0u);
  ASSERT_GT(space.num_queries, 0u);
  // Pool = target + per-query coverage reservations (up to 3F each).
  EXPECT_LE(space.pool.size(),
            SmallConfig().pool_target +
                space.num_queries * 3 * SmallConfig().frame_size);
  EXPECT_EQ(space.budget, SmallConfig().k);
  EXPECT_EQ(space.contribution.size(),
            space.num_actions() * space.num_queries);
  EXPECT_EQ(pre.representatives.size(), pre.representative_embeddings.size());
  EXPECT_GE(pre.representatives_executed, 1u);

  // Costs are positive and match the distinct base tuples of each action.
  for (size_t a = 0; a < space.num_actions(); ++a) {
    EXPECT_GT(space.action_cost[a], 0u);
    EXPECT_LE(space.action_tuples[a].size(), SmallConfig().action_group_size);
  }
  // Targets within [1, F]; weights normalized.
  double weight_sum = 0.0;
  for (size_t q = 0; q < space.num_queries; ++q) {
    EXPECT_GE(space.query_target[q], 1.0f);
    EXPECT_LE(space.query_target[q], 25.0f);
    weight_sum += space.query_weight[q];
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-5);
  // Some action must contribute to some query (the pool came from the
  // representatives' own results).
  float total_contribution = 0.0f;
  for (float c : space.contribution) total_contribution += c;
  EXPECT_GT(total_contribution, 0.0f);
}

TEST_F(CoreTest, TrainedModelBeatsRandomSubset) {
  AsqpTrainer trainer(SmallConfig());
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       trainer.Train(*bundle_->db, bundle_->workload));
  ASSERT_NE(report.model, nullptr);
  const storage::ApproximationSet& set = report.model->approximation_set();
  EXPECT_GT(set.TotalTuples(), 0u);
  EXPECT_LE(set.TotalTuples(), SmallConfig().k);

  metric::ScoreEvaluator evaluator(
      bundle_->db.get(), metric::ScoreOptions{.frame_size = 25});
  ASSERT_OK_AND_ASSIGN(const double asqp_score,
                       evaluator.Score(bundle_->workload, set));

  // Random subset of the same size.
  util::Rng rng(11);
  storage::ApproximationSet random_set;
  {
    std::vector<std::pair<std::string, size_t>> all;
    for (const auto& name : bundle_->db->TableNames()) {
      auto t = bundle_->db->GetTable(name).value();
      for (size_t r = 0; r < t->num_rows(); ++r) all.emplace_back(name, r);
    }
    for (size_t i : rng.SampleIndices(all.size(), set.TotalTuples())) {
      random_set.Add(all[i].first, static_cast<uint32_t>(all[i].second));
    }
    random_set.Seal();
  }
  ASSERT_OK_AND_ASSIGN(const double random_score,
                       evaluator.Score(bundle_->workload, random_set));

  EXPECT_GT(asqp_score, random_score);
  EXPECT_GT(asqp_score, 0.2);
}

TEST_F(CoreTest, GenerateApproximationSetHonorsRequestedSize) {
  AsqpTrainer trainer(SmallConfig());
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       trainer.Train(*bundle_->db, bundle_->workload));
  const storage::ApproximationSet small =
      report.model->GenerateApproximationSet(50);
  EXPECT_GT(small.TotalTuples(), 0u);
  // One action group may overshoot by at most one group's base tuples.
  EXPECT_LE(small.TotalTuples(), 50u + 4u * 5u);
}

TEST_F(CoreTest, EstimatorSeparatesSeenFromUnseen) {
  AsqpTrainer trainer(SmallConfig());
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       trainer.Train(*bundle_->db, bundle_->workload));
  AsqpModel& model = *report.model;

  // Training-like queries: the representatives themselves. Individual
  // coverage varies, so compare the best-estimated representative.
  double seen = 0.0;
  for (size_t i = 0; i < model.representatives().size(); ++i) {
    seen = std::max(
        seen, model.EstimateAnswerability(model.representatives().query(i).stmt));
  }

  // A query structurally foreign to the workload: the generator only joins
  // along FK edges, and company-person has none.
  ASSERT_OK_AND_ASSIGN(
      auto unseen_stmt,
      sql::Parse("SELECT c.name, p.name FROM company c, person p WHERE "
                 "c.country = 'nowhere' AND p.name LIKE 'zzz%'"));
  const double unseen = model.EstimateAnswerability(unseen_stmt);
  EXPECT_GT(seen, unseen);
}

/// Calibration reuses pre-processing's |q(T)| counts and runs only the
/// set side; the estimator must still equal one rebuilt from scratch out
/// of ScoreEvaluator::QueryScore coverages of the same representatives.
TEST_F(CoreTest, CalibratedEstimatorMatchesScoreEvaluatorCoverage) {
  util::Rng rng(17);
  auto [train, held_out] = bundle_->workload.TrainTestSplit(0.7, &rng);
  const AsqpConfig config = SmallConfig();
  AsqpTrainer trainer(config);
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       trainer.Train(*bundle_->db, train));
  const AsqpModel& model = *report.model;

  const embed::QueryEmbedder embedder(config.embed_dim);
  metric::ScoreEvaluator evaluator(
      bundle_->db.get(),
      metric::ScoreOptions{.frame_size = config.frame_size});
  std::vector<embed::Vector> embeddings;
  std::vector<double> coverage;
  for (const metric::WeightedQuery& rep : model.representatives().queries()) {
    embeddings.push_back(embedder.Embed(rep.stmt));
    auto score = evaluator.QueryScore(rep.stmt, model.approximation_set());
    coverage.push_back(score.ok() ? score.value() : 0.0);
  }
  const AnswerabilityEstimator rebuilt(embedder, std::move(embeddings),
                                       std::move(coverage));
  for (const metric::Workload* queries : {&train, &held_out}) {
    for (const metric::WeightedQuery& q : queries->queries()) {
      EXPECT_EQ(model.estimator().Estimate(q.stmt), rebuilt.Estimate(q.stmt))
          << q.stmt.ToSql();
    }
  }
}

TEST_F(CoreTest, AnswerRoutesThroughMediator) {
  AsqpTrainer trainer(SmallConfig());
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       trainer.Train(*bundle_->db, bundle_->workload));
  AsqpModel& model = *report.model;

  // Answer every workload query; used_approximation must agree with the
  // threshold rule, and approximate answers must be subsets of the truth.
  exec::QueryEngine engine;
  storage::DatabaseView full(bundle_->db.get());
  size_t approximated = 0;
  for (const auto& q : bundle_->workload.queries()) {
    ASSERT_OK_AND_ASSIGN(AnswerResult answer, model.Answer(q.stmt));
    EXPECT_EQ(answer.used_approximation,
              answer.answerability >= model.config().answerable_threshold);
    if (answer.used_approximation) {
      ++approximated;
      auto bound = sql::Bind(q.stmt, *bundle_->db);
      ASSERT_TRUE(bound.ok());
      auto truth = engine.Execute(bound.value(), full);
      ASSERT_TRUE(truth.ok());
      auto truth_keys = truth.value().RowKeySet();
      // LIMIT-less SPJ: approximate rows are a subset of the exact rows.
      if (q.stmt.limit < 0) {
        for (size_t r = 0; r < answer.result.num_rows(); ++r) {
          EXPECT_TRUE(truth_keys.count(answer.result.RowKey(r)));
        }
      }
    }
  }
  EXPECT_GT(approximated, 0u);
}

TEST_F(CoreTest, DriftDetectionAndFineTuning) {
  AsqpConfig config = SmallConfig();
  config.trainer.iterations = 6;
  AsqpTrainer trainer(config);
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       trainer.Train(*bundle_->db, bundle_->workload));
  AsqpModel& model = *report.model;
  EXPECT_FALSE(model.NeedsFineTuning());

  // Drifted interest: person-table queries, absent from the training
  // workload.
  std::vector<std::string> drifted = {
      "SELECT p.name FROM person p WHERE p.birth_year BETWEEN 1950 AND 1960",
      "SELECT p.name, p.birth_year FROM person p WHERE p.birth_year > 1990",
      "SELECT p.name FROM person p WHERE p.birth_year < 1920",
      "SELECT p.birth_year FROM person p WHERE p.name LIKE 'person_1%'",
  };
  for (const std::string& sql : drifted) {
    ASSERT_OK_AND_ASSIGN(AnswerResult answer, model.AnswerSql(sql));
    (void)answer;
  }
  EXPECT_TRUE(model.NeedsFineTuning());

  // Fine-tune on the drifted workload and measure improvement on it.
  ASSERT_OK_AND_ASSIGN(metric::Workload drift_workload,
                       metric::Workload::FromSql(drifted));
  metric::ScoreEvaluator evaluator(
      bundle_->db.get(), metric::ScoreOptions{.frame_size = 25});
  ASSERT_OK_AND_ASSIGN(
      const double before,
      evaluator.Score(drift_workload, model.approximation_set()));
  ASSERT_OK(model.FineTune(drift_workload));
  EXPECT_FALSE(model.NeedsFineTuning());  // counter reset
  ASSERT_OK_AND_ASSIGN(
      const double after,
      evaluator.Score(drift_workload, model.approximation_set()));
  EXPECT_GT(after, before);
}

TEST_F(CoreTest, UnknownWorkloadModeTrains) {
  AsqpConfig config = SmallConfig();
  config.trainer.iterations = 6;
  AsqpTrainer trainer(config);
  ASSERT_OK_AND_ASSIGN(
      TrainReport report,
      trainer.TrainWithoutWorkload(*bundle_->db, bundle_->fks,
                                   /*generated_queries=*/16));
  EXPECT_GT(report.model->approximation_set().TotalTuples(), 0u);
}

class EnvKindTest : public ::testing::TestWithParam<EnvKind> {};

TEST_P(EnvKindTest, TrainsEndToEnd) {
  data::DatasetOptions opts;
  opts.scale = 0.03;
  opts.workload_size = 10;
  opts.seed = 5;
  const data::DatasetBundle imdb = data::MakeImdbJob(opts);

  AsqpConfig config;
  config.k = 150;
  config.frame_size = 20;
  config.num_representatives = 8;
  config.pool_target = 250;
  config.env = GetParam();
  config.drp_horizon = 24;
  config.hybrid_refine_horizon = 12;
  config.trainer.iterations = 4;
  config.trainer.num_workers = 1;
  config.trainer.hidden_dim = 32;
  AsqpTrainer trainer(config);
  ASSERT_OK_AND_ASSIGN(TrainReport report,
                       trainer.Train(*imdb.db, imdb.workload));
  EXPECT_GT(report.model->approximation_set().TotalTuples(), 0u);
  EXPECT_LE(report.model->approximation_set().TotalTuples(), config.k);
}

INSTANTIATE_TEST_SUITE_P(Envs, EnvKindTest,
                         ::testing::Values(EnvKind::kGsl, EnvKind::kDrp,
                                           EnvKind::kHybrid));

TEST(ConfigTest, LightAndTimeBudgetPresets) {
  const AsqpConfig full;
  const AsqpConfig light = AsqpConfig::Light();
  EXPECT_LT(light.representative_fraction, full.representative_fraction);
  EXPECT_GT(light.trainer.learning_rate, full.trainer.learning_rate);
  EXPECT_GT(light.trainer.early_stop_patience, 0u);

  const AsqpConfig mid = AsqpConfig::FromTimeBudget(0.5);
  EXPECT_GT(mid.representative_fraction, light.representative_fraction);
  EXPECT_LT(mid.representative_fraction, full.representative_fraction);
  const AsqpConfig max = AsqpConfig::FromTimeBudget(1.0);
  EXPECT_DOUBLE_EQ(max.representative_fraction, full.representative_fraction);
}

TEST(ConfigTest, EnvKindNames) {
  EXPECT_STREQ(EnvKindName(EnvKind::kGsl), "GSL");
  EXPECT_STREQ(EnvKindName(EnvKind::kDrp), "DRP");
  EXPECT_STREQ(EnvKindName(EnvKind::kHybrid), "DRP+GSL");
}

TEST(PreprocessTest, EmptyWorkloadRejected) {
  auto db = testing::MakeTinyMovieDb();
  EXPECT_FALSE(Preprocess(*db, metric::Workload{}, AsqpConfig{}).ok());
}

}  // namespace
}  // namespace core
}  // namespace asqp
