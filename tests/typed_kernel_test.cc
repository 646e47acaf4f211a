// Oracle tests for the executor's typed kernels. Every compiled filter
// conjunct shape is checked against EvaluatePredicate row by row, and every
// hash join against a nested loop that evaluates the equality with
// EvaluatePredicate — over NULL-heavy int64, double and string columns, two
// string dictionaries, int64 = double keys, two-column keys, both build
// sides (the joined tuples or the attached table's rows), all three scan
// domains (full scan, index candidates, shared scan) and 1/2/4/8 threads.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "exec/executor.h"
#include "sql/binder.h"
#include "storage/index.h"
#include "tests/testing.h"
#include "util/random.h"

namespace asqp {
namespace exec {
namespace {

using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
// Tiny morsels: every operator runs over many morsels and partitions.
constexpr size_t kMorselRows = 4;

/// t(id, i, d, s, s2): id is the row index; i, d, s are ~30% NULL over a
/// small domain so predicates and joins hit duplicates and NULLs
/// constantly. d holds both -0.0 and 0.0, and whole values that equal i's.
std::shared_ptr<Table> MakeTable(const std::string& name, size_t rows,
                                 const std::vector<std::string>& strings,
                                 uint64_t seed) {
  auto table = std::make_shared<Table>(
      name, Schema({{"id", ValueType::kInt64},
                    {"i", ValueType::kInt64},
                    {"d", ValueType::kDouble},
                    {"s", ValueType::kString},
                    {"s2", ValueType::kString}}));
  const double kDoubles[] = {-0.0, 0.0, 1.0, 2.0, 2.5, 3.0, -1.5, 4.0};
  util::Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const auto maybe = [&](Value v) {
      return rng.Bernoulli(0.3) ? Value() : std::move(v);
    };
    EXPECT_OK(table->AppendRow(
        {Value(static_cast<int64_t>(r)),
         maybe(Value(static_cast<int64_t>(rng.NextBounded(6)) - 1)),
         maybe(Value(kDoubles[rng.NextBounded(8)])),
         maybe(Value(strings[rng.NextBounded(strings.size())])),
         Value(strings[rng.NextBounded(strings.size())])}));
  }
  return table;
}

/// a and b have equal row counts (an unfiltered a-b join hashes the
/// attached table's rows); c is small. b's dictionary is filled in another
/// order and holds strings a lacks.
std::shared_ptr<storage::Database> MakeDb() {
  auto db = std::make_shared<storage::Database>();
  EXPECT_OK(db->AddTable(
      MakeTable("a", 64, {"apple", "berry", "cherry", "date", "elder"}, 1)));
  EXPECT_OK(db->AddTable(MakeTable(
      "b", 64, {"fig", "elder", "date", "berry", "grape", "apple"}, 2)));
  EXPECT_OK(db->AddTable(MakeTable("c", 12, {"date", "apple", "kiwi"}, 3)));
  return db;
}

QueryEngine MakeEngine(size_t threads, bool planner,
                       std::shared_ptr<const storage::IndexCatalog> indexes =
                           nullptr) {
  ExecOptions options;
  options.num_threads = threads;
  options.morsel_rows = kMorselRows;
  options.enable_planner = planner;
  options.index_catalog = std::move(indexes);
  return QueryEngine(options);
}

/// Rows of FROM table t visible through `view`, ascending, that pass every
/// filter conjunct of `q` by EvaluatePredicate.
std::vector<uint32_t> OracleScan(const sql::BoundQuery& q, size_t t,
                                 const storage::DatabaseView& view) {
  std::vector<uint32_t> ids(q.num_tables(), 0);
  const JoinedRow jr{&q.tables, ids.data()};
  std::vector<uint32_t> out;
  for (size_t ord = 0; ord < view.VisibleRows(*q.tables[t]); ++ord) {
    ids[t] = view.PhysicalRow(*q.tables[t], ord);
    bool pass = true;
    for (const sql::ExprPtr& f : q.filters[t]) {
      pass = pass && EvaluatePredicate(*f, jr);
    }
    if (pass) out.push_back(ids[t]);
  }
  return out;
}

/// The join's expected output: every combination of filtered rows, in
/// lexicographic row-id order, on which each equi-join equality holds by
/// EvaluatePredicate. Every table's first column is its row index.
std::vector<std::vector<int64_t>> OracleJoin(
    const sql::BoundQuery& q, const storage::DatabaseView& view) {
  const size_t n = q.num_tables();
  std::vector<std::vector<uint32_t>> rows(n);
  for (size_t t = 0; t < n; ++t) rows[t] = OracleScan(q, t, view);
  std::vector<sql::ExprPtr> equalities;
  for (const sql::JoinPredicate& jp : q.joins) {
    auto left = sql::Expr::ColumnRef("", "");
    left->table_idx = jp.left_table;
    left->col_idx = jp.left_col;
    auto right = sql::Expr::ColumnRef("", "");
    right->table_idx = jp.right_table;
    right->col_idx = jp.right_col;
    equalities.push_back(
        sql::Expr::Binary(sql::BinOp::kEq, std::move(left), std::move(right)));
  }
  std::vector<std::vector<int64_t>> out;
  std::vector<uint32_t> ids(n, 0);
  std::vector<size_t> pos(n, 0);
  const JoinedRow jr{&q.tables, ids.data()};
  for (size_t t = 0; t < n; ++t) {
    if (rows[t].empty()) return out;
  }
  // Odometer over the filtered rows, last table fastest.
  while (true) {
    for (size_t t = 0; t < n; ++t) ids[t] = rows[t][pos[t]];
    bool match = true;
    for (const sql::ExprPtr& eq : equalities) {
      match = match && EvaluatePredicate(*eq, jr);
    }
    if (match) out.emplace_back(ids.begin(), ids.end());
    size_t t = n;
    while (t > 0 && ++pos[t - 1] == rows[t - 1].size()) pos[--t] = 0;
    if (t == 0) return out;
  }
}

std::vector<std::vector<int64_t>> Int64Rows(const ResultSet& rs) {
  std::vector<std::vector<int64_t>> out;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    std::vector<int64_t> row;
    for (const Value& v : rs.row(r)) row.push_back(v.AsInt64());
    out.push_back(std::move(row));
  }
  return out;
}

// Every compiled conjunct shape (and the EvaluatePredicate fallbacks next
// to them), on int64, double and string columns full of NULLs.
const char* const kPredicates[] = {
    // Numeric comparisons, literal on either side, int and double literals.
    "a.i = 3", "a.i <> 3", "a.i < 2", "a.i <= 2", "a.i > 1", "a.i >= 1",
    "3 > a.i", "1 <= a.i", "a.i = 2.5", "a.i < 2.5", "a.d = 0",
    "a.d <> 0", "a.d >= 2", "a.d < 2.5", "0 = a.d", "a.d <= 1",
    // BETWEEN, IN, and their negations; non-numeric list entries.
    "a.i BETWEEN 0 AND 2", "a.i NOT BETWEEN 1 AND 3",
    "a.d BETWEEN 0 AND 2.5", "a.d NOT BETWEEN 0 AND 1",
    "a.i IN (0, 2, 4)", "a.i NOT IN (1, 2.0)", "a.i IN (1, 'apple', NULL)",
    "a.d IN (0, 2.5, 3)", "a.d NOT IN (1, 'x')",
    // String equality and IN by dictionary code, absent literals too.
    "a.s = 'berry'", "a.s <> 'berry'", "a.s = 'zzz'", "a.s <> 'zzz'",
    "'date' = a.s", "a.s IN ('apple', 'date', 'zzz')",
    "a.s NOT IN ('apple', 1)", "a.s IN (1, 2)", "a.s = 1",
    // Other single-column string predicates: evaluated once per code.
    "a.s < 'cherry'", "a.s >= 'date'", "a.s LIKE '%e%'",
    "a.s NOT LIKE 'b%'", "a.s IS NULL", "a.s IS NOT NULL",
    "NOT (a.s = 'apple')", "(a.s = 'apple' OR a.s = 'elder')",
    "a.s BETWEEN 'b' AND 'd'", "a.s > 1",
    // Generic fallbacks: arithmetic, IS NULL on numerics, two columns.
    "a.i + 1 > 2", "a.d * 2 = 5", "a.i IS NULL", "a.d IS NOT NULL",
    "a.i = a.id", "a.s = a.s2", "a.i BETWEEN NULL AND 3", "a.i = NULL",
    // Several conjuncts, short-circuited per block.
    "a.s = 'apple' AND a.i > 0",
    "a.i IN (1, 2, 3) AND a.s LIKE '%e%' AND a.d >= 0",
};

class TypedKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeDb();
    view_ = std::make_unique<storage::DatabaseView>(db_.get());
  }

  sql::BoundQuery Bind(const std::string& sql) {
    auto bound = sql::ParseAndBind(sql, *db_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString() << " for " << sql;
    return bound.ok() ? std::move(bound).value() : sql::BoundQuery();
  }

  std::shared_ptr<storage::Database> db_;
  std::unique_ptr<storage::DatabaseView> view_;
};

TEST_F(TypedKernelTest, CompiledConjunctsMatchEvaluatePredicate) {
  for (const char* predicate : kPredicates) {
    const std::string sql =
        std::string("SELECT a.id FROM a WHERE ") + predicate;
    const sql::BoundQuery q = Bind(sql);
    std::vector<std::vector<int64_t>> expect;
    for (const uint32_t row : OracleScan(q, 0, *view_)) {
      expect.push_back({static_cast<int64_t>(row)});
    }
    for (const size_t threads : kThreadCounts) {
      for (const bool planner : {false, true}) {
        auto rs = MakeEngine(threads, planner).Execute(q, *view_);
        ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
        EXPECT_EQ(Int64Rows(rs.value()), expect)
            << sql << " @" << threads << " threads, planner " << planner;
      }
    }
  }
}

TEST_F(TypedKernelTest, IndexCandidateDomainMatchesEvaluatePredicate) {
  // Every other row of a is visible; every column is indexed, so the
  // planner turns the selective conjuncts into index range scans whose
  // candidates the kernel then filters.
  storage::ApproximationSet subset;
  for (uint32_t r = 0; r < 64; r += 2) subset.Add("a", r);
  subset.Seal();
  const storage::DatabaseView approx(db_.get(), &subset);
  const auto catalog = std::make_shared<const storage::IndexCatalog>(
      storage::IndexCatalog::Build(approx, storage::AllIndexColumns(*db_),
                                   /*generation=*/1));
  for (const char* predicate : kPredicates) {
    const std::string sql =
        std::string("SELECT a.id FROM a WHERE ") + predicate;
    const sql::BoundQuery q = Bind(sql);
    std::vector<std::vector<int64_t>> expect;
    for (const uint32_t row : OracleScan(q, 0, approx)) {
      expect.push_back({static_cast<int64_t>(row)});
    }
    for (const size_t threads : kThreadCounts) {
      auto rs =
          MakeEngine(threads, /*planner=*/true, catalog).Execute(q, approx);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
      EXPECT_EQ(Int64Rows(rs.value()), expect)
          << sql << " @" << threads << " threads";
    }
  }
}

TEST_F(TypedKernelTest, SharedScanMatchesEvaluatePredicate) {
  std::vector<sql::BoundQuery> queries;
  for (const char* predicate : kPredicates) {
    queries.push_back(
        Bind(std::string("SELECT a.id FROM a WHERE ") + predicate));
  }
  std::vector<SharedScanMember> members;
  for (const sql::BoundQuery& q : queries) members.push_back({&q, 0});
  for (const size_t threads : kThreadCounts) {
    std::vector<std::vector<uint32_t>> out;
    ASSERT_OK(MakeEngine(threads, true)
                  .SharedFilterScan(*view_, *db_->GetTable("a").value(),
                                    members, util::ExecContext(), &out));
    ASSERT_EQ(out.size(), queries.size());
    for (size_t m = 0; m < queries.size(); ++m) {
      EXPECT_EQ(out[m], OracleScan(queries[m], 0, *view_))
          << kPredicates[m] << " @" << threads << " threads";
    }
  }
}

TEST_F(TypedKernelTest, HashJoinsMatchNestedLoopEquality) {
  const char* const kJoins[] = {
      // Unfiltered, equal sizes: the attached table's rows are hashed.
      "SELECT a.id, b.id FROM a, b WHERE a.i = b.i",
      "SELECT a.id, b.id FROM a, b WHERE a.d = b.d",
      "SELECT a.id, b.id FROM a, b WHERE a.i = b.d",
      "SELECT a.id, b.id FROM a, b WHERE b.d = a.i",
      "SELECT a.id, b.id FROM a, b WHERE a.s = b.s",
      "SELECT a.id, b.id FROM a, b WHERE a.s = b.i",
      "SELECT a.id, b.id FROM a, b WHERE a.i = b.i AND a.s = b.s",
      "SELECT a.id, b.id FROM a, b WHERE a.d = b.i AND a.s2 = b.s",
      // One side filtered smaller: the joined tuples are hashed.
      "SELECT a.id, b.id FROM a, b WHERE a.i = b.i AND a.id < 9",
      "SELECT a.id, b.id FROM a, b WHERE a.s = b.s AND b.s = 'date'",
      "SELECT a.id, b.id FROM a, b WHERE a.d = b.i AND b.id >= 50",
      "SELECT a.id, b.id FROM a, b "
      "WHERE a.i = b.i AND a.s = b.s AND a.id > 40",
      "SELECT a.id, b.id FROM a, b WHERE a.s = b.s AND a.s = 'zzz'",
      // Self-join: one dictionary on both sides.
      "SELECT a1.id, a2.id FROM a a1, a a2 WHERE a1.s = a2.s2",
      "SELECT a1.id, a2.id FROM a a1, a a2 "
      "WHERE a1.s = a2.s AND a1.id < 20",
      // Three tables: the joined set grows past the last table, then not.
      "SELECT a.id, b.id, c.id FROM a, b, c WHERE a.i = b.i AND b.s = c.s",
      "SELECT a.id, b.id, c.id FROM a, b, c "
      "WHERE a.s = c.s AND b.d = c.i AND a.id < 30",
      "SELECT a.id, c.id, b.id FROM a, c, b "
      "WHERE a.s2 = c.s2 AND c.d = b.d",
  };
  for (const char* sql : kJoins) {
    const sql::BoundQuery q = Bind(sql);
    const auto expect = OracleJoin(q, *view_);
    for (const size_t threads : kThreadCounts) {
      for (const bool planner : {false, true}) {
        auto rs = MakeEngine(threads, planner).Execute(q, *view_);
        ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
        EXPECT_EQ(Int64Rows(rs.value()), expect)
            << sql << " @" << threads << " threads, planner " << planner;
      }
    }
  }
}

TEST_F(TypedKernelTest, ProvenanceJoinMatchesNestedLoopEquality) {
  const char* const kJoins[] = {
      "SELECT a.id, b.id FROM a, b WHERE a.i = b.d",
      "SELECT a.id, b.id FROM a, b WHERE a.s = b.s AND a.id < 9",
  };
  for (const char* sql : kJoins) {
    const sql::BoundQuery q = Bind(sql);
    const auto expect = OracleJoin(q, *view_);
    for (const size_t threads : kThreadCounts) {
      auto joined =
          MakeEngine(threads, false).ExecuteWithProvenance(q, *view_);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      std::vector<std::vector<int64_t>> got;
      for (const auto& tuple : joined.value().tuples) {
        got.emplace_back(tuple.begin(), tuple.end());
      }
      EXPECT_EQ(got, expect) << sql << " @" << threads << " threads";
    }
  }
}

TEST(TypedKernelKeysTest, JoinKeysFollowValueCompareButNaNNeverMatches) {
  // l.x / r.y: -0.0 joins 0.0 and the int 0; 3 (int) joins 3.0; two
  // doubles equal to six decimals but not exactly stay apart; NaN joins
  // nothing, not even NaN.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto db = std::make_shared<storage::Database>();
  auto l = std::make_shared<Table>(
      "l", Schema({{"id", ValueType::kInt64}, {"x", ValueType::kDouble}}));
  auto r = std::make_shared<Table>(
      "r", Schema({{"id", ValueType::kInt64},
                   {"y", ValueType::kDouble},
                   {"k", ValueType::kInt64}}));
  const double kLeft[] = {-0.0, 3.0, 1.0000001, kNaN};
  const double kRight[] = {0.0, 1.0000002, kNaN, 3.0};
  const int64_t kInts[] = {0, 1, 5, 3};
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_OK(l->AppendRow({Value(i), Value(kLeft[i])}));
    ASSERT_OK(r->AppendRow({Value(i), Value(kRight[i]), Value(kInts[i])}));
  }
  ASSERT_OK(db->AddTable(l));
  ASSERT_OK(db->AddTable(r));
  const storage::DatabaseView view(db.get());
  // Both joins pair l's -0.0 with r's row 0 and l's 3.0 with r's row 3.
  const std::vector<std::vector<int64_t>> expect = {{0, 0}, {1, 3}};
  for (const size_t threads : kThreadCounts) {
    const QueryEngine engine = MakeEngine(threads, true);
    auto rs = engine.ExecuteSql(
        "SELECT l.id, r.id FROM l, r WHERE l.x = r.y", view);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(Int64Rows(rs.value()), expect) << threads << " threads";
    rs = engine.ExecuteSql("SELECT l.id, r.id FROM l, r WHERE l.x = r.k",
                           view);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(Int64Rows(rs.value()), expect) << threads << " threads";
  }
  // As a filter, `x = 0` keeps -0.0 — and NaN, which Value::Compare calls
  // equal to every number; only the join refuses NaN.
  auto rs = MakeEngine(1, true).ExecuteSql("SELECT l.id FROM l WHERE l.x = 0",
                                           view);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const std::vector<std::vector<int64_t>> filtered = {{0}, {3}};
  EXPECT_EQ(Int64Rows(rs.value()), filtered);
}

}  // namespace
}  // namespace exec
}  // namespace asqp
