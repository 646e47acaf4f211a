#include "metric/score.h"

#include <algorithm>

#include "sql/binder.h"

namespace asqp {
namespace metric {

size_t FrameTarget(size_t full_rows, int frame_size) {
  return std::max<size_t>(
      1, std::min<size_t>(full_rows, static_cast<size_t>(frame_size)));
}

double Coverage(size_t subset_rows, size_t full_rows, int frame_size) {
  if (full_rows == 0) return 1.0;
  const size_t target = FrameTarget(full_rows, frame_size);
  return std::min(1.0, static_cast<double>(subset_rows) /
                           static_cast<double>(target));
}

util::Result<size_t> ResultRows(const exec::QueryEngine& engine,
                                const sql::SelectStatement& stmt,
                                const storage::DatabaseView& view) {
  ASQP_ASSIGN_OR_RETURN(sql::BoundQuery bound, sql::Bind(stmt, view.db()));
  return engine.CountRows(bound, view);
}

util::Result<size_t> ScoreEvaluator::FullResultSize(
    const sql::SelectStatement& stmt) {
  const std::string key = stmt.ToSql();
  auto it = full_size_cache_.find(key);
  if (it != full_size_cache_.end()) return it->second;
  ASQP_ASSIGN_OR_RETURN(
      size_t size, ResultRows(engine_, stmt, storage::DatabaseView(db_)));
  full_size_cache_.emplace(key, size);
  return size;
}

util::Result<double> ScoreEvaluator::QueryScore(
    const sql::SelectStatement& stmt,
    const storage::ApproximationSet& subset) {
  ASQP_ASSIGN_OR_RETURN(size_t full_rows, FullResultSize(stmt));
  return QueryScore(stmt, full_rows, subset);
}

util::Result<double> ScoreEvaluator::QueryScore(
    const sql::SelectStatement& stmt, size_t full_rows,
    const storage::ApproximationSet& subset) {
  // An empty full result is covered whatever the subset holds.
  if (full_rows == 0) return Coverage(0, full_rows, options_.frame_size);
  ASQP_ASSIGN_OR_RETURN(
      size_t subset_rows,
      ResultRows(engine_, stmt, storage::DatabaseView(db_, &subset)));
  return Coverage(subset_rows, full_rows, options_.frame_size);
}

util::Result<double> ScoreEvaluator::Score(
    const Workload& workload, const storage::ApproximationSet& subset) {
  if (workload.empty()) return 0.0;
  double total = 0.0;
  size_t failures = 0;
  util::Status last_error;
  for (const WeightedQuery& q : workload.queries()) {
    auto score = QueryScore(q.stmt, subset);
    if (!score.ok()) {
      ++failures;
      last_error = score.status();
      continue;
    }
    total += q.weight * score.value();
  }
  if (failures == workload.size()) return last_error;
  return total;
}

}  // namespace metric
}  // namespace asqp
