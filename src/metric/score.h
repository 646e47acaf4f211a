// The ANAQP quality metric (Equation 1 of the paper):
//
//   score(S) = sum_q  w(q) * min(1, |q(S)| / min(F, |q(T)|))
//
// with weights normalized to sum to 1. (The paper's formula carries an
// additional 1/|Q| factor *and* normalized weights; the two together would
// bound the score by 1/|Q|, which contradicts the reported magnitudes, so
// we treat the 1/|Q| as already absorbed into uniform weights.)
//
// |q(V)| is the number of rows the statement returns over V as written:
// LIMIT and DISTINCT are honoured, ORDER BY does not matter (ResultRows).
// A query whose full result is empty scores 1 (nothing to cover). Eq. 1's
// denominator and coverage are written once, in FrameTarget and Coverage;
// pre-processing's training targets and the baselines' targets use them
// too. Full-database result sizes |q(T)| are expensive, so the evaluator
// caches them per query text.
#pragma once

#include <string>
#include <unordered_map>

#include "exec/executor.h"
#include "metric/workload.h"
#include "storage/database.h"
#include "util/status.h"

namespace asqp {
namespace metric {

/// Eq. 1's denominator for a query with |q(T)| = `full_rows`:
/// max(1, min(F, |q(T)|)). The 1 is the training target of a query whose
/// full result is empty, which Coverage scores 1 regardless. F >= 1.
size_t FrameTarget(size_t full_rows, int frame_size);

/// One query's Eq. 1 term: 1 when the full result is empty, otherwise
/// min(1, |q(S)| / min(F, |q(T)|)).
double Coverage(size_t subset_rows, size_t full_rows, int frame_size);

/// |q(V)|: the rows `stmt` returns over `view` as written, counted with
/// QueryEngine::CountRows (no projection). Bind and execution errors
/// propagate.
[[nodiscard]] util::Result<size_t> ResultRows(
    const exec::QueryEngine& engine, const sql::SelectStatement& stmt,
    const storage::DatabaseView& view);

struct ScoreOptions {
  /// Frame size F: the number of result tuples a user can cognitively
  /// process (paper default 50).
  int frame_size = 50;
};

class ScoreEvaluator {
 public:
  ScoreEvaluator(const storage::Database* db, ScoreOptions options = {})
      : db_(db), options_(options) {}

  /// Eq. 1 over the whole workload. Queries that fail to execute
  /// contribute 0 (and the failure is surfaced if every query fails).
  [[nodiscard]] util::Result<double> Score(const Workload& workload,
                             const storage::ApproximationSet& subset);

  /// Coverage of one query over `subset`.
  [[nodiscard]] util::Result<double> QueryScore(const sql::SelectStatement& stmt,
                                  const storage::ApproximationSet& subset);

  /// Coverage of one query whose |q(T)| is already known: only the subset
  /// side runs, and nothing runs when `full_rows` is 0.
  [[nodiscard]] util::Result<double> QueryScore(
      const sql::SelectStatement& stmt, size_t full_rows,
      const storage::ApproximationSet& subset);

  /// |q(T)| with caching.
  [[nodiscard]] util::Result<size_t> FullResultSize(const sql::SelectStatement& stmt);

  const ScoreOptions& options() const { return options_; }

 private:
  const storage::Database* db_;
  ScoreOptions options_;
  exec::QueryEngine engine_;
  std::unordered_map<std::string, size_t> full_size_cache_;
};

}  // namespace metric
}  // namespace asqp
