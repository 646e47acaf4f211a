// The pre-processing pipeline of Algorithm 1, lines 1-4 (Section 4.2):
//
//   1. relax every training query (query generalization),
//   2. embed the generalized queries and cluster them; the cluster medoids
//      become the *query representatives* Q-hat,
//   3. execute (a configurable fraction of) the relaxed representatives
//      over the full database with provenance, keeping the joined base
//      tuples,
//   4. variationally subsample the union into the tuple *pool*, group pool
//      tuples into actions, and precompute the action x query contribution
//      matrix used as the training reward model.
//
// Incidence is exact: a pool tuple contributes a result row to a
// representative query iff the tuple covers the query's FROM tables and
// its rows satisfy all of the query's predicates (checked with the real
// expression evaluator on the original, un-relaxed statement).
#pragma once

#include <optional>
#include <vector>

#include "core/config.h"
#include "embed/embedder.h"
#include "metric/workload.h"
#include "rl/action_space.h"
#include "storage/database.h"
#include "util/status.h"

namespace asqp {
namespace core {

/// \brief Everything pre-processing hands to training and inference.
struct PreprocessResult {
  rl::ActionSpace space;
  /// The selected representatives (original statements) with weights; the
  /// reward model columns are aligned with this order.
  metric::Workload representatives;
  /// Embedding of every representative (for the answerability estimator).
  std::vector<embed::Vector> representative_embeddings;
  /// |q(T)| of every representative over the full database
  /// (metric::ResultRows), aligned with `representatives`; empty when the
  /// statement could not be bound or executed. The frame targets in
  /// `space` and the estimator's calibrated coverage both derive from it,
  /// so each representative runs on the full database once per set-up.
  std::vector<std::optional<size_t>> full_rows;
  /// Pool statistics for reporting.
  size_t joined_tuples_collected = 0;
  size_t representatives_executed = 0;
};

/// Run the pipeline. Fails if no representative query can be executed.
[[nodiscard]] util::Result<PreprocessResult> Preprocess(const storage::Database& db,
                                          const metric::Workload& workload,
                                          const AsqpConfig& config);

}  // namespace core
}  // namespace asqp
