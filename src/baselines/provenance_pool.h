// Shared helper for the query-aware baselines (TOP, GRE, BRT, CACH):
// execute the training workload with provenance and expose each query's
// result combos (joined base tuples) plus the metric targets, so the
// baselines can reason about coverage without re-running SQL.
#pragma once

#include <string>
#include <vector>

#include "metric/workload.h"
#include "storage/database.h"
#include "util/status.h"

namespace asqp {
namespace baselines {

/// One result row of some workload query, as its base tuples.
struct Combo {
  std::vector<std::pair<uint32_t, uint32_t>> rows;  // (table id, row id)
};

struct ProvenancePool {
  std::vector<std::string> table_names;  // table id -> name

  /// combos[q] = result combos of workload query q (possibly capped).
  std::vector<std::vector<Combo>> combos;
  /// Eq. 1 frame target per query (metric::FrameTarget of |q(T)|).
  std::vector<double> targets;
  std::vector<double> weights;

  /// Coverage score of choosing `chosen[q]` combos per query:
  /// sum_q w_q min(1, chosen_q / target_q).
  double Score(const std::vector<size_t>& chosen) const {
    double total = 0.0;
    for (size_t q = 0; q < targets.size(); ++q) {
      total += weights[q] *
               std::min(1.0, static_cast<double>(chosen[q]) / targets[q]);
    }
    return total;
  }
};

/// Execute every workload query with provenance. `max_combos_per_query`
/// caps stored combos (0 = unlimited). Queries that fail to execute get an
/// empty combo list and target 1.
[[nodiscard]] util::Result<ProvenancePool> CollectProvenance(const storage::Database& db,
                                               const metric::Workload& workload,
                                               int frame_size,
                                               size_t max_combos_per_query);

}  // namespace baselines
}  // namespace asqp
