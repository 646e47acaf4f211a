#include "baselines/provenance_pool.h"

#include <algorithm>
#include <map>

#include "exec/executor.h"
#include "metric/score.h"
#include "sql/binder.h"

namespace asqp {
namespace baselines {

util::Result<ProvenancePool> CollectProvenance(
    const storage::Database& db, const metric::Workload& workload,
    int frame_size, size_t max_combos_per_query) {
  ProvenancePool pool;
  exec::QueryEngine engine;
  storage::DatabaseView view(&db);
  std::map<std::string, uint32_t> table_ids;

  const metric::Workload spj = workload.ToSpjWorkload();
  pool.combos.resize(spj.size());
  pool.targets.assign(spj.size(), 1.0);
  pool.weights.resize(spj.size());

  for (size_t q = 0; q < spj.size(); ++q) {
    pool.weights[q] = spj.query(q).weight;
    const sql::SelectStatement& stmt = spj.query(q).stmt;
    auto full_rows = metric::ResultRows(engine, stmt, view);
    if (!full_rows.ok()) continue;
    auto bound = sql::Bind(stmt, db);
    if (!bound.ok()) continue;
    // Every joined tuple is a combo: provenance ignores LIMIT and ORDER BY,
    // which only pick the tuples a result shows.
    auto prov = engine.ExecuteWithProvenance(bound.value(), view, 0);
    if (!prov.ok()) continue;
    pool.targets[q] =
        static_cast<double>(metric::FrameTarget(full_rows.value(), frame_size));
    const size_t joined = prov.value().tuples.size();

    std::vector<uint32_t> ids(prov.value().table_names.size());
    for (size_t t = 0; t < ids.size(); ++t) {
      const std::string& name = prov.value().table_names[t];
      auto [it, inserted] =
          table_ids.emplace(name, static_cast<uint32_t>(table_ids.size()));
      if (inserted) pool.table_names.push_back(name);
      ids[t] = it->second;
    }
    const size_t keep = max_combos_per_query == 0
                            ? joined
                            : std::min(joined, max_combos_per_query);
    pool.combos[q].reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      Combo combo;
      combo.rows.reserve(ids.size());
      for (size_t t = 0; t < ids.size(); ++t) {
        combo.rows.emplace_back(ids[t], prov.value().tuples[i][t]);
      }
      // Deterministic dedupe within the combo (self-joins repeat tables).
      std::sort(combo.rows.begin(), combo.rows.end());
      combo.rows.erase(std::unique(combo.rows.begin(), combo.rows.end()),
                       combo.rows.end());
      pool.combos[q].push_back(std::move(combo));
    }
  }
  return pool;
}

}  // namespace baselines
}  // namespace asqp
