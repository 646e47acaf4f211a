#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "exec/evaluator.h"
#include "plan/planner.h"
#include "storage/index.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace asqp {
namespace exec {

namespace {

using sql::AggFunc;
using sql::BinOp;
using sql::BoundQuery;
using sql::ExprPtr;
using sql::JoinPredicate;
using sql::SelectItem;
using storage::DatabaseView;
using storage::Table;
using storage::Value;
using util::Result;
using util::Status;

/// A set of partial join tuples: each tuple holds one row id per FROM table
/// (entries for not-yet-joined tables are 0 and unused).
struct TupleSet {
  size_t num_tables = 0;
  std::vector<uint32_t> flat;  // row-major, num_tables per tuple

  size_t size() const { return num_tables == 0 ? 0 : flat.size() / num_tables; }
  const uint32_t* tuple(size_t i) const { return &flat[i * num_tables]; }
  void Append(const uint32_t* src) {
    flat.insert(flat.end(), src, src + num_tables);
  }
};

std::string ValueKey(const Value& v) {
  std::string key;
  key += static_cast<char>('0' + static_cast<int>(v.type()));
  key += v.ToString();
  return key;
}

// ---------------------------------------------------------------------------
// Scan kernel: filter conjuncts compiled once against raw column storage.
// ---------------------------------------------------------------------------

/// Value::Compare of two numerics: NaN compares equal to everything and
/// -0.0 equals 0.0.
inline int CompareNumeric(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// `literal op column` rewritten as `column op' literal`.
BinOp MirrorComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

bool IsNumericType(storage::ValueType type) {
  return type == storage::ValueType::kInt64 ||
         type == storage::ValueType::kDouble;
}

void CollectColumnRefs(const sql::Expr& e, std::vector<const sql::Expr*>* out) {
  if (e.kind == sql::ExprKind::kColumnRef) {
    out->push_back(&e);
    return;
  }
  if (e.left) CollectColumnRefs(*e.left, out);
  if (e.right) CollectColumnRefs(*e.right, out);
}

/// The column that every column reference under `e` names, or null when
/// `e` references no column or more than one.
const sql::Expr* SoleColumn(const sql::Expr& e) {
  std::vector<const sql::Expr*> refs;
  CollectColumnRefs(e, &refs);
  if (refs.empty()) return nullptr;
  for (const sql::Expr* ref : refs) {
    if (ref->table_idx != refs[0]->table_idx ||
        ref->col_idx != refs[0]->col_idx) {
      return nullptr;
    }
  }
  return refs[0];
}

/// Keep the entries of `rows` for which `keep(row)` holds, in order.
template <typename Keep>
void KeepRows(std::vector<uint32_t>* rows, Keep keep) {
  uint32_t* data = rows->data();
  size_t kept = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    if (keep(data[i])) data[kept++] = data[i];
  }
  rows->resize(kept);
}

/// KeepRows over a numeric column: NULL rows drop, every other row's value
/// (as a double, the way Value::Compare sees it) goes through `test`.
template <typename Test>
void KeepNumeric(const storage::Column& col, std::vector<uint32_t>* rows,
                 Test test) {
  if (col.type() == storage::ValueType::kInt64) {
    KeepRows(rows, [&](uint32_t r) {
      return !col.IsNull(r) && test(static_cast<double>(col.Int64At(r)));
    });
  } else {
    KeepRows(rows, [&](uint32_t r) {
      return !col.IsNull(r) && test(col.DoubleAt(r));
    });
  }
}

/// One table's filter conjuncts, compiled once per execution. Each
/// conjunct becomes a typed test over the column's raw int64/double values
/// or its dictionary codes wherever its shape allows, and otherwise falls
/// back to EvaluatePredicate — every kind answers exactly what
/// EvaluatePredicate answers for that row (Value::Compare semantics, NULL
/// is false):
///   kNumericCompare  numeric column op numeric literal (either side);
///   kNumericBetween  numeric column [NOT] BETWEEN two numeric literals;
///   kNumericIn       numeric column [NOT] IN (literals);
///   kCodeIn          string column =, <> or [NOT] IN string literals, as
///                    dictionary codes looked up once (equal strings share
///                    one code, so code equality is string equality);
///   kPerCode         any other predicate over one string column, evaluated
///                    once per dictionary code (and once for NULL);
///   kGeneric         everything else, EvaluatePredicate per row.
/// Conjuncts run one after another over a block of rows, each compacting
/// the survivors; predicates are pure, so the surviving rows are the ones
/// the row-at-a-time short-circuit evaluation keeps.
class ScanKernel {
 public:
  /// Per-range evaluation state: the row-id scratch EvaluatePredicate reads
  /// through and the per-code memos. Every morsel builds its own.
  struct Scratch {
    std::vector<uint32_t> row_ids;
    std::vector<std::vector<int8_t>> memos;  // per conjunct; -1 = unknown
  };

  ScanKernel(const BoundQuery& q, size_t t)
      : tables_(&q.tables), table_(t), num_tables_(q.num_tables()) {
    for (const ExprPtr& f : q.filters[t]) conjuncts_.push_back(Compile(*f));
  }

  /// `range_rows` is the number of rows this scratch will see: a per-code
  /// memo pays off only when the range is not much smaller than the
  /// dictionary (an index range over a few rows of a large dictionary
  /// evaluates per row instead).
  Scratch NewScratch(size_t range_rows) const {
    Scratch s;
    s.row_ids.assign(num_tables_, 0);
    s.memos.resize(conjuncts_.size());
    for (size_t c = 0; c < conjuncts_.size(); ++c) {
      const Conjunct& conj = conjuncts_[c];
      if (conj.kind == Kind::kPerCode &&
          conj.column->dict_size() <= 8 * range_rows) {
        s.memos[c].assign(conj.column->dict_size() + 1, -1);  // + NULL
      }
    }
    return s;
  }

  /// Keep the rows of `rows` (physical row ids in scan order) that pass
  /// every conjunct, in order.
  void Filter(std::vector<uint32_t>* rows, Scratch* scratch) const {
    for (size_t c = 0; c < conjuncts_.size() && !rows->empty(); ++c) {
      Apply(conjuncts_[c], &scratch->memos[c], rows, scratch);
    }
  }

 private:
  enum class Kind : uint8_t {
    kNumericCompare,
    kNumericBetween,
    kNumericIn,
    kCodeIn,
    kPerCode,
    kGeneric,
  };

  struct Conjunct {
    Kind kind = Kind::kGeneric;
    const sql::Expr* expr = nullptr;
    const storage::Column* column = nullptr;
    bool negated = false;
    /// kNumericCompare: pass[cmp + 1] is the result for a three-way
    /// comparison `cmp` of the row value against values[0].
    bool pass[3] = {false, false, false};
    std::vector<double> values;   // compare literal / BETWEEN bounds / IN list
    std::vector<uint32_t> codes;  // kCodeIn, sorted
  };

  Conjunct Compile(const sql::Expr& e) const {
    using sql::ExprKind;
    Conjunct c;
    c.expr = &e;
    c.negated = e.negated;
    const sql::Expr* ref = SoleColumn(e);
    if (ref == nullptr) return c;
    const storage::Column& col = (*tables_)[table_]->column(ref->col_idx);
    c.column = &col;
    const bool numeric = IsNumericType(col.type());
    const bool string = col.type() == storage::ValueType::kString;

    if (e.kind == ExprKind::kBinary && sql::IsComparison(e.op)) {
      const bool col_left = e.left->kind == ExprKind::kColumnRef &&
                            e.right->kind == ExprKind::kLiteral;
      const bool col_right = e.right->kind == ExprKind::kColumnRef &&
                             e.left->kind == ExprKind::kLiteral;
      if (col_left || col_right) {
        const Value& lit = col_left ? e.right->literal : e.left->literal;
        const BinOp op = col_left ? e.op : MirrorComparison(e.op);
        if (numeric && lit.is_numeric()) {
          c.kind = Kind::kNumericCompare;
          c.values = {lit.ToNumeric()};
          for (int cmp = -1; cmp <= 1; ++cmp) c.pass[cmp + 1] = Holds(op, cmp);
          return c;
        }
        if (string && lit.type() == storage::ValueType::kString &&
            (op == BinOp::kEq || op == BinOp::kNe)) {
          c.kind = Kind::kCodeIn;
          c.negated = op == BinOp::kNe;
          if (const auto code = col.FindCode(lit.AsString())) {
            c.codes.push_back(*code);
          }
          return c;
        }
      }
    } else if (e.kind == ExprKind::kBetween &&
               e.left->kind == ExprKind::kColumnRef && numeric &&
               e.between_lo.is_numeric() && e.between_hi.is_numeric()) {
      c.kind = Kind::kNumericBetween;
      c.values = {e.between_lo.ToNumeric(), e.between_hi.ToNumeric()};
      return c;
    } else if (e.kind == ExprKind::kIn &&
               e.left->kind == ExprKind::kColumnRef && (numeric || string)) {
      // NULL list entries never match, and a numeric never equals a
      // string (Value::Compare orders every numeric before every string).
      for (const Value& v : e.in_list) {
        if (numeric && v.is_numeric()) c.values.push_back(v.ToNumeric());
        if (string && v.type() == storage::ValueType::kString) {
          if (const auto code = col.FindCode(v.AsString())) {
            c.codes.push_back(*code);
          }
        }
      }
      std::sort(c.codes.begin(), c.codes.end());
      c.kind = numeric ? Kind::kNumericIn : Kind::kCodeIn;
      return c;
    }
    if (string) c.kind = Kind::kPerCode;
    return c;
  }

  static bool Holds(BinOp op, int cmp) {
    switch (op) {
      case BinOp::kEq: return cmp == 0;
      case BinOp::kNe: return cmp != 0;
      case BinOp::kLt: return cmp < 0;
      case BinOp::kLe: return cmp <= 0;
      case BinOp::kGt: return cmp > 0;
      case BinOp::kGe: return cmp >= 0;
      default: return false;
    }
  }

  bool Evaluate(const Conjunct& c, uint32_t row, Scratch* scratch) const {
    scratch->row_ids[table_] = row;
    return EvaluatePredicate(*c.expr,
                             JoinedRow{tables_, scratch->row_ids.data()});
  }

  void Apply(const Conjunct& c, std::vector<int8_t>* memo,
             std::vector<uint32_t>* rows, Scratch* scratch) const {
    const bool negated = c.negated;
    switch (c.kind) {
      case Kind::kNumericCompare: {
        const double lit = c.values[0];
        const bool* pass = c.pass;
        KeepNumeric(*c.column, rows, [lit, pass](double v) {
          return pass[CompareNumeric(v, lit) + 1];
        });
        return;
      }
      case Kind::kNumericBetween: {
        const double lo = c.values[0];
        const double hi = c.values[1];
        KeepNumeric(*c.column, rows, [lo, hi, negated](double v) {
          const bool inside =
              CompareNumeric(v, lo) >= 0 && CompareNumeric(v, hi) <= 0;
          return inside != negated;
        });
        return;
      }
      case Kind::kNumericIn: {
        const std::vector<double>& values = c.values;
        KeepNumeric(*c.column, rows, [&values, negated](double v) {
          for (const double x : values) {
            if (CompareNumeric(v, x) == 0) return !negated;
          }
          return negated;
        });
        return;
      }
      case Kind::kCodeIn: {
        const storage::Column& col = *c.column;
        const std::vector<uint32_t>& codes = c.codes;
        KeepRows(rows, [&col, &codes, negated](uint32_t r) {
          return !col.IsNull(r) &&
                 std::binary_search(codes.begin(), codes.end(),
                                    col.StringCodeAt(r)) != negated;
        });
        return;
      }
      case Kind::kPerCode:
        if (!memo->empty()) {
          const storage::Column& col = *c.column;
          const size_t null_slot = col.dict_size();
          KeepRows(rows, [&](uint32_t r) {
            int8_t& known =
                (*memo)[col.IsNull(r) ? null_slot : col.StringCodeAt(r)];
            if (known < 0) known = Evaluate(c, r, scratch) ? 1 : 0;
            return known == 1;
          });
          return;
        }
        [[fallthrough]];
      case Kind::kGeneric:
        KeepRows(rows, [&](uint32_t r) { return Evaluate(c, r, scratch); });
        return;
    }
  }

  const std::vector<std::shared_ptr<Table>>* tables_;
  size_t table_;
  size_t num_tables_;
  std::vector<Conjunct> conjuncts_;
};

/// The positions a scan visits and the physical rows they map to: position
/// i is index candidate ordinals[i] when an index supplies the domain, else
/// visible ordinal i; a visible ordinal maps through the approximation
/// set's row list (identity on the full database). This is exactly
/// DatabaseView::PhysicalRow, with the per-table lookup hoisted.
struct ScanDomain {
  const std::vector<uint32_t>* ordinals = nullptr;  // null = every visible
  const std::vector<uint32_t>* visible = nullptr;   // null = identity
  size_t size = 0;

  ScanDomain(const DatabaseView& view, const Table& table,
             const std::vector<uint32_t>* index_ordinals)
      : ordinals(index_ordinals),
        visible(view.restricted() ? &view.subset()->RowsFor(table.name())
                                  : nullptr),
        size(index_ordinals != nullptr ? index_ordinals->size()
                                       : view.VisibleRows(table)) {}

  uint32_t Row(size_t i) const {
    const size_t ord = ordinals != nullptr ? (*ordinals)[i] : i;
    return visible != nullptr ? (*visible)[ord] : static_cast<uint32_t>(ord);
  }
};

/// Rows gathered and filtered per step of a scan range: large enough to
/// amortize each conjunct's dispatch, small enough to stay in L1/L2.
constexpr size_t kScanBlock = 1024;

/// Filter domain positions [begin, end) through every kernel: (*out)[k]
/// receives, in domain order, the rows passing kernels[k]. One tick per
/// gathered row.
Status ScanRange(const ScanDomain& domain,
                 const std::vector<const ScanKernel*>& kernels, size_t begin,
                 size_t end, std::vector<std::vector<uint32_t>>* out,
                 util::DeadlineTicker* ticker, const char* what) {
  std::vector<ScanKernel::Scratch> scratch;
  scratch.reserve(kernels.size());
  for (const ScanKernel* k : kernels) {
    scratch.push_back(k->NewScratch(end - begin));
  }
  std::vector<uint32_t> block;
  std::vector<uint32_t> selected;
  block.reserve(std::min(kScanBlock, end - begin));
  for (size_t b = begin; b < end; b += kScanBlock) {
    const size_t stop = std::min(end, b + kScanBlock);
    block.clear();
    for (size_t i = b; i < stop; ++i) {
      ASQP_RETURN_NOT_OK(ticker->Tick(what));
      block.push_back(domain.Row(i));
    }
    for (size_t k = 0; k < kernels.size(); ++k) {
      // A lone kernel filters the block in place; several each get a copy.
      std::vector<uint32_t>* rows = &block;
      if (kernels.size() > 1) rows = &(selected = block);
      kernels[k]->Filter(rows, &scratch[k]);
      (*out)[k].insert((*out)[k].end(), rows->begin(), rows->end());
    }
  }
  return Status::OK();
}

/// The one scan: filter `domain` through `kernels` into out (one row list
/// per kernel). With a pool the domain splits into morsels filtered into
/// per-morsel buffers, concatenated in morsel order — the same rows in the
/// same order as the single inline range on `ticker` without one.
Status RunScan(util::ThreadPool* pool, size_t morsel_rows,
               const util::ExecContext& context, util::DeadlineTicker* ticker,
               const char* what, const ScanDomain& domain,
               const std::vector<const ScanKernel*>& kernels,
               std::vector<std::vector<uint32_t>>* out) {
  const size_t m = kernels.size();
  out->assign(m, {});
  if (pool == nullptr || domain.size <= 1) {
    return ScanRange(domain, kernels, 0, domain.size, out, ticker, what);
  }
  const size_t chunks = (domain.size + morsel_rows - 1) / morsel_rows;
  std::vector<std::vector<std::vector<uint32_t>>> parts(chunks);
  ASQP_RETURN_NOT_OK(pool->ParallelForChunked(
      domain.size, morsel_rows,
      [&](size_t chunk, size_t begin, size_t end) -> Status {
        util::DeadlineTicker local_ticker(context, /*stride=*/256);
        std::vector<std::vector<uint32_t>> local(m);
        ASQP_RETURN_NOT_OK(ScanRange(domain, kernels, begin, end, &local,
                                     &local_ticker, what));
        parts[chunk] = std::move(local);
        return Status::OK();
      }));
  for (size_t k = 0; k < m; ++k) {
    size_t total = 0;
    for (const auto& p : parts) total += p[k].size();
    (*out)[k].reserve(total);
    for (const auto& p : parts) {
      (*out)[k].insert((*out)[k].end(), p[k].begin(), p[k].end());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Hash join: fixed-width typed keys.
// ---------------------------------------------------------------------------

/// How one equi-join column pair encodes into a 64-bit key word. Two
/// non-NULL values get equal words exactly when `a = b` holds under
/// Value::Compare, with one exception: a NaN key never matches.
enum class KeyKind : uint8_t {
  kInt64,    // int64 = int64: the integer itself
  kNumeric,  // a double on either side: the value as a double, -0.0 -> 0.0
  kCode,     // string = string: the probe column's dictionary code
  kNever,    // string = numeric: never equal
};

KeyKind KeyKindFor(storage::ValueType a, storage::ValueType b) {
  using storage::ValueType;
  if (a == ValueType::kInt64 && b == ValueType::kInt64) return KeyKind::kInt64;
  if (IsNumericType(a) && IsNumericType(b)) return KeyKind::kNumeric;
  if (a == ValueType::kString && b == ValueType::kString) return KeyKind::kCode;
  return KeyKind::kNever;
}

/// Marks a build-side code whose string the probe column does not hold.
constexpr uint32_t kNoCode = 0xFFFFFFFFu;
/// Marks a build-side code not translated yet (never read by a probe).
constexpr uint32_t kUntranslated = 0xFFFFFFFEu;

/// A TupleSet's join-key reader: one fixed-width word per key column.
/// A position is a row id of the table being attached (slot < 0) or the
/// index of a joined tuple, whose entry `slot` holds the row id.
class KeyReader {
 public:
  struct Part {
    const storage::Column* column = nullptr;
    KeyKind kind = KeyKind::kNever;
    int slot = -1;
    /// kCode on the build side: build code -> probe code (null = same
    /// dictionary).
    const std::vector<uint32_t>* translate = nullptr;
  };

  KeyReader(std::vector<Part> parts, const TupleSet* tuples)
      : parts_(std::move(parts)), tuples_(tuples) {}

  size_t width() const { return parts_.size(); }
  std::vector<Part>& parts() { return parts_; }
  const std::vector<Part>& parts() const { return parts_; }

  uint32_t Row(const Part& part, size_t position) const {
    return part.slot < 0 ? static_cast<uint32_t>(position)
                         : tuples_->tuple(position)[part.slot];
  }

  /// Fill key[0, width) for `position`; false when the key cannot match
  /// anything (a NULL, a NaN, a string the other side lacks).
  bool Read(size_t position, uint64_t* key) const {
    for (size_t k = 0; k < parts_.size(); ++k) {
      if (!ReadWord(parts_[k], Row(parts_[k], position), &key[k])) return false;
    }
    return true;
  }

 private:
  static bool ReadWord(const Part& part, uint32_t row, uint64_t* word) {
    const storage::Column& col = *part.column;
    if (col.IsNull(row)) return false;
    switch (part.kind) {
      case KeyKind::kInt64:
        *word = static_cast<uint64_t>(col.Int64At(row));
        return true;
      case KeyKind::kNumeric: {
        double d = col.type() == storage::ValueType::kInt64
                       ? static_cast<double>(col.Int64At(row))
                       : col.DoubleAt(row);
        if (std::isnan(d)) return false;
        if (d == 0.0) d = 0.0;  // -0.0 joins 0.0
        *word = std::bit_cast<uint64_t>(d);
        return true;
      }
      case KeyKind::kCode: {
        uint32_t code = col.StringCodeAt(row);
        if (part.translate != nullptr) code = (*part.translate)[code];
        *word = code;
        return code < kUntranslated;
      }
      case KeyKind::kNever:
        return false;
    }
    return false;
  }

  std::vector<Part> parts_;
  const TupleSet* tuples_;
};

inline uint64_t MixKey(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline uint64_t HashKey(const uint64_t* key, size_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t k = 0; k < width; ++k) h = MixKey(h ^ key[k]);
  return h;
}

/// One build chunk's keyed entries bound for one partition, in build
/// order: the key hash, the build position, and `width` key words.
struct KeyedEntries {
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> positions;
  std::vector<uint64_t> keys;
};

/// Equi-join hash table over fixed-width keys, radix-partitioned by the top
/// bits of the key hash (one partition in the sequential engine). Each
/// partition maps a distinct key to the build positions carrying it, in
/// build order, so probe output never depends on which build path
/// (sequential or partitioned) produced the table.
class JoinTable {
 public:
  JoinTable(size_t width, size_t partitions)
      : width_(width), parts_(partitions) {
    while ((size_t{1} << bits_) < partitions) ++bits_;
  }

  size_t num_partitions() const { return parts_.size(); }
  size_t PartitionOf(uint64_t hash) const {
    return bits_ == 0 ? 0 : static_cast<size_t>(hash >> (64 - bits_));
  }

  /// Build partition `p` from every chunk's partition-`p` entries
  /// (chunks[c][p]), walked in chunk order.
  Status BuildPartition(size_t p,
                        const std::vector<std::vector<KeyedEntries>>& chunks,
                        util::DeadlineTicker* ticker) {
    Partition& part = parts_[p];
    size_t entries = 0;
    for (const auto& chunk : chunks) entries += chunk[p].positions.size();
    if (entries == 0) return Status::OK();
    size_t capacity = 16;
    while (capacity < entries * 2) capacity <<= 1;
    part.slots.assign(capacity, 0);
    std::vector<uint32_t> group_of;
    group_of.reserve(entries);
    std::vector<uint32_t> counts;
    for (const auto& chunk : chunks) {
      const KeyedEntries& c = chunk[p];
      for (size_t e = 0; e < c.positions.size(); ++e) {
        ASQP_RETURN_NOT_OK(ticker->Tick("hash-join build"));
        const uint32_t g =
            part.FindOrInsert(&c.keys[e * width_], c.hashes[e], width_);
        if (g == counts.size()) counts.push_back(0);
        ++counts[g];
        group_of.push_back(g);
      }
    }
    // Group the positions by key, stably: each key's positions stay in
    // build order.
    part.offsets.assign(counts.size() + 1, 0);
    for (size_t g = 0; g < counts.size(); ++g) {
      part.offsets[g + 1] = part.offsets[g] + counts[g];
    }
    std::vector<uint32_t> cursor(part.offsets.begin(), part.offsets.end() - 1);
    part.positions.resize(entries);
    size_t i = 0;
    for (const auto& chunk : chunks) {
      for (const uint32_t position : chunk[p].positions) {
        part.positions[cursor[group_of[i++]]++] = position;
      }
    }
    return Status::OK();
  }

  /// Build positions carrying `key` (hash `hash`), as [first, last).
  std::pair<const uint32_t*, const uint32_t*> Find(const uint64_t* key,
                                                   uint64_t hash) const {
    const Partition& part = parts_[PartitionOf(hash)];
    if (part.slots.empty()) return {nullptr, nullptr};
    const size_t mask = part.slots.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      const uint32_t g = part.slots[s];
      if (g == 0) return {nullptr, nullptr};
      if (std::equal(key, key + width_, &part.keys[(g - 1) * width_])) {
        const uint32_t* base = part.positions.data();
        return {base + part.offsets[g - 1], base + part.offsets[g]};
      }
    }
  }

 private:
  struct Partition {
    std::vector<uint32_t> slots;      // open addressing: group + 1, 0 = empty
    std::vector<uint64_t> keys;       // group g's key words at g * width
    std::vector<uint32_t> offsets;    // group g: positions[offsets[g], [g+1])
    std::vector<uint32_t> positions;  // build positions grouped by key

    uint32_t FindOrInsert(const uint64_t* key, uint64_t hash, size_t width) {
      const size_t mask = slots.size() - 1;
      for (size_t s = hash & mask;; s = (s + 1) & mask) {
        const uint32_t g = slots[s];
        if (g == 0) {
          keys.insert(keys.end(), key, key + width);
          const uint32_t group = static_cast<uint32_t>(keys.size() / width - 1);
          slots[s] = group + 1;
          return group;
        }
        if (std::equal(key, key + width, &keys[(g - 1) * width])) return g - 1;
      }
    }
  };

  size_t width_;
  size_t bits_ = 0;
  std::vector<Partition> parts_;
};

class Execution {
 public:
  /// `indexes` (may be null) is the catalog the *planner* already saw:
  /// the caller verifies scope coverage (IndexCatalog::CoversView) before
  /// passing it, so a non-null catalog here always matches `view`.
  /// `selections` (may be null) preloads some tables' filtered-scan output
  /// (see QueryEngine::ExecutePlanned); it must outlive the execution.
  Execution(const BoundQuery& q, const DatabaseView& view,
            const ExecOptions& options, const util::ExecContext& context,
            util::ThreadPool* pool, const storage::IndexCatalog* indexes,
            const std::vector<ScanSelection>* selections = nullptr)
      : q_(q),
        view_(view),
        options_(options),
        context_(context),
        pool_(pool),
        indexes_(indexes),
        selections_(selections),
        ticker_(context, /*stride=*/256) {}

  Result<ResultSet> Run() {
    ASQP_RETURN_NOT_OK(FilterScans());
    ASQP_RETURN_NOT_OK(Join());
    ASQP_RETURN_NOT_OK(CanonicalizeTupleOrder());
    if (q_.stmt.HasAggregates()) return Aggregate();
    return Project();
  }

  /// Run()'s row count. Without DISTINCT or aggregates each joined tuple
  /// projects to one row, so the count is the joined tuples capped by
  /// LIMIT, with no sort and no projection; otherwise the statement runs
  /// whole.
  Result<size_t> Count() {
    if (q_.stmt.distinct || q_.stmt.HasAggregates()) {
      ASQP_ASSIGN_OR_RETURN(ResultSet rs, Run());
      return rs.num_rows();
    }
    ASQP_RETURN_NOT_OK(FilterScans());
    ASQP_RETURN_NOT_OK(Join());
    const size_t n = joined_.size();
    if (q_.stmt.limit < 0) return n;
    return std::min(n, static_cast<size_t>(q_.stmt.limit));
  }

  Result<ProvenancedJoin> RunWithProvenance(size_t max_tuples) {
    ASQP_RETURN_NOT_OK(FilterScans());
    ASQP_RETURN_NOT_OK(Join());
    ProvenancedJoin out;
    const size_t n = q_.num_tables();
    out.table_names.reserve(n);
    for (size_t t = 0; t < n; ++t) out.table_names.push_back(q_.tables[t]->name());
    size_t count = joined_.size();
    if (max_tuples > 0) count = std::min(count, max_tuples);
    out.tuples.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t* src = joined_.tuple(i);
      out.tuples.emplace_back(src, src + n);
    }
    return out;
  }

 private:
  /// The index this table's chosen access path names, or null (full scan,
  /// no catalog, or the index is missing at runtime — e.g. its build
  /// failed — in which case the scan silently degrades to the full pass).
  const storage::OrderedIndex* IndexFor(size_t t) const {
    if (indexes_ == nullptr || q_.access_paths.size() != q_.num_tables()) {
      return nullptr;
    }
    const sql::AccessPath& ap = q_.access_paths[t];
    if (ap.kind != sql::AccessPath::Kind::kIndexRange) return nullptr;
    return indexes_->Find(q_.tables[t]->name(), ap.column);
  }

  /// Per-table filtered scan: the table's compiled conjuncts (ScanKernel)
  /// run over its scan domain through RunScan, morsel-parallel with a pool
  /// and merged in morsel order, matching the sequential left-to-right
  /// output exactly.
  ///
  /// When the planner chose an index range scan for a table, the scanned
  /// domain is the index's candidate ordinal list (sorted ascending — the
  /// order a full scan visits) instead of every visible row. All filter
  /// conjuncts are still evaluated per candidate: the converted conjunct's
  /// bounds make the candidate list a superset of its satisfying rows, so
  /// the surviving rows — and their order — are byte-identical to the full
  /// scan's at any thread count.
  Status FilterScans() {
    const size_t n = q_.num_tables();
    candidates_.resize(n);
    for (size_t t = 0; t < n; ++t) {
      // A preselected table (shared-scan output fed through
      // ExecutePlanned) already holds exactly this scan's result rows.
      if (selections_ != nullptr && t < selections_->size() &&
          (*selections_)[t] != nullptr) {
        candidates_[t] = *(*selections_)[t];
        continue;
      }
      ASQP_RETURN_NOT_OK(ScanTable(t, &candidates_[t]));
    }
    return Status::OK();
  }

  /// FROM table t's filtered scan over its domain: the index candidates of
  /// its access path, or every visible row.
  Status ScanTable(size_t t, std::vector<uint32_t>* rows) {
    std::vector<uint32_t> index_ordinals;
    const storage::OrderedIndex* index = IndexFor(t);
    if (index != nullptr) {
      const sql::AccessPath& ap = q_.access_paths[t];
      storage::IndexBound bound;
      bound.has_lower = ap.has_lower;
      bound.has_upper = ap.has_upper;
      bound.lower_inclusive = ap.lower_inclusive;
      bound.upper_inclusive = ap.upper_inclusive;
      bound.lower = ap.lower;
      bound.upper = ap.upper;
      index_ordinals = index->LookupRange(bound);
    }
    const ScanDomain domain(view_, *q_.tables[t],
                            index != nullptr ? &index_ordinals : nullptr);
    const ScanKernel kernel(q_, t);
    std::vector<std::vector<uint32_t>> out;
    ASQP_RETURN_NOT_OK(RunScan(pool_, options_.morsel_rows, context_, &ticker_,
                               "table scan", domain, {&kernel}, &out));
    *rows = std::move(out[0]);
    return Status::OK();
  }

  /// Run `fn(begin, end, &local, ticker)` over [0, input) and return the
  /// per-morsel outputs in morsel order: on the pool, one morsel of
  /// morsel_rows per task with its own ticker; without one, a single
  /// inline range on the sticky member ticker. Output rows (Local::size())
  /// are checked against max_intermediate_rows as they accumulate (`what`
  /// names the stage in the error).
  template <typename Local>
  Result<std::vector<Local>> RunMorsels(
      const char* what, size_t input,
      const std::function<Status(size_t begin, size_t end, Local* out,
                                 util::DeadlineTicker* ticker)>& fn) {
    const auto over_cap = [&](size_t rows) {
      return Status::ExecutionError(util::Format(
          "%s: intermediate join result exceeds %zu rows "
          "(%zu rows produced before the cap)",
          what, options_.max_intermediate_rows, rows));
    };
    if (pool_ == nullptr || input <= 1) {
      std::vector<Local> parts(1);
      ASQP_RETURN_NOT_OK(fn(0, input, &parts[0], &ticker_));
      if (parts[0].size() > options_.max_intermediate_rows) {
        return over_cap(parts[0].size());
      }
      return parts;
    }
    const size_t morsel = options_.morsel_rows;
    std::vector<Local> parts((input + morsel - 1) / morsel);
    std::atomic<size_t> total{0};
    ASQP_RETURN_NOT_OK(pool_->ParallelForChunked(
        input, morsel, [&](size_t chunk, size_t begin, size_t end) -> Status {
          util::DeadlineTicker ticker(context_, /*stride=*/256);
          ASQP_RETURN_NOT_OK(fn(begin, end, &parts[chunk], &ticker));
          const size_t so_far =
              total.fetch_add(parts[chunk].size(), std::memory_order_relaxed) +
              parts[chunk].size();
          if (so_far > options_.max_intermediate_rows) return over_cap(so_far);
          return Status::OK();
        }));
    return parts;
  }

  /// Rewrite `joined_`-sized input through `fn(begin, end, out, ticker)`
  /// morsel-parallel (RunMorsels): each morsel appends into its own
  /// TupleSet and the outputs are concatenated in morsel order, so the
  /// replacement is identical to a sequential left-to-right pass.
  Result<TupleSet> MorselRewrite(
      const char* what,
      const std::function<Status(size_t begin, size_t end, TupleSet* out,
                                 util::DeadlineTicker* ticker)>& fn) {
    const size_t n = joined_.num_tables;
    ASQP_ASSIGN_OR_RETURN(
        std::vector<TupleSet> parts,
        RunMorsels<TupleSet>(
            what, joined_.size(),
            [&](size_t begin, size_t end, TupleSet* out,
                util::DeadlineTicker* ticker) -> Status {
              out->num_tables = n;
              return fn(begin, end, out, ticker);
            }));
    if (parts.size() == 1) return std::move(parts[0]);
    TupleSet merged;
    merged.num_tables = n;
    size_t total_flat = 0;
    for (const TupleSet& p : parts) total_flat += p.flat.size();
    merged.flat.reserve(total_flat);
    for (const TupleSet& p : parts) {
      merged.flat.insert(merged.flat.end(), p.flat.begin(), p.flat.end());
    }
    return merged;
  }

  /// True when `order` is a permutation of [0, n) — the only join_order
  /// the executor honors (anything else falls back to runtime greedy).
  static bool IsJoinPermutation(const std::vector<int>& order, size_t n) {
    if (order.size() != n) return false;
    std::vector<bool> seen(n, false);
    for (int t : order) {
      if (t < 0 || static_cast<size_t>(t) >= n || seen[t]) return false;
      seen[t] = true;
    }
    return true;
  }

  /// Hash-join in a planned order (BoundQuery::join_order) when one is
  /// present, otherwise greedy: start from the smallest filtered table,
  /// repeatedly attach the connected table with the fewest candidate rows.
  Status Join() {
    const size_t n = q_.num_tables();
    joined_.num_tables = n;
    std::vector<bool> in_join(n, false);
    std::vector<bool> residual_done(q_.residual.size(), false);
    const bool planned = IsJoinPermutation(q_.join_order, n);
    attach_order_.clear();
    attach_order_.reserve(n);

    // Seed: the planned sequence head, or the smallest table.
    size_t seed = planned ? static_cast<size_t>(q_.join_order[0]) : 0;
    if (!planned) {
      for (size_t t = 1; t < n; ++t) {
        if (candidates_[t].size() < candidates_[seed].size()) seed = t;
      }
    }
    std::vector<uint32_t> tmp(n, 0);
    for (uint32_t row : candidates_[seed]) {
      tmp[seed] = row;
      joined_.Append(tmp.data());
    }
    in_join[seed] = true;
    attach_order_.push_back(seed);

    for (size_t step = 1; step < n; ++step) {
      // Pick the next table: the planned sequence when present, otherwise
      // connected to the joined set via at least one equi-predicate if
      // possible and smallest among those (disconnected join graph ->
      // cross product).
      int next = planned ? q_.join_order[step] : -1;
      bool next_connected = false;
      for (size_t t = 0; !planned && t < n; ++t) {
        if (in_join[t]) continue;
        bool connected = false;
        for (const JoinPredicate& jp : q_.joins) {
          const bool attaches =
              (jp.left_table == static_cast<int>(t) && in_join[jp.right_table]) ||
              (jp.right_table == static_cast<int>(t) && in_join[jp.left_table]);
          if (attaches) {
            connected = true;
            break;
          }
        }
        if (next < 0 ||
            (connected && !next_connected) ||
            (connected == next_connected &&
             candidates_[t].size() < candidates_[next].size())) {
          next = static_cast<int>(t);
          next_connected = connected;
        }
      }

      ASQP_RETURN_NOT_OK(AttachTable(static_cast<size_t>(next), in_join));
      in_join[next] = true;
      attach_order_.push_back(static_cast<size_t>(next));

      // Apply residual predicates whose tables are now all joined.
      ASQP_RETURN_NOT_OK(ApplyReadyResiduals(in_join, &residual_done));

      if (joined_.size() > options_.max_intermediate_rows) {
        return Status::ExecutionError(util::Format(
            "intermediate join result exceeds %zu rows",
            options_.max_intermediate_rows));
      }
      ASQP_RETURN_NOT_OK(context_.CheckRows(joined_.size(), "join"));
    }
    // Residuals with zero referenced tables (constant predicates) or any
    // left over (single-table query case).
    ASQP_RETURN_NOT_OK(ApplyReadyResiduals(in_join, &residual_done));
    return Status::OK();
  }

  /// Sort the joined tuples into the canonical order — lexicographic by
  /// row id in FROM position order — so the bytes downstream (projection
  /// row order, DISTINCT dedup order, morsel decomposition and thus the
  /// floating-point reduction tree of SUM/AVG partials) depend only on
  /// the tuple *set*, never on the join order that produced it. This is
  /// what makes plan search safe: planner-on and planner-off outputs are
  /// byte-identical by construction. Attaching tables in FROM order
  /// already emits this order (the probe preserves input order and
  /// per-key matches are in ascending candidate order), so the sort is
  /// skipped when the attach sequence was the identity.
  Status CanonicalizeTupleOrder() {
    const size_t n = q_.num_tables();
    if (n <= 1 || joined_.size() <= 1) return Status::OK();
    bool identity = true;
    for (size_t i = 0; i < attach_order_.size(); ++i) {
      if (attach_order_[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) return Status::OK();
    ASQP_RETURN_NOT_OK(ticker_.Tick("canonical order"));
    std::vector<uint32_t> index(joined_.size());
    for (size_t i = 0; i < index.size(); ++i) {
      index[i] = static_cast<uint32_t>(i);
    }
    std::sort(index.begin(), index.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t* ta = joined_.tuple(a);
      const uint32_t* tb = joined_.tuple(b);
      return std::lexicographical_compare(ta, ta + n, tb, tb + n);
    });
    TupleSet sorted;
    sorted.num_tables = n;
    sorted.flat.reserve(joined_.flat.size());
    for (uint32_t i : index) {
      sorted.Append(joined_.tuple(i));
    }
    joined_ = std::move(sorted);
    return Status::OK();
  }

  Status AttachTable(size_t t, const std::vector<bool>& in_join) {
    const size_t n = q_.num_tables();
    // Collect equi-predicates connecting t to the joined set.
    struct KeyPair {
      int joined_table;  // already-joined side
      int joined_col;
      int attach_col;    // column of table t
    };
    std::vector<KeyPair> keys;
    for (const JoinPredicate& jp : q_.joins) {
      if (jp.left_table == static_cast<int>(t) && in_join[jp.right_table]) {
        keys.push_back({jp.right_table, jp.right_col, jp.left_col});
      } else if (jp.right_table == static_cast<int>(t) && in_join[jp.left_table]) {
        keys.push_back({jp.left_table, jp.left_col, jp.right_col});
      }
    }

    TupleSet next;
    next.num_tables = n;

    if (keys.empty()) {
      // Cross product, morsel-parallel over the outer tuples: each morsel
      // emits |morsel| x |candidates| tuples into its own buffer. The row
      // cap is enforced incrementally (per outer row inside a morsel, then
      // on the accumulated total) instead of projected up front, so the
      // error reports how many rows were actually produced before the cap
      // and a mid-flight deadline cancels within one morsel.
      const std::vector<uint32_t>& cand = candidates_[t];
      ASQP_ASSIGN_OR_RETURN(
          next,
          MorselRewrite(
              "cross product",
              [&](size_t begin, size_t end, TupleSet* out,
                  util::DeadlineTicker* ticker) -> Status {
                std::vector<uint32_t> tmp(n, 0);
                for (size_t i = begin; i < end; ++i) {
                  ASQP_RETURN_NOT_OK(ticker->Tick("cross product"));
                  const uint32_t* src = joined_.tuple(i);
                  std::copy(src, src + n, tmp.begin());
                  for (uint32_t row : cand) {
                    tmp[t] = row;
                    out->Append(tmp.data());
                  }
                  if (out->size() > options_.max_intermediate_rows) {
                    return Status::ExecutionError(util::Format(
                        "cross product: intermediate join result exceeds "
                        "%zu rows (%zu rows produced before the cap)",
                        options_.max_intermediate_rows, out->size()));
                  }
                }
                return Status::OK();
              }));
      joined_ = std::move(next);
      return Status::OK();
    }

    // Hash join on fixed-width typed keys (KeyReader), hashing the smaller
    // input: table t's candidate rows, or the joined tuples when there are
    // fewer of those. Output order is the same either way — joined tuples
    // in order, each followed by its matching candidate rows in candidate
    // order.
    if (ASQP_FAULT_POINT("exec.join.alloc")) {
      return Status::ResourceExhausted(
          "injected fault(exec.join.alloc): hash-join build allocation failed");
    }
    const Table& attach_table = *q_.tables[t];
    const std::vector<uint32_t>& cand = candidates_[t];
    const bool build_joined = joined_.size() < cand.size();
    std::vector<KeyReader::Part> joined_parts;
    std::vector<KeyReader::Part> attach_parts;
    for (const KeyPair& kp : keys) {
      const storage::Column& jc =
          q_.tables[kp.joined_table]->column(kp.joined_col);
      const storage::Column& ac = attach_table.column(kp.attach_col);
      const KeyKind kind = KeyKindFor(jc.type(), ac.type());
      joined_parts.push_back({&jc, kind, kp.joined_table, nullptr});
      attach_parts.push_back({&ac, kind, -1, nullptr});
    }
    KeyReader joined_keys(std::move(joined_parts), &joined_);
    KeyReader attach_keys(std::move(attach_parts), &joined_);
    KeyReader& build_keys = build_joined ? joined_keys : attach_keys;
    const KeyReader& probe_keys = build_joined ? attach_keys : joined_keys;
    // Build positions: joined tuple indices, or candidate row ids.
    const uint32_t* build_rows = build_joined ? nullptr : cand.data();
    const size_t build_count = build_joined ? joined_.size() : cand.size();
    std::vector<std::vector<uint32_t>> translations(keys.size());
    ASQP_RETURN_NOT_OK(TranslateBuildCodes(build_rows, build_count, probe_keys,
                                           &build_keys, &translations));
    ASQP_ASSIGN_OR_RETURN(
        const JoinTable table,
        BuildJoinTable(build_keys, build_rows, build_count));
    const size_t width = keys.size();

    if (!build_joined) {
      // Probe with the joined tuples. The table is shared read-only across
      // morsels; each morsel appends matches to its own TupleSet. The
      // in-loop cap check bounds any single morsel's output even before
      // the merged total is validated.
      ASQP_ASSIGN_OR_RETURN(
          next,
          MorselRewrite(
              "hash-join probe",
              [&](size_t begin, size_t end, TupleSet* out,
                  util::DeadlineTicker* ticker) -> Status {
                std::vector<uint32_t> tmp(n, 0);
                std::vector<uint64_t> key(width);
                for (size_t i = begin; i < end; ++i) {
                  ASQP_RETURN_NOT_OK(ticker->Tick("hash-join probe"));
                  if (!probe_keys.Read(i, key.data())) continue;
                  const auto [first, last] =
                      table.Find(key.data(), HashKey(key.data(), width));
                  const uint32_t* src = joined_.tuple(i);
                  for (const uint32_t* match = first; match != last; ++match) {
                    std::copy(src, src + n, tmp.begin());
                    tmp[t] = *match;
                    out->Append(tmp.data());
                  }
                  if (out->size() > options_.max_intermediate_rows) {
                    return Status::ExecutionError(util::Format(
                        "intermediate join result exceeds %zu rows",
                        options_.max_intermediate_rows));
                  }
                }
                return Status::OK();
              }));
      joined_ = std::move(next);
      return Status::OK();
    }

    // Probe with the candidate rows, collecting (joined tuple, candidate
    // row) matches in candidate order; per key the table holds joined
    // tuple indices ascending.
    struct Match {
      uint32_t tuple;
      uint32_t row;
    };
    ASQP_ASSIGN_OR_RETURN(
        std::vector<std::vector<Match>> parts,
        RunMorsels<std::vector<Match>>(
            "hash-join probe", cand.size(),
            [&](size_t begin, size_t end, std::vector<Match>* out,
                util::DeadlineTicker* ticker) -> Status {
              std::vector<uint64_t> key(width);
              for (size_t i = begin; i < end; ++i) {
                ASQP_RETURN_NOT_OK(ticker->Tick("hash-join probe"));
                if (!probe_keys.Read(cand[i], key.data())) continue;
                const auto [first, last] =
                    table.Find(key.data(), HashKey(key.data(), width));
                for (const uint32_t* match = first; match != last; ++match) {
                  out->push_back({*match, cand[i]});
                }
                if (out->size() > options_.max_intermediate_rows) {
                  return Status::ExecutionError(util::Format(
                      "intermediate join result exceeds %zu rows",
                      options_.max_intermediate_rows));
                }
              }
              return Status::OK();
            }));
    // Restore probe order with a stable counting sort on the joined tuple
    // index: within one tuple the rows stay in candidate order, which is
    // exactly the order probing with the joined tuples produces.
    std::vector<uint32_t> start(joined_.size() + 1, 0);
    for (const std::vector<Match>& p : parts) {
      for (const Match& m : p) ++start[m.tuple + 1];
    }
    for (size_t i = 0; i < joined_.size(); ++i) start[i + 1] += start[i];
    std::vector<uint32_t> rows(start.back());
    std::vector<uint32_t> cursor(start.begin(), start.end() - 1);
    for (const std::vector<Match>& p : parts) {
      for (const Match& m : p) rows[cursor[m.tuple]++] = m.row;
    }
    next.flat.reserve(rows.size() * n);
    std::vector<uint32_t> tmp(n, 0);
    for (size_t i = 0; i < joined_.size(); ++i) {
      ASQP_RETURN_NOT_OK(ticker_.Tick("hash-join output"));
      const uint32_t* src = joined_.tuple(i);
      std::copy(src, src + n, tmp.begin());
      for (uint32_t k = start[i]; k < start[i + 1]; ++k) {
        tmp[t] = rows[k];
        next.Append(tmp.data());
      }
    }
    joined_ = std::move(next);
    return Status::OK();
  }

  /// Point every string key column of the build input at a translation of
  /// its dictionary codes into the probe column's dictionary, filled for
  /// exactly the codes the build rows hold (one FindCode per distinct
  /// code). A column pair sharing one dictionary needs none.
  Status TranslateBuildCodes(const uint32_t* build_rows, size_t build_count,
                             const KeyReader& probe, KeyReader* build,
                             std::vector<std::vector<uint32_t>>* translations) {
    for (size_t k = 0; k < build->width(); ++k) {
      KeyReader::Part& part = build->parts()[k];
      const storage::Column& probe_col = *probe.parts()[k].column;
      if (part.kind != KeyKind::kCode || part.column == &probe_col) continue;
      std::vector<uint32_t>& map = (*translations)[k];
      map.assign(part.column->dict_size(), kUntranslated);
      for (size_t i = 0; i < build_count; ++i) {
        ASQP_RETURN_NOT_OK(ticker_.Tick("hash-join key translation"));
        const uint32_t row =
            build->Row(part, build_rows != nullptr ? build_rows[i] : i);
        if (part.column->IsNull(row)) continue;
        const uint32_t build_code = part.column->StringCodeAt(row);
        uint32_t& code = map[build_code];
        if (code != kUntranslated) continue;
        code = probe_col.FindCode(part.column->dict_entry(build_code))
                   .value_or(kNoCode);
      }
      part.translate = &map;
    }
    return Status::OK();
  }

  /// The join table over build positions [0, count) (`rows[i]`, or i
  /// itself when rows is null). Sequentially the table has one partition, filled
  /// in build order. With a pool the build is radix-partitioned: map step,
  /// each morsel reads its keys and scatters (hash, position, key) entries
  /// into per-morsel partition buffers (partition = top bits of the hash);
  /// merge step, one task per partition inserts its buffers walking the
  /// morsels in morsel order. A key lives in exactly one partition, so
  /// every key's positions end up in build order, byte-identical to the
  /// sequential build.
  Result<JoinTable> BuildJoinTable(const KeyReader& keys,
                                   const uint32_t* rows, size_t count) {
    const bool parallel = pool_ != nullptr && count > 1;
    size_t partitions = parallel ? options_.build_partitions : 1;
    if (partitions == 0) {
      partitions = 1;
      while (partitions < options_.num_threads * 4 && partitions < 64) {
        partitions <<= 1;
      }
    }
    // Round down to a power of two: the partition is a prefix of the hash.
    while ((partitions & (partitions - 1)) != 0) partitions &= partitions - 1;
    const size_t width = keys.width();
    JoinTable table(width, partitions);
    const auto map_range = [&](size_t begin, size_t end,
                               std::vector<KeyedEntries>* buckets,
                               util::DeadlineTicker* ticker) -> Status {
      std::vector<uint64_t> key(width);
      for (size_t i = begin; i < end; ++i) {
        ASQP_RETURN_NOT_OK(ticker->Tick("hash-join build"));
        const size_t position = rows != nullptr ? rows[i] : i;
        if (!keys.Read(position, key.data())) continue;
        const uint64_t hash = HashKey(key.data(), width);
        KeyedEntries& bucket = (*buckets)[table.PartitionOf(hash)];
        bucket.hashes.push_back(hash);
        bucket.positions.push_back(static_cast<uint32_t>(position));
        bucket.keys.insert(bucket.keys.end(), key.begin(), key.end());
      }
      return Status::OK();
    };

    if (!parallel) {
      std::vector<std::vector<KeyedEntries>> chunks(1);
      chunks[0].resize(1);
      ASQP_RETURN_NOT_OK(map_range(0, count, &chunks[0], &ticker_));
      ASQP_RETURN_NOT_OK(table.BuildPartition(0, chunks, &ticker_));
      return table;
    }

    // exec.join.partition guards every partition allocation: each
    // morsel's partition buffers and each partition's hash table.
    const auto allocate_partitions = []() -> Status {
      if (ASQP_FAULT_POINT("exec.join.partition")) {
        return Status::ResourceExhausted(
            "injected fault(exec.join.partition): hash-join partition "
            "buffer allocation failed");
      }
      return Status::OK();
    };
    const size_t morsel = options_.morsel_rows;
    std::vector<std::vector<KeyedEntries>> chunk_buckets((count + morsel - 1) /
                                                         morsel);
    ASQP_RETURN_NOT_OK(pool_->ParallelForChunked(
        count, morsel, [&](size_t chunk, size_t begin, size_t end) -> Status {
          ASQP_RETURN_NOT_OK(allocate_partitions());
          util::DeadlineTicker ticker(context_, /*stride=*/256);
          std::vector<KeyedEntries> buckets(partitions);
          ASQP_RETURN_NOT_OK(map_range(begin, end, &buckets, &ticker));
          chunk_buckets[chunk] = std::move(buckets);
          return Status::OK();
        }));
    ASQP_RETURN_NOT_OK(pool_->ParallelForChunked(
        partitions, 1, [&](size_t, size_t p, size_t) -> Status {
          ASQP_RETURN_NOT_OK(allocate_partitions());
          util::DeadlineTicker ticker(context_, /*stride=*/256);
          return table.BuildPartition(p, chunk_buckets, &ticker);
        }));
    return table;
  }

  Status ApplyReadyResiduals(const std::vector<bool>& in_join,
                             std::vector<bool>* done) {
    for (size_t r = 0; r < q_.residual.size(); ++r) {
      if ((*done)[r]) continue;
      bool ready = true;
      for (int t : q_.residual_tables[r]) {
        if (!in_join[t]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      (*done)[r] = true;
      ASQP_ASSIGN_OR_RETURN(
          TupleSet next,
          MorselRewrite(
              "residual filter",
              [&](size_t begin, size_t end, TupleSet* out,
                  util::DeadlineTicker* ticker) -> Status {
                JoinedRow jr{&q_.tables, nullptr};
                for (size_t i = begin; i < end; ++i) {
                  ASQP_RETURN_NOT_OK(ticker->Tick("residual filter"));
                  jr.row_ids = joined_.tuple(i);
                  if (EvaluatePredicate(*q_.residual[r], jr)) {
                    out->Append(joined_.tuple(i));
                  }
                }
                return Status::OK();
              }));
      joined_ = std::move(next);
    }
    return Status::OK();
  }

  /// Column names for the output schema.
  std::vector<std::string> OutputNames() const {
    std::vector<std::string> names;
    for (const SelectItem& item : q_.stmt.items) {
      if (!item.alias.empty()) {
        names.push_back(item.alias);
      } else if (item.agg != AggFunc::kNone) {
        names.push_back(util::ToLower(sql::AggFuncName(item.agg)));
      } else if (item.star) {
        for (size_t t = 0; t < q_.num_tables(); ++t) {
          const Table& table = *q_.tables[t];
          for (const auto& f : table.schema().fields()) {
            names.push_back(q_.stmt.from[t].binding_name() + "." + f.name);
          }
        }
      } else {
        names.push_back(item.expr->ToSql());
      }
    }
    return names;
  }

  /// Per-morsel partial projection output: evaluated select-item rows plus
  /// (when sorting) their ORDER BY keys, aligned by index.
  struct ProjPartial {
    std::vector<std::vector<Value>> rows;
    std::vector<std::vector<Value>> keys;
  };

  Result<ResultSet> Project() {
    ResultSet out(OutputNames());
    const size_t input = joined_.size();
    const bool need_order = !q_.stmt.order_by.empty();
    const bool has_limit = q_.stmt.limit >= 0;
    const size_t limit = has_limit ? static_cast<size_t>(q_.stmt.limit) : 0;

    size_t expect = input;
    if (has_limit) expect = std::min(expect, limit);
    out.Reserve(expect);

    // Without ORDER BY and DISTINCT each input tuple yields exactly one
    // output row, so a LIMIT needs only the input prefix — the parallel
    // equivalent of the sequential early-exit fast path.
    size_t process = input;
    if (has_limit && !need_order && !q_.stmt.distinct) {
      process = std::min(process, limit);
    }

    std::vector<std::vector<Value>> order_keys;
    std::unordered_set<std::string> distinct_seen;

    // Evaluate select items (and ORDER BY keys) for tuples [begin, end)
    // into `partial`; runs thread-local on the pool.
    const auto eval_range = [&](size_t begin, size_t end, ProjPartial* partial,
                                util::DeadlineTicker* ticker) -> Status {
      JoinedRow jr{&q_.tables, nullptr};
      partial->rows.reserve(end - begin);
      if (need_order) partial->keys.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        ASQP_RETURN_NOT_OK(ticker->Tick("projection"));
        jr.row_ids = joined_.tuple(i);
        std::vector<Value> row;
        for (const SelectItem& item : q_.stmt.items) {
          if (item.star) {
            for (size_t t = 0; t < q_.num_tables(); ++t) {
              const Table& table = *q_.tables[t];
              for (size_t c = 0; c < table.num_columns(); ++c) {
                row.push_back(table.column(c).ValueAt(jr.row_ids[t]));
              }
            }
          } else {
            row.push_back(EvaluateScalar(*item.expr, jr));
          }
        }
        if (need_order) {
          std::vector<Value> keys;
          keys.reserve(q_.stmt.order_by.size());
          for (const auto& o : q_.stmt.order_by) {
            keys.push_back(EvaluateScalar(*o.expr, jr));
          }
          partial->keys.push_back(std::move(keys));
        }
        partial->rows.push_back(std::move(row));
      }
      return Status::OK();
    };

    // Fold one morsel's evaluated rows onto the result; always runs on the
    // calling thread in morsel order, so DISTINCT deduplicates in input
    // order and the LIMIT fast path keeps exactly the sequential prefix.
    const auto merge_partial = [&](ProjPartial* partial) -> Status {
      for (size_t i = 0; i < partial->rows.size(); ++i) {
        ASQP_RETURN_NOT_OK(ticker_.Tick("projection merge"));
        if (!need_order && has_limit && out.num_rows() >= limit) break;
        std::vector<Value>& row = partial->rows[i];
        if (q_.stmt.distinct) {
          std::string key;
          for (const Value& v : row) {
            key += ValueKey(v);
            key += '\x01';
          }
          if (!distinct_seen.insert(std::move(key)).second) continue;
        }
        if (need_order) order_keys.push_back(std::move(partial->keys[i]));
        out.AddRow(std::move(row));
      }
      return Status::OK();
    };

    if (pool_ != nullptr && process > 1) {
      ASQP_RETURN_NOT_OK(pool_->ParallelReduceOrdered<ProjPartial>(
          process, options_.morsel_rows,
          [&](size_t, size_t begin, size_t end, ProjPartial* partial)
              -> Status {
            util::DeadlineTicker ticker(context_, /*stride=*/256);
            return eval_range(begin, end, partial, &ticker);
          },
          [&](size_t, ProjPartial* partial) -> Status {
            return merge_partial(partial);
          }));
    } else {
      ProjPartial all;
      ASQP_RETURN_NOT_OK(eval_range(0, process, &all, &ticker_));
      ASQP_RETURN_NOT_OK(merge_partial(&all));
    }

    if (need_order) {
      std::vector<size_t> perm(out.num_rows());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < q_.stmt.order_by.size(); ++k) {
          const int cmp = order_keys[a][k].Compare(order_keys[b][k]);
          if (cmp != 0) return q_.stmt.order_by[k].desc ? cmp > 0 : cmp < 0;
        }
        return false;
      });
      std::vector<std::vector<Value>> sorted;
      sorted.reserve(perm.size());
      for (size_t idx : perm) sorted.push_back(std::move(out.mutable_rows()[idx]));
      out.mutable_rows() = std::move(sorted);
      if (q_.stmt.limit >= 0 &&
          out.num_rows() > static_cast<size_t>(q_.stmt.limit)) {
        out.mutable_rows().resize(static_cast<size_t>(q_.stmt.limit));
      }
    }
    return out;
  }

  /// Partial aggregate state for one select item within one group. COUNT,
  /// SUM, MIN, MAX, and AVG (= SUM/COUNT at finalize) merge associatively;
  /// agg(DISTINCT ...) defers folding: partials carry their deduplicated
  /// values in first-occurrence order and the fold happens once at
  /// finalize, over the merged order, so DISTINCT floating-point sums are
  /// accumulated in exactly the sequential order.
  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool has_minmax = false;
    Value min;
    Value max;
    bool has_first = false;
    Value first;  // non-agg select item: value from the group's first row
    std::vector<Value> distinct_values;    // agg(DISTINCT): insertion order
    std::unordered_set<std::string> seen;  // dedup keys for distinct_values
  };

  /// One group's partial state: the per-item AggStates. Keyed externally
  /// by the serialized GROUP BY tuple.
  using AggGroup = std::vector<AggState>;
  using AggTable = std::unordered_map<std::string, AggGroup>;

  /// Fold one non-NULL value into a running COUNT/SUM/MIN/MAX: the
  /// strict-compare min/max keep the earlier value on ties. Partial
  /// accumulation and the finalize replay of agg(DISTINCT) values share it.
  static void FoldValue(AggState* st, const Value& v) {
    ++st->count;
    st->sum += v.ToNumeric();
    if (!st->has_minmax) {
      st->min = v;
      st->max = v;
      st->has_minmax = true;
      return;
    }
    if (v.Compare(st->min) < 0) st->min = v;
    if (v.Compare(st->max) > 0) st->max = v;
  }

  /// Accumulate select item `item` of the row `jr` into its group state.
  static void AccumulateItem(const SelectItem& item, const JoinedRow& jr,
                             AggState* st) {
    if (item.agg == AggFunc::kNone) {
      if (!st->has_first) {
        st->first = item.star ? Value() : EvaluateScalar(*item.expr, jr);
        st->has_first = true;
      }
      return;
    }
    if (item.agg == AggFunc::kCount && item.star) {
      ++st->count;
      return;
    }
    const Value v = EvaluateScalar(*item.expr, jr);
    if (v.is_null()) return;
    if (item.distinct) {
      // Defer the fold: record each new value in first-occurrence order;
      // finalize replays them sequentially.
      if (st->seen.insert(ValueKey(v)).second) st->distinct_values.push_back(v);
      return;
    }
    FoldValue(st, v);
  }

  /// Merge one item's partial `b` (a later morsel) into `a`. Every rule
  /// keeps the earlier side on ties, so the merged state matches a
  /// sequential left-to-right accumulation.
  static void MergeAggState(AggState* a, AggState* b) {
    a->count += b->count;
    a->sum += b->sum;
    if (b->has_minmax && !a->has_minmax) {
      a->min = std::move(b->min);
      a->max = std::move(b->max);
      a->has_minmax = true;
    } else if (b->has_minmax) {
      if (b->min.Compare(a->min) < 0) a->min = std::move(b->min);
      if (b->max.Compare(a->max) > 0) a->max = std::move(b->max);
    }
    if (!a->has_first && b->has_first) {
      a->first = std::move(b->first);
      a->has_first = true;
    }
    for (Value& v : b->distinct_values) {
      if (a->seen.insert(ValueKey(v)).second) {
        a->distinct_values.push_back(std::move(v));
      }
    }
  }

  /// Merge `src` into `dst` (dst = earlier morsels, src = the next morsel
  /// in morsel order).
  static void MergeAggGroup(AggGroup* dst, AggGroup* src) {
    for (size_t s = 0; s < dst->size(); ++s) {
      MergeAggState(&(*dst)[s], &(*src)[s]);
    }
  }

  /// The output value of select item `item` from its merged group state.
  /// agg(DISTINCT) first replays the merged distinct values in first-
  /// occurrence order — the exact accumulation order of a sequential pass.
  static Value FinalValue(const SelectItem& item, AggState* st) {
    if (item.agg != AggFunc::kNone && item.distinct) {
      for (const Value& v : st->distinct_values) FoldValue(st, v);
    }
    switch (item.agg) {
      case AggFunc::kNone:
        return st->has_first ? std::move(st->first) : Value();
      case AggFunc::kCount:
        return Value(st->count);
      case AggFunc::kSum:
        return st->count == 0 ? Value() : Value(st->sum);
      case AggFunc::kAvg:
        return st->count == 0 ? Value()
                              : Value(st->sum / static_cast<double>(st->count));
      case AggFunc::kMin:
        return st->has_minmax ? st->min : Value();
      case AggFunc::kMax:
        return st->has_minmax ? st->max : Value();
    }
    return Value();
  }

  /// Group-and-aggregate. Parallel plan: every morsel accumulates a
  /// thread-local group table (map step), then the partial tables merge on
  /// the calling thread in morsel order into a std::map whose sorted key
  /// iteration is the canonical group order (the same order the previous
  /// single-pass implementation emitted). The sequential engine runs the
  /// identical morsel decomposition inline, so output — including the
  /// low-order bits of floating-point SUM/AVG partials — depends only on
  /// morsel_rows, never on the thread count.
  Result<ResultSet> Aggregate() {
    const bool post_process =
        q_.stmt.having != nullptr || !q_.stmt.order_by.empty();
    const size_t num_items = q_.stmt.items.size();
    const size_t input = joined_.size();

    // Map step: accumulate tuples [begin, end) into `local`.
    const auto partial_range = [&](size_t begin, size_t end, AggTable* local,
                                   util::DeadlineTicker* ticker) -> Status {
      if (ASQP_FAULT_POINT("exec.agg.partial")) {
        return Status::ResourceExhausted(
            "injected fault(exec.agg.partial): partial-aggregation table "
            "allocation failed");
      }
      JoinedRow jr{&q_.tables, nullptr};
      std::string key;
      for (size_t i = begin; i < end; ++i) {
        ASQP_RETURN_NOT_OK(ticker->Tick("aggregation"));
        jr.row_ids = joined_.tuple(i);
        key.clear();
        for (const ExprPtr& g : q_.stmt.group_by) {
          key += ValueKey(EvaluateScalar(*g, jr));
          key += '\x01';
        }
        auto [it, inserted] = local->try_emplace(key);
        if (inserted) it->second.resize(num_items);
        AggGroup& states = it->second;
        for (size_t s = 0; s < num_items; ++s) {
          AccumulateItem(q_.stmt.items[s], jr, &states[s]);
        }
      }
      return Status::OK();
    };

    // Reduce step: fold one morsel's partial table into the global hash
    // table. Group order is imposed once at finalization (a single sort
    // over the distinct keys) instead of per-row via std::map's log(n)
    // ordered inserts; the emitted order — sorted serialized group keys —
    // is byte-identical to the previous std::map iteration order.
    AggTable groups;
    const auto merge_table = [&](AggTable* local) -> Status {
      for (auto& [key, states] : *local) {
        ASQP_RETURN_NOT_OK(ticker_.Tick("aggregation merge"));
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted) {
          it->second = std::move(states);
        } else {
          MergeAggGroup(&it->second, &states);
        }
      }
      return Status::OK();
    };

    if (pool_ != nullptr && input > 1) {
      ASQP_RETURN_NOT_OK(pool_->ParallelReduceOrdered<AggTable>(
          input, options_.morsel_rows,
          [&](size_t, size_t begin, size_t end, AggTable* local) -> Status {
            util::DeadlineTicker ticker(context_, /*stride=*/256);
            return partial_range(begin, end, local, &ticker);
          },
          [&](size_t, AggTable* local) -> Status {
            return merge_table(local);
          }));
    } else {
      // Same morsel decomposition, inline: chunk k maps then reduces
      // before chunk k+1 starts — the identical left fold in morsel order.
      const size_t morsel = options_.morsel_rows;
      for (size_t begin = 0; begin < input; begin += morsel) {
        AggTable local;
        ASQP_RETURN_NOT_OK(partial_range(begin, std::min(input, begin + morsel),
                                         &local, &ticker_));
        ASQP_RETURN_NOT_OK(merge_table(&local));
      }
    }

    // Canonical group order: sort the distinct keys once. Emission then
    // walks the same sorted sequence the old std::map produced.
    std::vector<AggTable::value_type*> ordered;
    ordered.reserve(groups.size());
    for (auto& kv : groups) ordered.push_back(&kv);
    std::sort(ordered.begin(), ordered.end(),
              [](const AggTable::value_type* a, const AggTable::value_type* b) {
                return a->first < b->first;
              });

    ResultSet out(OutputNames());
    for (AggTable::value_type* kv : ordered) {
      ASQP_RETURN_NOT_OK(ticker_.Tick("aggregation finalize"));
      AggGroup& states = kv->second;
      std::vector<Value> row;
      row.reserve(num_items);
      for (size_t s = 0; s < num_items; ++s) {
        row.push_back(FinalValue(q_.stmt.items[s], &states[s]));
      }
      out.AddRow(std::move(row));
      // Early LIMIT only when no HAVING/ORDER BY will reshape the output.
      if (!post_process && q_.stmt.limit >= 0 &&
          out.num_rows() >= static_cast<size_t>(q_.stmt.limit)) {
        break;
      }
    }
    // An aggregate query without GROUP BY always yields one row, even over
    // empty input.
    if (q_.stmt.group_by.empty() && out.num_rows() == 0 &&
        (q_.stmt.limit < 0 || q_.stmt.limit > 0)) {
      std::vector<Value> row;
      for (const SelectItem& item : q_.stmt.items) {
        row.push_back(item.agg == AggFunc::kCount ? Value(int64_t{0}) : Value());
      }
      out.AddRow(std::move(row));
    }

    // HAVING: filter output rows by name-resolved predicate.
    if (q_.stmt.having != nullptr) {
      std::vector<std::vector<Value>> kept;
      for (auto& row : out.mutable_rows()) {
        ASQP_ASSIGN_OR_RETURN(
            bool pass, EvaluatePredicateOnRow(*q_.stmt.having,
                                              out.column_names(), row));
        if (pass) kept.push_back(std::move(row));
      }
      out.mutable_rows() = std::move(kept);
    }

    // ORDER BY over the aggregate output.
    if (!q_.stmt.order_by.empty()) {
      const size_t n = out.num_rows();
      std::vector<std::vector<Value>> keys(n);
      for (size_t i = 0; i < n; ++i) {
        for (const auto& o : q_.stmt.order_by) {
          ASQP_ASSIGN_OR_RETURN(
              Value key,
              EvaluateScalarOnRow(*o.expr, out.column_names(), out.row(i)));
          keys[i].push_back(std::move(key));
        }
      }
      std::vector<size_t> perm(n);
      for (size_t i = 0; i < n; ++i) perm[i] = i;
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < q_.stmt.order_by.size(); ++k) {
          const int cmp = keys[a][k].Compare(keys[b][k]);
          if (cmp != 0) return q_.stmt.order_by[k].desc ? cmp > 0 : cmp < 0;
        }
        return false;
      });
      std::vector<std::vector<Value>> sorted;
      sorted.reserve(n);
      for (size_t idx : perm) sorted.push_back(std::move(out.mutable_rows()[idx]));
      out.mutable_rows() = std::move(sorted);
    }

    if (post_process && q_.stmt.limit >= 0 &&
        out.num_rows() > static_cast<size_t>(q_.stmt.limit)) {
      out.mutable_rows().resize(static_cast<size_t>(q_.stmt.limit));
    }
    return out;
  }

  const BoundQuery& q_;
  const DatabaseView& view_;
  const ExecOptions& options_;
  const util::ExecContext& context_;
  util::ThreadPool* pool_;  // null = sequential
  /// Ordered indexes covering view_ (null = full scans only).
  const storage::IndexCatalog* indexes_;
  /// Preselected filtered-scan outputs (null = scan every table).
  const std::vector<ScanSelection>* selections_;
  util::DeadlineTicker ticker_;

  std::vector<std::vector<uint32_t>> candidates_;
  TupleSet joined_;
  /// The realized join sequence (seed first); drives the identity-order
  /// fast path of CanonicalizeTupleOrder.
  std::vector<size_t> attach_order_;
};

/// The index catalog an execution against `view` may read: the engine's
/// catalog only when its scope is exactly that view, so a full-database
/// execution through an engine carrying approximation-set indexes never
/// reads subset ordinals.
const storage::IndexCatalog* CatalogFor(const ExecOptions& options,
                                        const DatabaseView& view) {
  return options.index_catalog != nullptr &&
                 options.index_catalog->CoversView(view)
             ? options.index_catalog.get()
             : nullptr;
}

/// Plan `query` for `view` as Execute() does (planner on: statistics and
/// the view's catalog; off: the query as bound) and hand the execution to
/// `run`.
template <typename Run>
auto RunPlanned(const ExecOptions& options, util::ThreadPool* pool,
                const BoundQuery& query, const DatabaseView& view,
                const util::ExecContext& context, Run run) {
  const storage::IndexCatalog* indexes = CatalogFor(options, view);
  if (options.enable_planner) {
    const BoundQuery planned = plan::PlanQuery(
        query, options.planner_stats.get(), /*summary=*/nullptr, indexes);
    Execution exec(planned, view, options, context, pool, indexes);
    return run(exec);
  }
  Execution exec(query, view, options, context, pool, indexes);
  return run(exec);
}

}  // namespace

QueryEngine::QueryEngine(ExecOptions options) : options_(options) {
  if (options_.morsel_rows == 0) options_.morsel_rows = 1;
  if (options_.shared_pool != nullptr) {
    // Injected pool (the serving layer's process-wide pool): adopt it and
    // derive the concurrency from its size (workers + calling thread).
    pool_ = options_.shared_pool;
    options_.num_threads = pool_->num_threads() + 1;
  } else if (options_.num_threads > 1) {
    // The calling thread participates in ParallelForChunked, so
    // num_threads - 1 pool workers give num_threads total.
    pool_ = std::make_shared<util::ThreadPool>(options_.num_threads - 1);
  }
}

Result<ResultSet> QueryEngine::Execute(const BoundQuery& query,
                                       const DatabaseView& view,
                                       const util::ExecContext& context) const {
  return RunPlanned(options_, pool_.get(), query, view, context,
                    [](Execution& exec) { return exec.Run(); });
}

Result<size_t> QueryEngine::CountRows(const BoundQuery& query,
                                      const DatabaseView& view,
                                      const util::ExecContext& context) const {
  return RunPlanned(options_, pool_.get(), query, view, context,
                    [](Execution& exec) { return exec.Count(); });
}

sql::BoundQuery QueryEngine::PlanForView(const BoundQuery& query,
                                         const DatabaseView& view) const {
  if (!options_.enable_planner) return query;
  return plan::PlanQuery(query, options_.planner_stats.get(),
                         /*summary=*/nullptr, CatalogFor(options_, view));
}

Result<ResultSet> QueryEngine::ExecutePlanned(
    const BoundQuery& planned, const DatabaseView& view,
    const std::vector<ScanSelection>& selections,
    const util::ExecContext& context) const {
  Execution exec(planned, view, options_, context, pool_.get(),
                 CatalogFor(options_, view), &selections);
  return exec.Run();
}

util::Status QueryEngine::SharedFilterScan(
    const DatabaseView& view, const Table& table,
    const std::vector<SharedScanMember>& members,
    const util::ExecContext& context,
    std::vector<std::vector<uint32_t>>* out) const {
  if (members.empty()) {
    out->clear();
    return Status::OK();
  }
  // One pass over the table's visible ordinals: each block of rows is
  // gathered once and filtered through every member's compiled conjuncts —
  // the kernel FilterScans runs — so each member's output rows (and their
  // order) match its solo scan byte for byte.
  std::vector<ScanKernel> kernels;
  kernels.reserve(members.size());
  for (const SharedScanMember& member : members) {
    kernels.emplace_back(*member.query, member.table_index);
  }
  std::vector<const ScanKernel*> kernel_ptrs;
  for (const ScanKernel& kernel : kernels) kernel_ptrs.push_back(&kernel);
  util::DeadlineTicker ticker(context, /*stride=*/256);
  return RunScan(pool_.get(), options_.morsel_rows, context, &ticker,
                 "shared table scan", ScanDomain(view, table, nullptr),
                 kernel_ptrs, out);
}

std::string QueryEngine::Explain(const BoundQuery& query) const {
  if (!options_.enable_planner) {
    return "plan: planner disabled (runtime-greedy join order)\n";
  }
  plan::PlanSummary summary;
  // No view to check coverage against: EXPLAIN reports the plan as it
  // would run over the catalog's own scope (see ExecOptions::index_catalog).
  plan::PlanQuery(query, options_.planner_stats.get(), &summary,
                  options_.index_catalog.get());
  return summary.ToString();
}

Result<std::string> QueryEngine::ExplainSql(const std::string& sql,
                                            const DatabaseView& view) const {
  ASQP_ASSIGN_OR_RETURN(sql::BoundQuery bound,
                        sql::ParseAndBind(sql, view.db()));
  return Explain(bound);
}

Result<ResultSet> QueryEngine::ExecuteSql(
    const std::string& sql, const DatabaseView& view,
    const util::ExecContext& context) const {
  ASQP_ASSIGN_OR_RETURN(sql::BoundQuery bound,
                        sql::ParseAndBind(sql, view.db()));
  return Execute(bound, view, context);
}

Result<ProvenancedJoin> QueryEngine::ExecuteWithProvenance(
    const BoundQuery& query, const DatabaseView& view, size_t max_tuples,
    const util::ExecContext& context) const {
  // Never planned, so no access paths exist to consult a catalog for.
  Execution exec(query, view, options_, context, pool_.get(),
                 /*indexes=*/nullptr);
  return exec.RunWithProvenance(max_tuples);
}

}  // namespace exec
}  // namespace asqp
