// Columnar storage for one table column: a typed dense vector plus a null
// mask. Strings are dictionary-encoded, which keeps the synthetic datasets
// (highly repetitive categoricals) compact and makes equality fast.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/value.h"
#include "util/status.h"

namespace asqp {
namespace storage {

class Column {
 public:
  explicit Column(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const { return null_.size(); }

  void AppendNull() {
    null_.push_back(true);
    switch (type_) {
      case ValueType::kInt64: ints_.push_back(0); break;
      case ValueType::kDouble: doubles_.push_back(0.0); break;
      case ValueType::kString: codes_.push_back(0); break;
      default: break;
    }
  }

  void AppendInt64(int64_t v) {
    null_.push_back(false);
    ints_.push_back(v);
  }

  void AppendDouble(double v) {
    null_.push_back(false);
    doubles_.push_back(v);
  }

  void AppendString(const std::string& v) {
    null_.push_back(false);
    codes_.push_back(Intern(v));
  }

  /// Append a Value; the value type must match the column type or be NULL.
  [[nodiscard]] util::Status AppendValue(const Value& v);

  bool IsNull(size_t row) const { return null_[row]; }
  int64_t Int64At(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  const std::string& StringAt(size_t row) const { return dict_[codes_[row]]; }
  uint32_t StringCodeAt(size_t row) const { return codes_[row]; }
  size_t dict_size() const { return dict_.size(); }
  const std::string& dict_entry(uint32_t code) const { return dict_[code]; }
  /// Dictionary code of `s`, or nullopt when no row holds that string.
  /// Codes are unique per distinct string, so two non-null rows hold equal
  /// strings exactly when their codes are equal.
  std::optional<uint32_t> FindCode(const std::string& s) const {
    const auto it = dict_index_.find(s);
    if (it == dict_index_.end()) return std::nullopt;
    return it->second;
  }

  /// Materialize row `row` as a Value (allocates for strings).
  Value ValueAt(size_t row) const {
    if (null_[row]) return Value::Null();
    switch (type_) {
      case ValueType::kInt64: return Value(ints_[row]);
      case ValueType::kDouble: return Value(doubles_[row]);
      case ValueType::kString: return Value(dict_[codes_[row]]);
      default: return Value::Null();
    }
  }

  /// Numeric view of row `row` (0.0 for NULL / strings).
  double NumericAt(size_t row) const {
    if (null_[row]) return 0.0;
    switch (type_) {
      case ValueType::kInt64: return static_cast<double>(ints_[row]);
      case ValueType::kDouble: return doubles_[row];
      default: return 0.0;
    }
  }

 private:
  uint32_t Intern(const std::string& s) {
    auto it = dict_index_.find(s);
    if (it != dict_index_.end()) return it->second;
    const uint32_t code = static_cast<uint32_t>(dict_.size());
    dict_.push_back(s);
    dict_index_.emplace(s, code);
    return code;
  }

  ValueType type_;
  std::vector<bool> null_;
  std::vector<int64_t> ints_;      // used when type_ == kInt64
  std::vector<double> doubles_;    // used when type_ == kDouble
  std::vector<uint32_t> codes_;    // used when type_ == kString
  std::vector<std::string> dict_;
  std::unordered_map<std::string, uint32_t> dict_index_;
};

}  // namespace storage
}  // namespace asqp
