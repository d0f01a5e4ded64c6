#ifndef QOCO_RELATIONAL_VALUE_H_
#define QOCO_RELATIONAL_VALUE_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "src/common/strings.h"

namespace qoco::relational {

/// A single database value: NULL, 64-bit integer, double, or string.
///
/// Values are ordered first by type tag, then by payload, which gives a
/// total order usable for sorted containers and for the systematic domain
/// enumeration of Proposition 3.4. Dates in the paper's datasets are stored
/// as strings ("13.07.14"), scores as strings ("1:0").
class Value {
 public:
  /// Constructs NULL.
  Value() : data_(std::monostate{}) {}
  /// Constructs an integer value.
  explicit Value(int64_t v) : data_(v) {}
  /// Constructs an integer value (disambiguates int literals).
  explicit Value(int v) : data_(static_cast<int64_t>(v)) {}
  /// Constructs a double value.
  explicit Value(double v) : data_(v) {}
  /// Constructs a string value.
  explicit Value(std::string v) : data_(std::move(v)) {}
  /// Constructs a string value from a literal.
  explicit Value(const char* v) : data_(std::string(v)) {}

  /// Copies are defined out of line (value.cc) so the std::variant copy —
  /// which GCC 12 misdiagnoses under -O2 (-Wmaybe-uninitialized, GCC
  /// PR105593) — is instantiated in exactly one translation unit, behind a
  /// targeted pragma, instead of suppressing the warning globally.
  Value(const Value& other);
  Value& operator=(const Value& other);
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  ~Value() = default;

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  /// The integer payload. Precondition: is_int().
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  /// The double payload. Precondition: is_double().
  double AsDouble() const { return std::get<double>(data_); }
  /// The string payload. Precondition: is_string().
  const std::string& AsString() const { return std::get<std::string>(data_); }

  friend bool operator==(const Value& a, const Value& b) {
    return a.data_ == b.data_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.data_ < b.data_;
  }

  /// Renders the value for display: NULL, 42, 3.5, or a bare string. A
  /// double prints in its shortest round-trip form (0.1234567, 1e-07,
  /// 1e+22), with a ".0" kept on integral values (3.0).
  std::string ToString() const;

  /// Stable hash over type tag and payload.
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// std::hash adapter for Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace qoco::relational

#endif  // QOCO_RELATIONAL_VALUE_H_
