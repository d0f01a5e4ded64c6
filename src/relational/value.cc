#include "src/relational/value.h"

#include <charconv>
#include <functional>

namespace qoco::relational {

// The only translation unit that instantiates the variant copy: GCC 12
// emits false-positive -Wmaybe-uninitialized for std::variant copy
// construction under -O2 (GCC PR105593), which would otherwise fire on
// every Value temporary in every TU. Keeping the copy out of line confines
// the suppression to these two definitions and leaves the warning live for
// all other code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

Value::Value(const Value& other) : data_(other.data_) {}

Value& Value::operator=(const Value& other) {
  data_ = other.data_;
  return *this;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    // Shortest form that parses back to the same double, so journals, CSV
    // and question signatures keep every digit.
    char buf[32] = {};
    std::string s(buf, std::to_chars(buf, buf + sizeof(buf), AsDouble()).ptr);
    // An integral value keeps a ".0" so it parses back as a double.
    if (s.find_first_not_of("-0123456789") == std::string::npos) s += ".0";
    return s;
  }
  return AsString();
}

size_t Value::Hash() const {
  size_t seed = data_.index();
  if (is_int()) {
    common::HashCombine(&seed, std::hash<int64_t>{}(AsInt()));
  } else if (is_double()) {
    common::HashCombine(&seed, std::hash<double>{}(AsDouble()));
  } else if (is_string()) {
    common::HashCombine(&seed, std::hash<std::string>{}(AsString()));
  }
  return seed;
}

}  // namespace qoco::relational
