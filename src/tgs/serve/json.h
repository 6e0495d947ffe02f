// Minimal recursive-descent JSON parser for the serve protocol.
//
// The repo writes JSON through exec/jsonl.h; the daemon additionally has to
// *read* it. This parser covers the full JSON grammar (objects, arrays,
// strings with escapes, numbers, booleans, null) with two deliberate
// simplifications: numbers are stored as double (protocol fields are small
// integers and ratios), and \uXXXX escapes outside the BMP are encoded as
// their surrogate code points individually. No protocol field is an array,
// so an array is parsed and validated but keeps no elements: it is a value
// every typed accessor rejects.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

namespace tgs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }

  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Typed member accessors with fallback; throw std::invalid_argument
  /// ("field 'x' must be a string/number/bool") when the member exists but
  /// has the wrong type -- protocol errors should name the offending field.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// get_string that moves the member's text out instead of copying it.
  std::string take_string(const std::string& key,
                          const std::string& fallback);
  double get_number(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  friend class JsonParser;
  /// Member `key` when present and not null, else nullptr; throws when it
  /// is not of `type`.
  const JsonValue* member(const std::string& key, Type type,
                          const char* type_name) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::map<std::string, JsonValue> obj_;
};

/// Parse one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws std::invalid_argument with an offset-bearing
/// message on malformed input.
JsonValue json_parse(const std::string& text);

}  // namespace tgs
