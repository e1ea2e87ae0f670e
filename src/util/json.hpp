// Minimal strict JSON layer shared by the scenario spec parser and the obs
// writers.
//
// Reading: parse() builds a Value tree from RFC 8259 JSON, tracking the
// 1-based source line of every value and rejecting duplicate object keys
// (a typo'd spec key must not silently shadow the real one). Cursor wraps a
// Value with its "$.grid.seeds[2]"-style key path, so every schema error a
// reader raises names the file, line, and offending key path.
//
// Writing: escape() is the one string-escaping implementation behind the
// metrics JSONL, Chrome trace, and scenario manifest writers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsa::util::json {

/// Escapes `text` for embedding inside a JSON string literal. Handles the
/// characters RFC 8259 requires; everything else passes through verbatim.
std::string escape(std::string_view text);

/// Malformed JSON text; the message is "<origin>:<line>: <reason>".
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A schema violation found by a Cursor; the message is
/// "<origin>:<line>: $.key.path: <reason>".
struct SchemaError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value. A plain open tree: readers either walk the public
/// fields directly or go through Cursor for path-tracking errors.
class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  int line = 0;  // 1-based source line where the value starts
  bool boolean = false;
  double number = 0.0;
  std::string text;  // string values
  std::vector<Value> items;                             // arrays
  std::vector<std::pair<std::string, Value>> members;   // objects, file order

  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// "object", "array", "string", ... for error messages.
  [[nodiscard]] const char* type_name() const noexcept;
};

/// Parses one JSON document; `origin` names the source in error messages
/// (typically the file path) and `first_line` is the source line `text`
/// starts on (a JSONL reader passes each line's number). Throws ParseError
/// on malformed input, duplicate object keys, or trailing content.
Value parse(std::string_view text, std::string_view origin = "<json>",
            int first_line = 1);

/// Reads and parses a file; the path becomes the error origin. Throws
/// std::runtime_error when the file cannot be read, ParseError on bad JSON.
Value parse_file(const std::filesystem::path& path);

/// A view of one Value plus the key path that led to it. All accessors
/// throw SchemaError naming the origin, line, and path on a type or
/// presence mismatch, so spec authors see exactly which key is wrong.
class Cursor {
 public:
  /// Roots a cursor at `$`. The Value must outlive the cursor.
  Cursor(const Value& root, std::string origin)
      : value_(&root), origin_(std::move(origin)), path_("$") {}

  [[nodiscard]] const Value& value() const noexcept { return *value_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  [[nodiscard]] bool is_object() const noexcept;
  [[nodiscard]] bool is_array() const noexcept;
  [[nodiscard]] bool is_string() const noexcept;
  [[nodiscard]] bool is_number() const noexcept;

  /// True when this object has `key`; fails unless the value is an object.
  [[nodiscard]] bool has(const std::string& key) const;

  /// Descends into a required object member; fails when absent.
  [[nodiscard]] Cursor key(const std::string& key) const;

  /// Descends into an optional object member.
  [[nodiscard]] std::optional<Cursor> try_key(const std::string& key) const;

  /// Fails when the object holds any key outside `allowed` — the
  /// unknown-key rejection that catches spec typos. The span form takes an
  /// allow-list assembled at run time.
  void allow_only(std::initializer_list<std::string_view> allowed) const;
  void allow_only(std::span<const std::string_view> allowed) const;

  /// Array length; fails unless the value is an array.
  [[nodiscard]] std::size_t size() const;

  /// Descends into array element `i` (appends "[i]" to the path).
  [[nodiscard]] Cursor at(std::size_t i) const;

  /// Typed reads; each fails with "expected <type>, got <actual>".
  [[nodiscard]] std::string as_string() const;
  [[nodiscard]] double as_double() const;
  /// Rejects non-integral numbers and magnitudes above 2^53.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] bool as_bool() const;

  /// Raises a SchemaError at this cursor's location with a custom reason.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  Cursor(const Value* value, const Cursor& parent, std::string suffix)
      : value_(value),
        origin_(parent.origin_),
        path_(parent.path_ + std::move(suffix)) {}

  const Value* value_;
  std::string origin_;
  std::string path_;
};

}  // namespace dsa::util::json
