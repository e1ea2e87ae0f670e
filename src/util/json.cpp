#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace dsa::util::json {

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const char* Value::type_name() const noexcept {
  switch (type) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "unknown";
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  Parser(std::string_view text, std::string_view origin, int first_line)
      : text_(text), origin_(origin), line_(first_line) {}

  Value parse_document() {
    skip_whitespace();
    Value value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(std::string(origin_) + ":" + std::to_string(line_) +
                     ": " + message);
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    if (c == '\n') ++line_;
    return c;
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
      take();
    }
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;  // point the error at the offending character's line
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_keyword(std::string_view keyword) {
    for (char c : keyword) {
      if (at_end() || text_[pos_] != c) fail("invalid literal");
      take();
    }
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    Value value;
    value.line = line_;
    const char c = peek();
    switch (c) {
      case '{': parse_object(value, depth); break;
      case '[': parse_array(value, depth); break;
      case '"':
        value.type = Value::Type::kString;
        value.text = parse_string();
        break;
      case 't':
        expect_keyword("true");
        value.type = Value::Type::kBool;
        value.boolean = true;
        break;
      case 'f':
        expect_keyword("false");
        value.type = Value::Type::kBool;
        value.boolean = false;
        break;
      case 'n':
        expect_keyword("null");
        value.type = Value::Type::kNull;
        break;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          value.type = Value::Type::kNumber;
          value.number = parse_number();
        } else {
          fail(std::string("unexpected character '") + c + "'");
        }
    }
    return value;
  }

  void parse_object(Value& value, int depth) {
    value.type = Value::Type::kObject;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      take();
      return;
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (value.find(key) != nullptr) {
        fail("duplicate object key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':');
      skip_whitespace();
      value.members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  void parse_array(Value& value, int depth) {
    value.type = Value::Type::kArray;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      take();
      return;
    }
    for (;;) {
      skip_whitespace();
      value.items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\n') fail("unescaped newline in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  std::string parse_unicode_escape() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      fail("surrogate \\u escapes are not supported");
    }
    // Encode the BMP code point as UTF-8.
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    if (!at_end() && peek() == '0') {
      take();
    } else {
      if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') take();
    }
    if (!at_end() && peek() == '.') {
      take();
      if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') take();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      take();
      if (!at_end() && (peek() == '+' || peek() == '-')) take();
      if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') take();
    }
    double parsed = 0.0;
    const auto result = std::from_chars(text_.data() + start,
                                        text_.data() + pos_, parsed);
    if (result.ec != std::errc() || result.ptr != text_.data() + pos_) {
      fail("invalid number");
    }
    return parsed;
  }

  std::string_view text_;
  std::string_view origin_;
  std::size_t pos_ = 0;
  int line_;
};

}  // namespace

Value parse(std::string_view text, std::string_view origin, int first_line) {
  return Parser(text, origin, first_line).parse_document();
}

Value parse_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read JSON file: " + path.string());
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return parse(contents.str(), path.string());
}

bool Cursor::is_object() const noexcept {
  return value_->type == Value::Type::kObject;
}
bool Cursor::is_array() const noexcept {
  return value_->type == Value::Type::kArray;
}
bool Cursor::is_string() const noexcept {
  return value_->type == Value::Type::kString;
}
bool Cursor::is_number() const noexcept {
  return value_->type == Value::Type::kNumber;
}

void Cursor::fail(const std::string& message) const {
  throw SchemaError(origin_ + ":" + std::to_string(value_->line) + ": " +
                    path_ + ": " + message);
}

bool Cursor::has(const std::string& key) const {
  if (!is_object()) {
    fail(std::string("expected object, got ") + value_->type_name());
  }
  return value_->find(key) != nullptr;
}

Cursor Cursor::key(const std::string& key) const {
  if (!is_object()) {
    fail(std::string("expected object, got ") + value_->type_name());
  }
  const Value* member = value_->find(key);
  if (member == nullptr) fail("missing required key \"" + key + "\"");
  return Cursor(member, *this, "." + key);
}

std::optional<Cursor> Cursor::try_key(const std::string& key) const {
  if (!is_object()) {
    fail(std::string("expected object, got ") + value_->type_name());
  }
  const Value* member = value_->find(key);
  if (member == nullptr) return std::nullopt;
  return Cursor(member, *this, "." + key);
}

void Cursor::allow_only(
    std::initializer_list<std::string_view> allowed) const {
  allow_only(
      std::span<const std::string_view>(allowed.begin(), allowed.size()));
}

void Cursor::allow_only(std::span<const std::string_view> allowed) const {
  if (!is_object()) {
    fail(std::string("expected object, got ") + value_->type_name());
  }
  for (const auto& [name, value] : value_->members) {
    (void)value;
    bool known = false;
    for (std::string_view candidate : allowed) {
      if (name == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string choices;
      for (std::string_view candidate : allowed) {
        if (!choices.empty()) choices += ", ";
        choices += candidate;
      }
      fail("unknown key \"" + name + "\" (allowed: " + choices + ")");
    }
  }
}

std::size_t Cursor::size() const {
  if (!is_array()) {
    fail(std::string("expected array, got ") + value_->type_name());
  }
  return value_->items.size();
}

Cursor Cursor::at(std::size_t i) const {
  if (!is_array()) {
    fail(std::string("expected array, got ") + value_->type_name());
  }
  if (i >= value_->items.size()) {
    fail("index " + std::to_string(i) + " outside array of size " +
         std::to_string(value_->items.size()));
  }
  // Appended, not `"[" + std::string&&`, which GCC 12 flags with a
  // false-positive -Wrestrict.
  std::string step = "[";
  step += std::to_string(i);
  step += ']';
  return Cursor(&value_->items[i], *this, std::move(step));
}

std::string Cursor::as_string() const {
  if (!is_string()) {
    fail(std::string("expected string, got ") + value_->type_name());
  }
  return value_->text;
}

double Cursor::as_double() const {
  if (!is_number()) {
    fail(std::string("expected number, got ") + value_->type_name());
  }
  return value_->number;
}

std::int64_t Cursor::as_int() const {
  const double v = as_double();
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (std::floor(v) != v || std::abs(v) > kMaxExact) {
    fail("expected integer, got " + std::to_string(v));
  }
  return static_cast<std::int64_t>(v);
}

bool Cursor::as_bool() const {
  if (value_->type != Value::Type::kBool) {
    fail(std::string("expected bool, got ") + value_->type_name());
  }
  return value_->boolean;
}

}  // namespace dsa::util::json
