// The retired JSON reader: the recursive-descent JsonParser whose string
// decoder copied each plain run with one std::string::append and sent
// every escape through peek() and a switch. It is the ground truth the
// production json_parse must match on every input -- accept or reject
// alike, the same exception message with the same "at offset N", and the
// same decoded values (tests/test_json.cpp) -- and the baseline the
// tgs_perf request-parse benchmarks measure against.
//
// JsonValue's fields are private to the production parser, so the frozen
// parser fills a ReferenceJson holding the same fields in the open.
//
// Deliberately a straight copy of the retired code -- do not "optimize"
// it; its simplicity is the point.
#pragma once

#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace tgs::reference {

struct ReferenceJson {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<ReferenceJson> arr_;
  std::map<std::string, ReferenceJson> obj_;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  ReferenceJson parse_document() {
    ReferenceJson v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  using Type = ReferenceJson::Type;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  ReferenceJson parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    ReferenceJson v;
    switch (peek()) {
      case '{': parse_object(v); break;
      case '[': parse_array(v); break;
      case '"':
        v.type_ = Type::kString;
        v.str_ = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.type_ = Type::kBool;
        v.bool_ = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.type_ = Type::kBool;
        v.bool_ = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.type_ = Type::kNull;
        break;
      default:
        v.type_ = Type::kNumber;
        v.num_ = parse_number();
        break;
    }
    --depth_;
    return v;
  }

  void parse_object(ReferenceJson& v) {
    v.type_ = Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(ReferenceJson& v) {
    v.type_ = Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      v.arr_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy each run of plain bytes with one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("unescaped control character in string");
      ++pos_;  // backslash
      switch (peek()) {
        case '"': out.push_back('"'); ++pos_; break;
        case '\\': out.push_back('\\'); ++pos_; break;
        case '/': out.push_back('/'); ++pos_; break;
        case 'b': out.push_back('\b'); ++pos_; break;
        case 'f': out.push_back('\f'); ++pos_; break;
        case 'n': out.push_back('\n'); ++pos_; break;
        case 'r': out.push_back('\r'); ++pos_; break;
        case 't': out.push_back('\t'); ++pos_; break;
        case 'u': {
          ++pos_;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = peek();
            unsigned d;
            if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a') + 10;
            else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A') + 10;
            else fail("invalid \\u escape");
            cp = cp * 16 + d;
            ++pos_;
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    return std::strtod(text_.c_str() + start, nullptr);
  }

  static constexpr int kMaxDepth = 64;
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

inline ReferenceJson json_parse(const std::string& text) {
  JsonParser p(text);
  return p.parse_document();
}

}  // namespace tgs::reference
