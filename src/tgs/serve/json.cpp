#include "tgs/serve/json.h"

#include <array>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "tgs/util/swar.h"

namespace tgs {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::member(const std::string& key, Type type,
                                   const char* type_name) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return nullptr;
  if (v->type_ != type)
    throw std::invalid_argument("field '" + key + "' must be " + type_name);
  return v;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = member(key, Type::kString, "a string");
  return v == nullptr ? fallback : v->str_;
}

std::string JsonValue::take_string(const std::string& key,
                                   const std::string& fallback) {
  // `this` is non-const, so the member found through it is too.
  JsonValue* v = const_cast<JsonValue*>(member(key, Type::kString, "a string"));
  return v == nullptr ? fallback : std::move(v->str_);
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = member(key, Type::kNumber, "a number");
  return v == nullptr ? fallback : v->num_;
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = member(key, Type::kBool, "a boolean");
  return v == nullptr ? fallback : v->bool_;
}

namespace {

/// The high bit of every byte of `x` that is a backslash or a control
/// character.
std::uint64_t special_bytes(std::uint64_t x) {
  return swar::equal(x, '\\') | swar::below(x, 0x20);
}

bool special(char c) {
  return c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Copies the bytes of [p, stop) before the first backslash or control
/// character to `w` and returns their count. `w` must have room for
/// stop - p bytes; words are copied whole, so bytes past the count may be
/// written too.
std::size_t copy_plain(const char* p, const char* stop, char* w) {
  const char* const start = p;
  for (; stop - p >= 8; p += 8, w += 8) {
    std::memcpy(w, p, 8);
    if (const std::uint64_t m = special_bytes(swar::load(p)); m != 0)
      return static_cast<std::size_t>(p - start) + swar::first(m);
  }
  while (p != stop && !special(*p)) *w++ = *p++;
  return static_cast<std::size_t>(p - start);
}

/// Offset of the quote that closes a string whose text starts at `from`:
/// the first '"' after an even run of backslashes (an odd run escapes it).
/// npos when the string is unterminated.
std::size_t closing_quote(const std::string& text, std::size_t from) {
  for (std::size_t q = text.find('"', from); q != std::string::npos;
       q = text.find('"', q + 1)) {
    std::size_t b = q;
    while (b > from && text[b - 1] == '\\') --b;
    if ((q - b) % 2 == 0) return q;
  }
  return std::string::npos;
}

/// The byte an escape letter stands for; 0 for none ('u' is decoded apart).
constexpr std::array<char, 256> kUnescape = [] {
  std::array<char, 256> t{};
  t['"'] = '"';
  t['\\'] = '\\';
  t['/'] = '/';
  t['b'] = '\b';
  t['f'] = '\f';
  t['n'] = '\n';
  t['r'] = '\r';
  t['t'] = '\t';
  return t;
}();

/// Hex digit value, -1 for a non-digit.
constexpr std::array<int, 256> kHexDigit = [] {
  std::array<int, 256> t{};
  t.fill(-1);
  for (int i = 0; i < 10; ++i) t['0' + i] = i;
  for (int i = 0; i < 6; ++i) t['a' + i] = t['A' + i] = 10 + i;
  return t;
}();

/// Writes code point `cp` (< 0x10000) as UTF-8; returns the end.
char* put_utf8(char* w, unsigned cp) {
  if (cp < 0x80) {
    *w++ = static_cast<char>(cp);
  } else if (cp < 0x800) {
    *w++ = static_cast<char>(0xc0 | (cp >> 6));
    *w++ = static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    *w++ = static_cast<char>(0xe0 | (cp >> 12));
    *w++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    *w++ = static_cast<char>(0x80 | (cp & 0x3f));
  }
  return w;
}

}  // namespace

// Not in an anonymous namespace: JsonValue friends this exact name.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  [[noreturn]] void fail_at(const char* p, const std::string& what) {
    pos_ = static_cast<std::size_t>(p - text_.data());
    fail(what);
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

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': parse_object(v); break;
      case '[': parse_array(v); break;
      case '"':
        v.type_ = JsonValue::Type::kString;
        v.str_ = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.type_ = JsonValue::Type::kNull;
        break;
      default:
        v.type_ = JsonValue::Type::kNumber;
        v.num_ = parse_number();
        break;
    }
    --depth_;
    return v;
  }

  void parse_object(JsonValue& v) {
    v.type_ = JsonValue::Type::kObject;
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

  void parse_array(JsonValue& v) {
    v.type_ = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      parse_value();  // validated, not kept
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  // The closing quote is found first (one memchr per quote in the text).
  // It bounds the decoded length, since no escape is shorter than what it
  // stands for, so the string is then decoded in one pass into a buffer
  // sized once: plain bytes move eight at a time and an escape is one table
  // lookup. Errors name the same offsets as a byte-at-a-time scan.
  std::string parse_string() {
    expect('"');
    const std::size_t quote = closing_quote(text_, pos_);
    const char* const begin = text_.data();
    const char* const stop = begin + (quote == std::string::npos ? text_.size()
                                                                 : quote);
    const char* const end = begin + text_.size();
    const char* p = begin + pos_;
    std::string out(static_cast<std::size_t>(stop - p), '\0');
    char* w = out.data();
    for (;;) {
      const std::size_t run = copy_plain(p, stop, w);
      p += run;
      w += run;
      if (p == stop) break;
      if (*p != '\\') fail_at(p, "unescaped control character in string");
      if (++p == end) fail_at(p, "unexpected end of input");
      if (*p == 'u') {
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
          if (++p == end) fail_at(p, "unexpected end of input");
          const int d = kHexDigit[static_cast<unsigned char>(*p)];
          if (d < 0) fail_at(p, "invalid \\u escape");
          cp = cp * 16 + static_cast<unsigned>(d);
        }
        w = put_utf8(w, cp);
      } else {
        const char c = kUnescape[static_cast<unsigned char>(*p)];
        if (c == '\0') fail_at(p, "invalid escape");
        *w++ = c;
      }
      ++p;
    }
    if (quote == std::string::npos) fail_at(end, "unterminated string");
    pos_ = quote + 1;
    out.resize(static_cast<std::size_t>(w - out.data()));
    return out;
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

JsonValue json_parse(const std::string& text) {
  JsonParser p(text);
  return p.parse_document();
}

}  // namespace tgs
