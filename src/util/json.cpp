#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tb::json {
namespace {

constexpr int kMaxDepth = 64;

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("json: " + what + " at byte " +
                              std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Value::string_v(parse_string());
      case 't':
        if (!consume_literal("true")) fail(pos_, "invalid literal");
        return Value::boolean_v(true);
      case 'f':
        if (!consume_literal("false")) fail(pos_, "invalid literal");
        return Value::boolean_v(false);
      case 'n':
        if (!consume_literal("null")) fail(pos_, "invalid literal");
        return Value::null();
      default:
        return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value v = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Value v = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.items.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail(pos_ - 1, "invalid \\u escape");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_];
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!consume_literal("\\u")) fail(pos_, "unpaired surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail(pos_ - 4, "unpaired surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail(pos_ - 4, "unpaired surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail(pos_ - 1, "invalid escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;  // leading zero: no further integer digits allowed
    } else if (digits() == 0) {
      fail(start, "invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(start, "invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail(start, "invalid number");
    }
    const std::string tok = text_.substr(start, pos_ - start);
    return Value::number_v(std::strtod(tok.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// %.17g rendering of a finite double; non-finite values render as "null"
/// (JSON has no NaN/Infinity literals).
std::string number_to_string(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void dump_to(const Value& v, std::string& out) {
  switch (v.kind) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += v.boolean ? "true" : "false";
      break;
    case Kind::Number:
      out += number_to_string(v.number);
      break;
    case Kind::String:
      out += '"';
      out += escape(v.string);
      out += '"';
      break;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out += ", ";
        dump_to(v.items[i], out);
      }
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i > 0) out += ", ";
        out += '"';
        out += escape(v.members[i].first);
        out += "\": ";
        dump_to(v.members[i].second, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

Value Value::null() { return Value{}; }

Value Value::boolean_v(bool b) {
  Value v;
  v.kind = Kind::Bool;
  v.boolean = b;
  return v;
}

Value Value::number_v(double n) {
  Value v;
  v.kind = Kind::Number;
  v.number = n;
  return v;
}

Value Value::string_v(std::string s) {
  Value v;
  v.kind = Kind::String;
  v.string = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind = Kind::Array;
  return v;
}

Value Value::object() {
  Value v;
  v.kind = Kind::Object;
  return v;
}

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, val] : members) {
    if (k == key) return &val;
  }
  return nullptr;
}

void Value::set(std::string key, Value v) {
  kind = Kind::Object;
  members.emplace_back(std::move(key), std::move(v));
}

const std::string& Value::as_string(const char* what) const {
  if (kind != Kind::String) {
    throw std::invalid_argument(std::string(what) + " must be a string");
  }
  return string;
}

double Value::as_number(const char* what) const {
  if (kind != Kind::Number) {
    throw std::invalid_argument(std::string(what) + " must be a number");
  }
  return number;
}

bool Value::as_bool(const char* what) const {
  if (kind != Kind::Bool) {
    throw std::invalid_argument(std::string(what) + " must be a boolean");
  }
  return boolean;
}

long Value::as_int(const char* what, long lo, long hi) const {
  const double n = as_number(what);
  if (!std::isfinite(n) || n != std::floor(n)) {
    throw std::invalid_argument(std::string(what) + " must be an integer");
  }
  if (n < static_cast<double>(lo) || n > static_cast<double>(hi)) {
    throw std::invalid_argument(std::string(what) + " must be in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "]");
  }
  return static_cast<long>(n);
}

Value parse(const std::string& text) { return Parser(text).parse_document(); }

std::string dump(const Value& v) {
  std::string out;
  dump_to(v, out);
  return out;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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

}  // namespace tb::json
