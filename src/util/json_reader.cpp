#include "util/json_reader.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ides {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parseValue() {
    skipWhitespace();
    switch (peek()) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"': {
        JsonValue value;
        value.kind = JsonValue::Kind::String;
        value.stringValue = parseString();
        return value;
      }
      case 't':
      case 'f': {
        JsonValue value;
        value.kind = JsonValue::Kind::Bool;
        if (consumeLiteral("true")) {
          value.boolValue = true;
        } else if (consumeLiteral("false")) {
          value.boolValue = false;
        } else {
          fail("malformed literal");
        }
        return value;
      }
      case 'n': {
        if (!consumeLiteral("null")) fail("malformed literal");
        return JsonValue{};
      }
      default:
        return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::Object;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      value.members.emplace_back(std::move(key), parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::Array;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out += escape;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          // jsonQuote emits \u00XX for control bytes; decode the BMP code
          // point as a single byte when it fits, reject otherwise
          // (strictness beats silent mojibake in a store record).
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    // strtod needs a terminated buffer; the slice is short, copy it.
    const std::string slice(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(slice.c_str(), &end);
    if (end != slice.c_str() + slice.size() || !std::isfinite(parsed)) {
      fail("malformed number");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::Number;
    value.numberValue = parsed;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("json: missing key \"" + std::string(key) +
                             "\"");
  }
  return *value;
}

double JsonValue::numberAt(std::string_view key) const {
  const JsonValue& value = at(key);
  if (value.kind != Kind::Number) {
    throw std::runtime_error("json: key \"" + std::string(key) +
                             "\" is not a number");
  }
  return value.numberValue;
}

std::int64_t JsonValue::intAt(std::string_view key) const {
  return static_cast<std::int64_t>(numberAt(key));
}

bool JsonValue::boolAt(std::string_view key) const {
  const JsonValue& value = at(key);
  if (value.kind != Kind::Bool) {
    throw std::runtime_error("json: key \"" + std::string(key) +
                             "\" is not a bool");
  }
  return value.boolValue;
}

const std::string& JsonValue::stringAt(std::string_view key) const {
  const JsonValue& value = at(key);
  if (value.kind != Kind::String) {
    throw std::runtime_error("json: key \"" + std::string(key) +
                             "\" is not a string");
  }
  return value.stringValue;
}

JsonValue parseJson(std::string_view text) {
  return Parser(text).document();
}

std::string jsonQuote(std::string_view value) {
  // The control bytes JSON has short escapes for, and those escapes.
  static constexpr std::string_view kShort = "\b\t\n\f\r";
  static constexpr std::string_view kShortNames = "btnfr";
  std::string out = "\"";
  for (const char c : value) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte >= 0x20) {
      out += c;
    } else if (const std::size_t at = kShort.find(c);
               at != std::string_view::npos) {
      out += '\\';
      out += kShortNames[at];
    } else {
      char escape[8];
      std::snprintf(escape, sizeof escape, "\\u%04x",
                    static_cast<unsigned>(byte));
      out += escape;
    }
  }
  out += '"';
  return out;
}

}  // namespace ides
