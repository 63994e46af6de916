#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace xssd::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser (RFC 8259 syntax, DOM output).

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue root;
    if (!Value(&root, 0)) return Error();
    SkipWs();
    if (pos_ != text_.size()) {
      reason_ = "trailing characters";
      return Error();
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 32;

  Status Error() const {
    return Status::InvalidArgument(
        "invalid JSON at byte " + std::to_string(pos_) + ": " +
        (reason_.empty() ? "syntax error" : reason_));
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      reason_ = "nesting too deep";
      return false;
    }
    switch (Peek()) {
      case '{':
        return Object(out, depth);
      case '[':
        return Array(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return String(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return Number(out);
    }
  }

  bool Object(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!String(&key)) {
        reason_ = "expected object key";
        return false;
      }
      SkipWs();
      if (!Eat(':')) {
        reason_ = "expected ':'";
        return false;
      }
      SkipWs();
      JsonValue value;
      if (!Value(&value, depth + 1)) return false;
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat('}')) return true;
      reason_ = "expected ',' or '}'";
      return false;
    }
  }

  bool Array(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      SkipWs();
      JsonValue item;
      if (!Value(&item, depth + 1)) return false;
      out->items.push_back(std::move(item));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat(']')) return true;
      reason_ = "expected ',' or ']'";
      return false;
    }
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) {
        reason_ = "unescaped control character in string";
        return false;
      }
      if (c == '\\') {
        ++pos_;
        char esc = Peek();
        ++pos_;
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i, ++pos_) {
              char h = Peek();
              if (!std::isxdigit(static_cast<unsigned char>(h))) {
                reason_ = "bad \\u escape";
                return false;
              }
              code = code * 16 + static_cast<unsigned>(
                                     std::isdigit(static_cast<unsigned char>(h))
                                         ? h - '0'
                                         : std::tolower(h) - 'a' + 10);
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // recombined — plan files are expected to be ASCII).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            reason_ = "bad escape";
            return false;
        }
        continue;
      }
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
    reason_ = "unterminated string";
    return false;
  }

  bool Number(JsonValue* out) {
    size_t start = pos_;
    Eat('-');
    if (Peek() == '0') {
      ++pos_;  // leading zero may not be followed by more digits
    } else if (!Digits()) {
      reason_ = "expected value";
      return false;
    }
    if (Eat('.') && !Digits()) {
      reason_ = "digits required after '.'";
      return false;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!Digits()) {
        reason_ = "digits required in exponent";
        return false;
      }
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                              nullptr);
    return true;
  }

  bool Digits() {
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string reason_;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

// ---------------------------------------------------------------------------

void JsonExporter::Write(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : registry_->counters()) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": " << counter->value();
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : registry_->gauges()) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": " << JsonNumber(gauge->value());
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"latencies\": {";
  first = true;
  for (const auto& [name, rec] : registry_->latencies()) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": {"
        << "\"count\": " << rec->count()
        << ", \"min\": " << JsonNumber(rec->Min())
        << ", \"mean\": " << JsonNumber(rec->Mean())
        << ", \"p50\": " << JsonNumber(rec->Percentile(50))
        << ", \"p90\": " << JsonNumber(rec->Percentile(90))
        << ", \"p99\": " << JsonNumber(rec->Percentile(99))
        << ", \"max\": " << JsonNumber(rec->Max()) << "}";
    first = false;
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
}

std::string JsonExporter::ToString() const {
  std::ostringstream out;
  Write(out);
  return out.str();
}

Status JsonExporter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  Write(out);
  out.flush();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace xssd::obs
