#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace mpass::obs {

void json_escape(std::string& out, std::string_view s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

void json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out += buf;
}

const Json* Json::get(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = fields_.find(std::string(key));
  return it == fields_.end() ? nullptr : &it->second;
}

// ---- parser -----------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  std::optional<Json> run() {
    skip_ws();
    Json v;
    if (!value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Json& out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        out.kind_ = Json::Kind::String;
        return string(out.str_);
      }
      case 't':
        out.kind_ = Json::Kind::Bool;
        out.num_ = 1.0;
        return literal("true");
      case 'f':
        out.kind_ = Json::Kind::Bool;
        out.num_ = 0.0;
        return literal("false");
      case 'n':
        out.kind_ = Json::Kind::Null;
        return literal("null");
      default: return number(out);
    }
  }

  bool object(Json& out) {
    out.kind_ = Json::Kind::Object;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      Json v;
      if (!value(v)) return false;
      out.fields_.emplace(std::move(key), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool array(Json& out) {
    out.kind_ = Json::Kind::Array;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      Json v;
      if (!value(v)) return false;
      out.items_.push_back(std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat(']');
    }
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return false;
            }
            // The schema only escapes control characters; emit as-is for
            // the ASCII range and UTF-8-encode the rest.
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
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!digits) return false;
    out.kind_ = Json::Kind::Number;
    out.num_ = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::optional<Json> Json::parse(std::string_view text) {
  return JsonParser(text).run();
}

// ---- JsonLine ---------------------------------------------------------------

void JsonLine::key(std::string_view k) {
  if (!first_) buf_ += ',';
  first_ = false;
  buf_ += '"';
  buf_ += k;  // keys are schema constants, never escaped
  buf_ += "\":";
}

JsonLine& JsonLine::str(std::string_view k, std::string_view v) {
  key(k);
  buf_ += '"';
  json_escape(buf_, v);
  buf_ += '"';
  return *this;
}

JsonLine& JsonLine::num(std::string_view k, double v) {
  key(k);
  json_number(buf_, v);
  return *this;
}

JsonLine& JsonLine::uint(std::string_view k, std::uint64_t v) {
  key(k);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  buf_ += buf;
  return *this;
}

JsonLine& JsonLine::boolean(std::string_view k, bool v) {
  key(k);
  buf_ += v ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::strs(std::string_view k, std::span<const std::string> vs) {
  key(k);
  buf_ += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) buf_ += ',';
    buf_ += '"';
    json_escape(buf_, vs[i]);
    buf_ += '"';
  }
  buf_ += ']';
  return *this;
}

JsonLine& JsonLine::hex(std::string_view k, std::uint64_t v) {
  key(k);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(v));
  buf_ += buf;
  return *this;
}

JsonLine& JsonLine::raw(std::string_view k, std::string_view json) {
  key(k);
  buf_ += json;
  return *this;
}

}  // namespace mpass::obs
