// Minimal JSON object writer for the benchmark's output lines. Numbers are
// written in shortest round-trip form, so every measured digit survives;
// a non-finite number (which JSON cannot carry) is written as null.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& add(std::string_view key, std::string_view value) {
    key_(key);
    quote(value);
    return *this;
  }
  JsonObject& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  JsonObject& add(std::string_view key, bool value) {
    key_(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonObject& add(std::string_view key, T value) {
    key_(key);
    number(value);
    return *this;
  }
  JsonObject& add(std::string_view key, const JsonObject& nested) {
    key_(key);
    out_ += nested.str();
    return *this;
  }
  // A JSON array of numbers.
  template <typename Range>
  JsonObject& add_array(std::string_view key, const Range& values) {
    key_(key);
    out_ += '[';
    bool first = true;
    for (const auto& v : values) {
      if (!first) out_ += ',';
      first = false;
      number(v);
    }
    out_ += ']';
    return *this;
  }

  std::string str() const { return out_ + '}'; }

 private:
  void key_(std::string_view key) {
    out_ += out_.size() == 1 ? "" : ",";
    quote(key);
    out_ += ':';
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  template <typename T>
  void number(T value) {
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) {
        out_ += "null";
        return;
      }
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    out_.append(buf, res.ptr);
  }

  std::string out_ = "{";
};

}  // namespace perfbench
