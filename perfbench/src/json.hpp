// Minimal JSON rendering helpers for the benchmark's result line and
// trace file: string escaping and shortest round-trip number formatting.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench::json {

inline std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest representation that reads back to the same double (all the
/// digits the measurement has, none invented). Non-finite values have no
/// JSON form and render as null.
inline std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench::json
