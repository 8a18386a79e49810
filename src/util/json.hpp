#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace sfn::util {

/// Append `s` to `out` as the inside of a JSON string literal, keeping the
/// record on one line: `"` and `\` are backslash-escaped, newline, carriage
/// return and tab get their short escapes, every other control byte
/// becomes \u00XX, and all other bytes (UTF-8 included) pass through.
inline void append_json_escaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace sfn::util
