#include "src/util/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace ddr {

std::string StrPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

std::string PadRight(std::string_view text, size_t width) {
  std::string out(text.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::string PadLeft(std::string_view text, size_t width) {
  if (text.size() >= width) {
    return std::string(text.substr(0, width));
  }
  std::string out(width - text.size(), ' ');
  out.append(text);
  return out;
}

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      pieces.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ddr
