// Small string helpers (printf-style formatting, joining, padding).

#ifndef SRC_UTIL_STRING_UTIL_H_
#define SRC_UTIL_STRING_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ddr {

// printf-style formatting into a std::string.
std::string StrPrintf(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Joins items with a separator using operator<<.
template <typename Container>
std::string StrJoin(const Container& items, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) {
      os << sep;
    }
    first = false;
    os << item;
  }
  return os.str();
}

// Pads/truncates to exactly `width` columns, left- or right-aligned.
std::string PadRight(std::string_view text, size_t width);
std::string PadLeft(std::string_view text, size_t width);

// Splits on a single character, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Escapes a string for embedding in a JSON string literal (quotes,
// backslashes, newlines, and other control characters).
std::string JsonEscape(std::string_view text);

}  // namespace ddr

#endif  // SRC_UTIL_STRING_UTIL_H_
