#ifndef FAIRCLEAN_COMMON_STRINGS_H_
#define FAIRCLEAN_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace fairclean {

/// Splits `text` on every occurrence of `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_STRINGS_H_
