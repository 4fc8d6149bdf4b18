#ifndef DEEPSEA_COMMON_STR_UTIL_H_
#define DEEPSEA_COMMON_STR_UTIL_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace deepsea {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` on the character `sep`; no empty-token suppression.
std::vector<std::string> Split(const std::string& s, char sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Formats a byte count with binary units ("1.50 GB").
std::string HumanBytes(double bytes);

/// Formats a duration given in (simulated) seconds as "1234.5 s" or
/// "2h 05m" style for larger magnitudes.
std::string HumanSeconds(double seconds);

/// Strict decimal parse: the whole of `s` must be one number (strtod
/// syntax). Empty or trailing text is an InvalidArgument error, never a
/// silent 0 and never an exception, so parsers of saved state can
/// reject corrupt input cleanly.
Result<double> ParseDouble(const std::string& s);

}  // namespace deepsea

#endif  // DEEPSEA_COMMON_STR_UTIL_H_
