#include "common/str_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace deepsea {

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int unit = 0;
  double v = bytes;
  while (v >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  return StrFormat("%.2f %s", v, kUnits[unit]);
}

std::string HumanSeconds(double seconds) {
  if (seconds < 3600.0) return StrFormat("%.1f s", seconds);
  const int hours = static_cast<int>(seconds / 3600.0);
  const int minutes = static_cast<int>((seconds - hours * 3600.0) / 60.0);
  return StrFormat("%dh %02dm", hours, minutes);
}

Result<double> ParseDouble(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty number");
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return Status::InvalidArgument("bad number: " + s);
  }
  return v;
}

}  // namespace deepsea
