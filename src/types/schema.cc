#include "types/schema.h"

#include "common/str_util.h"

namespace deepsea {

std::string ColumnDef::ShortName() const {
  const size_t pos = name.rfind('.');
  return pos == std::string::npos ? name : name.substr(pos + 1);
}

std::optional<size_t> Schema::FindColumn(const std::string& name) const {
  // Exact qualified match first.
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  // Unique short-name match.
  std::optional<size_t> found;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].ShortName() == name) {
      if (found.has_value()) return std::nullopt;  // ambiguous
      found = i;
    }
  }
  return found;
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<ColumnDef> cols = columns_;
  cols.insert(cols.end(), other.columns_.begin(), other.columns_.end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const auto& c : columns_) {
    parts.push_back(c.name + ":" + DataTypeName(c.type));
  }
  std::string out = "(";
  out += Join(parts, ", ");
  out += ")";
  return out;
}

}  // namespace deepsea
