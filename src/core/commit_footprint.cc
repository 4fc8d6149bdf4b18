#include "core/commit_footprint.h"

#include <algorithm>

namespace deepsea {

namespace {

bool Contains(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// Write touches partition (view, attr)? Honors the "" whole-view
/// wildcard on the write side.
bool WritesPartition(const CommitFootprint& write, const std::string& view,
                     const std::string& attr) {
  for (const auto& [wv, wa] : write.partitions) {
    if (wv != view) continue;
    if (wa.empty() || attr.empty() || wa == attr) return true;
  }
  return false;
}

}  // namespace

void CommitFootprint::Merge(const CommitFootprint& other) {
  all = all || other.all;
  catalog_counter = catalog_counter || other.catalog_counter;
  catalog_sigs.insert(catalog_sigs.end(), other.catalog_sigs.begin(),
                      other.catalog_sigs.end());
  index_probes.insert(index_probes.end(), other.index_probes.begin(),
                      other.index_probes.end());
  index_inserts.insert(index_inserts.end(), other.index_inserts.begin(),
                       other.index_inserts.end());
  views.insert(views.end(), other.views.begin(), other.views.end());
  partitions.insert(partitions.end(), other.partitions.begin(),
                    other.partitions.end());
  fragments.insert(fragments.end(), other.fragments.begin(),
                   other.fragments.end());
}

void CommitFootprint::RemapViewIds(
    const std::vector<std::pair<std::string, std::string>>& remap) {
  if (remap.empty()) return;
  auto rename = [&](std::string* id) {
    for (const auto& [from, to] : remap) {
      if (*id == from) {
        *id = to;
        return;
      }
    }
  };
  for (std::string& v : views) rename(&v);
  for (auto& [v, a] : partitions) {
    (void)a;
    rename(&v);
  }
  for (FragRange& f : fragments) rename(&f.view);
}

bool FootprintsConflict(const CommitFootprint& read,
                        const CommitFootprint& write) {
  if (read.all || write.all) {
    // An `all` write invalidates every plan; a plan that read `all`
    // (none do today, but the symmetry is cheap) conflicts with any
    // non-empty write.
    return read.all ? !write.Empty() : true;
  }
  if (read.catalog_counter && write.catalog_counter) return true;
  for (const std::string& sig : read.catalog_sigs) {
    if (Contains(write.catalog_sigs, sig)) return true;
  }
  // Rewrite-index probes vs inserts: an inserted view invalidates a
  // probing plan only when it could have answered one of the probed
  // subplans — exact signature match, or a strictly wider view whose
  // signature subsumes the probe.
  for (const auto& probe : read.index_probes) {
    for (const auto& insert : write.index_inserts) {
      if (probe->key == insert->key) return true;
      if (SignatureSubsumes(insert->sig, probe->sig)) return true;
    }
  }
  for (const std::string& v : read.views) {
    if (Contains(write.views, v)) return true;
  }
  // Partition-structure reads vs structure writes.
  for (const auto& [rv, ra] : read.partitions) {
    if (WritesPartition(write, rv, ra)) return true;
  }
  // Fragment reads: overlapped by a fragment write, or the partition's
  // structure changed under them.
  for (const CommitFootprint::FragRange& r : read.fragments) {
    if (WritesPartition(write, r.view, r.attr)) return true;
    for (const CommitFootprint::FragRange& w : write.fragments) {
      if (r.view == w.view && r.attr == w.attr && r.range.Overlaps(w.range)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace deepsea
