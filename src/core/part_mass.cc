#include "core/part_mass.h"

#include <algorithm>

namespace deepsea {

void PartMass::Spread(const PartGrid& grid, const Interval& iv,
                      const FragmentHit& hit, double scale, int sign,
                      Sum* sums) {
  // A clamp of positive width is computed inline; the rare degenerate
  // clamp (a point, or no overlap) takes Interval::Intersect's rules.
  double lo = iv.lo;
  double hi = iv.hi;
  double width = iv.Width();
  if (hit.has_range) {
    const double clamped_lo = std::max(hit.range.lo, iv.lo);
    const double clamped_hi = std::min(hit.range.hi, iv.hi);
    if (clamped_hi - clamped_lo > 0.0) {
      lo = clamped_lo;
      hi = clamped_hi;
      width = clamped_hi - clamped_lo;
    } else if (const auto clamped = hit.range.Intersect(iv)) {
      lo = clamped->lo;
      hi = clamped->hi;
      width = clamped->Width();
    }
  }
  const int last_part = grid.num_parts - 1;
  auto add = [sums, sign](int p, double x) {
    const Sum q = FixedPoint::Quantize(x);
    sums[static_cast<size_t>(p)] += sign > 0 ? q : -q;
  };
  if (width <= 0.0) {
    const int p = static_cast<int>((lo - grid.domain.lo) / grid.part_width);
    add(std::clamp(p, 0, last_part), scale);
    return;
  }
  // Only parts overlapping the region can receive mass.
  int first = static_cast<int>((lo - grid.domain.lo) / grid.part_width);
  int last = static_cast<int>((hi - grid.domain.lo) / grid.part_width);
  first = std::clamp(first, 0, last_part);
  last = std::clamp(last, 0, last_part);
  for (int p = first; p <= last; ++p) {
    const double part_lo = grid.domain.lo + grid.part_width * p;
    const double part_hi = grid.domain.lo + grid.part_width * (p + 1);
    const double overlap = std::min(part_hi, hi) - std::max(part_lo, lo);
    if (overlap > 0.0) add(p, scale * overlap / width);
  }
}

void PartMass::AddHits(const std::vector<FragmentStats>& fragments, size_t i,
                       size_t k, const DecayFunction& dec) {
  const FragmentStats& f = fragments[i];
  const std::vector<FragmentHit>& hits = f.hits();
  // The hits out of the window at t_ are a prefix of the time-ordered
  // list; every hit after them is in it.
  while (k < hits.size() && !(dec(t_, hits[k].time) > 0.0)) ++k;
  // A fragment with no hit in the sum starts its suffix here; one with
  // in-sum hits keeps its start (the new hits are no older).
  if (first_[i] == covered_[i]) first_[i] = static_cast<uint32_t>(k);
  if (k < hits.size()) oldest_ = std::min(oldest_, hits[k].time);
  for (; k < hits.size(); ++k) {
    Spread(grid_, f.interval, hits[k], decay_.enabled ? hits[k].time : 1.0,
           +1, sums_.data());
  }
  covered_[i] = static_cast<uint32_t>(hits.size());
}

size_t PartMass::Expire(const std::vector<FragmentStats>& fragments, size_t i,
                        const DecayFunction& dec, double t, Sum* sums) const {
  const FragmentStats& f = fragments[i];
  size_t k = first_[i];
  for (; k < covered_[i] && !(dec(t, f.hits()[k].time) > 0.0); ++k) {
    Spread(grid_, f.interval, f.hits()[k], f.hits()[k].time, -1, sums);
  }
  return k;
}

void PartMass::Rebuild(const std::vector<FragmentStats>& fragments,
                       const PartGrid& grid, const DecayFunction& dec,
                       double t) {
  Clear();
  grid_ = grid;
  decay_ = dec.config();
  t_ = t;
  sums_.assign(static_cast<size_t>(grid.num_parts), 0);
  first_.assign(fragments.size(), 0);
  covered_.assign(fragments.size(), 0);
  generation_.resize(fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    // Hits before LiveHitsBegin weigh exactly 0.0 at t.
    AddHits(fragments, i, fragments[i].LiveHitsBegin(t, dec), dec);
    generation_[i] = fragments[i].hits_generation();
  }
}

bool PartMass::Update(const std::vector<FragmentStats>& fragments,
                      const DecayFunction& dec, double t) {
  if (!kept() || !SameDecay(decay_, dec.config()) ||
      fragments.size() < covered_.size()) {
    return false;
  }
  for (size_t i = 0; i < covered_.size(); ++i) {
    if (fragments[i].hits_generation() != generation_[i] ||
        fragments[i].hits().size() < covered_[i]) {
      return false;
    }
  }
  // Expire first, so appended hits are judged at the new time.
  if (t > t_) {
    t_ = t;
    if (!(dec(t_, oldest_) > 0.0)) {
      oldest_ = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < covered_.size(); ++i) {
        first_[i] =
            static_cast<uint32_t>(Expire(fragments, i, dec, t_, sums_.data()));
        if (first_[i] < covered_[i]) {
          oldest_ = std::min(oldest_, fragments[i].hits()[first_[i]].time);
        }
      }
    }
  }
  const size_t old_size = covered_.size();
  first_.resize(fragments.size(), 0);
  covered_.resize(fragments.size(), 0);
  generation_.resize(fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    const FragmentStats& f = fragments[i];
    if (i >= old_size) generation_[i] = f.hits_generation();
    // Only a fragment with new hits is walked to its first live one.
    const size_t k = covered_[i];
    if (k < f.hits().size()) {
      AddHits(fragments, i, std::max(k, f.LiveHitsBegin(t_, dec)), dec);
    }
  }
  return true;
}

bool PartMass::Covers(const std::vector<FragmentStats>& fragments,
                      const PartGrid& grid, const DecayFunction& dec) const {
  if (!kept() || !(grid_ == grid) || !SameDecay(decay_, dec.config()) ||
      covered_.size() != fragments.size()) {
    return false;
  }
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (covered_[i] != fragments[i].hits().size() ||
        generation_[i] != fragments[i].hits_generation()) {
      return false;
    }
  }
  return true;
}

void PartMass::SumsAt(const std::vector<FragmentStats>& fragments,
                      const DecayFunction& dec, double t_now,
                      std::vector<Sum>* out) const {
  *out = sums_;
  if (dec(t_now, oldest_) > 0.0) return;
  for (size_t i = 0; i < covered_.size(); ++i) {
    Expire(fragments, i, dec, t_now, out->data());
  }
}

bool PartMass::operator==(const PartMass& other) const {
  return grid_ == other.grid_ && SameDecay(decay_, other.decay_) &&
         t_ == other.t_ && sums_ == other.sums_ && first_ == other.first_ &&
         covered_ == other.covered_ && generation_ == other.generation_ &&
         oldest_ == other.oldest_;
}

}  // namespace deepsea
