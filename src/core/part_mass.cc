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

void PartMass::AddSpread(const std::vector<FragmentStats>& fragments,
                         const Entry& e, int sign, Sum* sums) const {
  const FragmentStats& f = fragments[e.frag];
  Spread(grid_, f.interval, f.hits()[e.hit], decay_.enabled ? e.time : 1.0,
         sign, sums);
}

void PartMass::AddHit(const std::vector<FragmentStats>& fragments, size_t i,
                      size_t k, const DecayFunction& dec, bool sorted_insert) {
  const FragmentHit& h = fragments[i].hits()[k];
  if (!(dec(t_, h.time) > 0.0)) return;
  Spread(grid_, fragments[i].interval, h, decay_.enabled ? h.time : 1.0, +1,
         sums_.data());
  // With decay off nothing expires, so no ledger is kept.
  if (!decay_.enabled) return;
  const Entry e{h.time, static_cast<uint32_t>(i), static_cast<uint32_t>(k)};
  if (!sorted_insert) {
    ledger_.push_back(e);
    return;
  }
  // Hits arrive nearly in time order: the slot is at or near the back.
  ledger_.insert(std::upper_bound(ledger_.begin() + static_cast<long>(head_),
                                  ledger_.end(), e),
                 e);
}

void PartMass::Rebuild(const std::vector<FragmentStats>& fragments,
                       const PartGrid& grid, const DecayFunction& dec,
                       double t) {
  Clear();
  grid_ = grid;
  decay_ = dec.config();
  t_ = t;
  sums_.assign(static_cast<size_t>(grid.num_parts), 0);
  covered_.resize(fragments.size());
  generation_.resize(fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    const FragmentStats& f = fragments[i];
    // Hits before LiveHitsBegin weigh exactly 0.0 at t.
    for (size_t k = f.LiveHitsBegin(t, dec); k < f.hits().size(); ++k) {
      AddHit(fragments, i, k, dec, /*sorted_insert=*/false);
    }
    covered_[i] = static_cast<uint32_t>(f.hits().size());
    generation_[i] = f.hits_generation();
  }
  std::sort(ledger_.begin(), ledger_.end());
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
  // Expire first, so appended hits are judged at the new time. The
  // expired hits are a prefix of the time-ordered ledger.
  if (t > t_) {
    t_ = t;
    while (head_ < ledger_.size() && !(dec(t_, ledger_[head_].time) > 0.0)) {
      AddSpread(fragments, ledger_[head_], -1, sums_.data());
      ++head_;
    }
    if (head_ > 0 && 2 * head_ >= ledger_.size()) {
      ledger_.erase(ledger_.begin(),
                    ledger_.begin() + static_cast<long>(head_));
      head_ = 0;
    }
  }
  const size_t old_size = covered_.size();
  covered_.resize(fragments.size(), 0);
  generation_.resize(fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    const FragmentStats& f = fragments[i];
    if (i >= old_size) generation_[i] = f.hits_generation();
    // Only a fragment with new hits is walked to its first live one.
    size_t k = covered_[i];
    if (k < f.hits().size()) k = std::max(k, f.LiveHitsBegin(t_, dec));
    for (; k < f.hits().size(); ++k) {
      AddHit(fragments, i, k, dec, /*sorted_insert=*/true);
    }
    covered_[i] = static_cast<uint32_t>(f.hits().size());
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
  for (size_t j = head_;
       j < ledger_.size() && !(dec(t_now, ledger_[j].time) > 0.0); ++j) {
    AddSpread(fragments, ledger_[j], -1, out->data());
  }
}

bool PartMass::operator==(const PartMass& other) const {
  return grid_ == other.grid_ && SameDecay(decay_, other.decay_) &&
         t_ == other.t_ &&
         sums_ == other.sums_ && covered_ == other.covered_ &&
         generation_ == other.generation_ &&
         std::equal(ledger_.begin() + static_cast<long>(head_), ledger_.end(),
                    other.ledger_.begin() + static_cast<long>(other.head_),
                    other.ledger_.end());
}

}  // namespace deepsea
