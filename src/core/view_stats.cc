#include "core/view_stats.h"

#include <algorithm>

namespace deepsea {

void ViewStats::InsertLateEvent(const BenefitEvent& e) {
  const auto at = std::upper_bound(
      events_.begin(), events_.end(), e.time,
      [](double t, const BenefitEvent& x) { return t < x.time; });
  events_.insert(at, e);
  undecayed_sum_ = 0.0;
  for (const BenefitEvent& x : events_) undecayed_sum_ += x.saving;
}

double ViewStats::AccumulatedBenefit(double t_now, const DecayFunction& dec) const {
  // Decay off: DEC == 1.0 for every event, so the running undecayed sum
  // (same additions in the same order) is the answer.
  const DecayConfig& cfg = dec.config();
  if (!cfg.enabled) return undecayed_sum_;
  // DEC's cutoff branch: the events it weighs exactly 0.0 at t_now are
  // the prefix of the time-ordered list that has expired.
  const auto live = std::partition_point(
      events_.begin(), events_.end(),
      [&](const BenefitEvent& e) { return t_now - e.time > cfg.t_max; });
  double acc = 0.0;
  for (auto it = live; it != events_.end(); ++it) {
    acc += it->saving * dec(t_now, it->time);
  }
  return acc;
}

double ViewStats::AccumulatedBenefitNaive(double t_now,
                                          const DecayFunction& dec) const {
  double acc = 0.0;
  for (const BenefitEvent& e : events_) acc += e.saving * dec(t_now, e.time);
  return acc;
}

double ViewStats::UndecayedBenefitNaive() const {
  double acc = 0.0;
  for (const BenefitEvent& e : events_) acc += e.saving;
  return acc;
}

double ViewStats::LastUseNaive() const {
  double last = 0.0;
  for (const BenefitEvent& e : events_) last = std::max(last, e.time);
  return last;
}

size_t FragmentStats::WalkToLive(double t_now, const DecayFunction& dec,
                                 FixedPoint::Sum* sum) const {
  auto term = [](double t) {
    return t >= 0.0 ? FixedPoint::Quantize(t) : FixedPoint::Sum{0};
  };
  size_t k = win_begin_;
  if (k > 0 && dec.Weighs(t_now, expired_t_)) {
    // Hits before the position are live again (an earlier t_now or a
    // longer t_max than the last advance's): walk back.
    do {
      *sum += term(hits_[--k].time);
    } while (k > 0 && dec.Weighs(t_now, hits_[k - 1].time));
    return k;
  }
  for (; k < hits_.size() && !dec.Weighs(t_now, hits_[k].time); ++k) {
    *sum -= term(hits_[k].time);
  }
  return k;
}

void FragmentStats::AdoptHits(std::vector<FragmentHit> hits) {
  auto earlier = [](const FragmentHit& a, const FragmentHit& b) {
    return a.time < b.time;
  };
  if (!std::is_sorted(hits.begin(), hits.end(), earlier)) {
    std::stable_sort(hits.begin(), hits.end(), earlier);
  }
  hits_ = std::move(hits);
  ++hits_generation_;
  live_sum_ = 0;
  for (const FragmentHit& h : hits_) {
    if (h.time >= 0.0) live_sum_ += FixedPoint::Quantize(h.time);
  }
  win_begin_ = 0;
}

double FragmentStats::DecayedHits(double t_now, const DecayFunction& dec) const {
  // Decay off: every hit weighs exactly 1.0.
  if (!dec.config().enabled) return static_cast<double>(hits_.size());
  if (t_now > 0.0) {
    return FixedPoint::Weight(LiveTimeSum(t_now, dec), true, t_now);
  }
  // t_now <= 0: DEC is 1 inside the window, so H(I) counts the suffix.
  return static_cast<double>(hits_.size() - LiveHitsBegin(t_now, dec));
}

double FragmentStats::DecayedHitsOf(const FragmentStats* base,
                                    const FragmentStats& local, double t_now,
                                    const DecayFunction& dec) {
  if (base == nullptr) return local.DecayedHits(t_now, dec);
  if (!dec.config().enabled || t_now <= 0.0) {
    // Counts: exact, so the two halves add up to the whole.
    return base->DecayedHits(t_now, dec) + local.DecayedHits(t_now, dec);
  }
  return FixedPoint::Weight(
      base->LiveTimeSum(t_now, dec) + local.LiveTimeSum(t_now, dec), true,
      t_now);
}

FixedPoint::Sum FragmentStats::LiveTimeSum(double t_now,
                                           const DecayFunction& dec) const {
  FixedPoint::Sum sum = live_sum_;
  WalkToLive(t_now, dec, &sum);
  return sum;
}

size_t FragmentStats::LiveHitsBegin(double t_now,
                                    const DecayFunction& dec) const {
  if (!dec.config().enabled) return 0;
  FixedPoint::Sum sum = live_sum_;
  return WalkToLive(t_now, dec, &sum);
}

double FragmentStats::DecayedHitsNaive(double t_now,
                                       const DecayFunction& dec) const {
  if (!dec.config().enabled || t_now <= 0.0) {
    double acc = 0.0;
    for (const FragmentHit& h : hits_) acc += dec(t_now, h.time);
    return acc;
  }
  FixedPoint::Sum sum = 0;
  for (const FragmentHit& h : hits_) {
    if (dec(t_now, h.time) > 0.0) sum += FixedPoint::Quantize(h.time);
  }
  return FixedPoint::Weight(sum, true, t_now);
}

double FragmentStats::LastHitNaive() const {
  double last = 0.0;
  for (const FragmentHit& h : hits_) last = std::max(last, h.time);
  return last;
}

void FragmentStats::AdvanceWindow(double t_now, const DecayFunction& dec) {
  if (!dec.config().enabled) return;
  win_begin_ = static_cast<uint32_t>(WalkToLive(t_now, dec, &live_sum_));
  if (win_begin_ > 0) expired_t_ = hits_[win_begin_ - 1].time;
}

}  // namespace deepsea
