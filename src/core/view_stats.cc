#include "core/view_stats.h"

#include <algorithm>

namespace deepsea {
namespace {

/// True when the timed-out-prefix cursor computed at (win_t, win_tmax)
/// may be used for an evaluation at t_now: decay must be on, the
/// cutoff unchanged, and time not rewound. Expiry is monotone in t_now
/// (t_now - t > t_max stays true as t_now grows), so any t_now >=
/// win_t keeps the certified prefix expired — each skipped term is an
/// exact 0.0 under DEC's cutoff branch, making the skip bit-identical
/// to naive replay.
inline bool CursorValid(const DecayFunction& dec, double t_now, double win_t,
                        double win_tmax) {
  const DecayConfig& cfg = dec.config();
  return cfg.enabled && cfg.t_max == win_tmax && t_now >= win_t;
}

}  // namespace

double ViewStats::AccumulatedBenefit(double t_now, const DecayFunction& dec) const {
  // Decay off: DEC == 1.0 for every event, so the running undecayed sum
  // (same additions in the same order) is the answer.
  if (!dec.config().enabled) return undecayed_sum_;
  const size_t begin =
      CursorValid(dec, t_now, win_t_, win_tmax_) ? win_begin_ : 0;
  double acc = 0.0;
  for (size_t i = begin; i < events_.size(); ++i) {
    acc += events_[i].saving * dec(t_now, events_[i].time);
  }
  return acc;
}

double ViewStats::AccumulatedBenefitNaive(double t_now,
                                          const DecayFunction& dec) const {
  double acc = 0.0;
  for (const BenefitEvent& e : events_) acc += e.saving * dec(t_now, e.time);
  return acc;
}

double ViewStats::AccumulatedBenefitForTenant(double t_now,
                                              const DecayFunction& dec,
                                              int32_t tenant) const {
  double acc = 0.0;
  for (const BenefitEvent& e : events_) {
    if (e.tenant == tenant) acc += e.saving * dec(t_now, e.time);
  }
  return acc;
}

std::map<int32_t, double> ViewStats::AccumulatedBenefitByTenant(
    double t_now, const DecayFunction& dec) const {
  std::map<int32_t, double> acc;
  for (const BenefitEvent& e : events_) {
    acc[e.tenant] += e.saving * dec(t_now, e.time);
  }
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

double ViewStats::Value(double t_now, const DecayFunction& dec) const {
  const double benefit = AccumulatedBenefit(t_now, dec);
  const double size = std::max(size_bytes, 1.0);
  return creation_cost * benefit / size;
}

void ViewStats::AdvanceWindow(double t_now, const DecayFunction& dec) {
  const DecayConfig& cfg = dec.config();
  if (!cfg.enabled) return;
  if (cfg.t_max != win_tmax_) {
    win_begin_ = 0;
    win_tmax_ = cfg.t_max;
    win_t_ = 0.0;
  }
  if (t_now < win_t_) return;
  while (win_begin_ < events_.size() &&
         t_now - events_[win_begin_].time > cfg.t_max) {
    ++win_begin_;
  }
  win_t_ = t_now;
}

double FragmentStats::DecayedHits(double t_now, const DecayFunction& dec) const {
  // Decay off: every hit weighs exactly 1.0 and the naive accumulator
  // counts up by exact integers, so the cardinality is bit-identical.
  if (!dec.config().enabled) return static_cast<double>(hits_.size());
  double acc = 0.0;
  for (size_t i = LiveHitsBegin(t_now, dec); i < hits_.size(); ++i) {
    acc += dec(t_now, hits_[i].time);
  }
  return acc;
}

size_t FragmentStats::LiveHitsBegin(double t_now,
                                    const DecayFunction& dec) const {
  return CursorValid(dec, t_now, win_t_, win_tmax_) ? win_begin_ : 0;
}

double FragmentStats::DecayedHitsNaive(double t_now,
                                       const DecayFunction& dec) const {
  double acc = 0.0;
  for (const FragmentHit& h : hits_) acc += dec(t_now, h.time);
  return acc;
}

double FragmentStats::DecayedHitsForTenant(double t_now,
                                           const DecayFunction& dec,
                                           int32_t tenant) const {
  double acc = 0.0;
  for (const FragmentHit& h : hits_) {
    if (h.tenant == tenant) acc += dec(t_now, h.time);
  }
  return acc;
}

std::map<int32_t, double> FragmentStats::DecayedHitsByTenant(
    double t_now, const DecayFunction& dec) const {
  std::map<int32_t, double> acc;
  for (const FragmentHit& h : hits_) acc[h.tenant] += dec(t_now, h.time);
  return acc;
}

double FragmentStats::LastHitNaive() const {
  double last = 0.0;
  for (const FragmentHit& h : hits_) last = std::max(last, h.time);
  return last;
}

double FragmentStats::Benefit(double t_now, const DecayFunction& dec,
                              double view_size, double view_cost,
                              double adjusted_hits) const {
  const double hits =
      adjusted_hits >= 0.0 ? adjusted_hits : DecayedHits(t_now, dec);
  const double size_fraction = size_bytes / std::max(view_size, 1.0);
  return hits * size_fraction * view_cost;
}

double FragmentStats::Value(double t_now, const DecayFunction& dec,
                            double view_size, double view_cost,
                            double adjusted_hits) const {
  const double benefit =
      Benefit(t_now, dec, view_size, view_cost, adjusted_hits);
  return view_cost * benefit / std::max(size_bytes, 1.0);
}

void FragmentStats::AdvanceWindow(double t_now, const DecayFunction& dec) {
  const DecayConfig& cfg = dec.config();
  if (!cfg.enabled) return;
  if (cfg.t_max != win_tmax_) {
    win_begin_ = 0;
    win_tmax_ = cfg.t_max;
    win_t_ = 0.0;
  }
  if (t_now < win_t_) return;
  while (win_begin_ < hits_.size() &&
         t_now - hits_[win_begin_].time > cfg.t_max) {
    ++win_begin_;
  }
  win_t_ = t_now;
}

}  // namespace deepsea
