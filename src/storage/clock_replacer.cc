#include "storage/clock_replacer.h"

#include <algorithm>
#include <bit>

namespace hdb::storage {

ClockReplacer::ClockReplacer(size_t num_frames, uint32_t num_segments,
                             uint32_t max_score)
    : num_segments_(num_segments == 0 ? 8 : num_segments),
      max_score_(max_score),
      entries_(num_frames) {
  UpdateWidths();
}

void ClockReplacer::Resize(size_t n) {
  entries_.resize(n);
  if (hand_ >= entries_.size()) hand_ = 0;
  UpdateWidths();
  // The window moved, so every zero tick did: the next Victim() sweeps
  // fully and recomputes the bound.
  zero_bound_ = 0;
}

void ClockReplacer::UpdateWidths() {
  // One segment spans roughly one reference per frame, so the full
  // reference-time window (num_segments_ segments) covers several sweeps
  // of the pool. A shorter window would let a single table scan age the
  // whole hot set to zero — exactly what the paper's segmented design
  // avoids.
  segment_width_ = std::max<uint64_t>(num_segments_, entries_.size());
  window_ = segment_width_ * num_segments_;
}

void ClockReplacer::RecordReference(uint32_t frame_id) {
  if (frame_id >= entries_.size()) return;
  ++tick_;
  Entry& e = entries_[frame_id];
  if (!e.tracked) {
    e.tracked = true;
    e.score = 1;
  } else if (tick_ / segment_width_ != e.last_ref_tick / segment_width_) {
    // Re-reference from a different segment of the reference-time series:
    // genuine re-use, not the adjacent references of a scan.
    e.score = std::min(DecayedScore(e) + 1, max_score_);
  }
  e.last_ref_tick = tick_;
  // A re-reference never lowers a frame's zero tick, so this only moves
  // the bound for a new frame (to tick_ + window_).
  zero_bound_ = std::min(zero_bound_, ZeroTick(e));
}

void ClockReplacer::SetEvictable(uint32_t frame_id, bool evictable) {
  if (frame_id >= entries_.size()) return;
  Entry& e = entries_[frame_id];
  e.evictable = evictable;
  if (evictable && e.tracked) zero_bound_ = std::min(zero_bound_, ZeroTick(e));
}

void ClockReplacer::Remove(uint32_t frame_id) {
  if (frame_id >= entries_.size()) return;
  entries_[frame_id] = Entry{};
}

uint64_t ClockReplacer::ZeroTick(const Entry& e) const {
  // score >> halvings reaches 0 once halvings >= bit_width(score), i.e.
  // after bit_width(score) whole windows without a reference.
  return e.last_ref_tick + window_ * std::bit_width(e.score);
}

uint32_t ClockReplacer::DecayedScore(const Entry& e) const {
  const uint64_t age = tick_ >= e.last_ref_tick ? tick_ - e.last_ref_tick : 0;
  // One halving per full window (num_segments_ segments) of non-reference.
  // Most frames are younger than one window; only older ones divide.
  if (age < window_) return e.score;
  const uint64_t halvings = age / window_;
  if (halvings >= 32) return 0;
  return e.score >> halvings;
}

std::optional<uint32_t> ClockReplacer::Victim() {
  if (entries_.empty()) return std::nullopt;
  const size_t n = entries_.size();
  // "Pages with lower scores are candidates for replacement": one sweep
  // from the hand, evicting the first zero-score frame immediately (the
  // common case once cold pages have decayed) and otherwise the
  // minimum-score frame. Selecting the minimum — rather than decrementing
  // scores until something reaches zero — keeps hot pages hot through
  // eviction bursts like table scans; decay alone ages them (paper §2.2).
  //
  // Before zero_bound_ no evictable frame can have decayed to zero, so
  // every score is at least 1 and the first score-1 frame from the hand
  // is the first minimum: the sweep stops there. A table scan finds one
  // at the hand, which makes its victims O(1).
  const bool no_zero = tick_ < zero_bound_;
  uint64_t bound = kNoZeroTick;
  size_t best = n;
  uint32_t best_eff = 0;
  size_t current = hand_;
  for (size_t step = 0; step < n; ++step) {
    ++frames_examined_;
    Entry& e = entries_[current];
    if (e.tracked && e.evictable) {
      const uint32_t eff = DecayedScore(e);
      if (eff == 0 || (no_zero && eff == 1)) return Evict(current);
      bound = std::min(bound, ZeroTick(e));
      if (best == n || eff < best_eff) {
        best = current;
        best_eff = eff;
      }
    }
    if (++current == n) current = 0;
  }
  // A whole sweep saw every evictable frame, so the bound is exact again.
  zero_bound_ = bound;
  if (best == n) return std::nullopt;
  return Evict(best);
}

uint32_t ClockReplacer::Evict(size_t frame) {
  entries_[frame] = Entry{};
  hand_ = frame + 1 == entries_.size() ? 0 : frame + 1;
  return static_cast<uint32_t>(frame);
}

uint32_t ClockReplacer::EffectiveScore(uint32_t frame_id) const {
  if (frame_id >= entries_.size() || !entries_[frame_id].tracked) return 0;
  return DecayedScore(entries_[frame_id]);
}

}  // namespace hdb::storage
