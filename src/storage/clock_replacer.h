#ifndef HDB_STORAGE_CLOCK_REPLACER_H_
#define HDB_STORAGE_CLOCK_REPLACER_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace hdb::storage {

/// Modified generalized CLOCK replacement (paper §2.2).
///
/// Conceptually the pool is ordered by time of last reference and divided
/// into eight *segments* of that reference-time series. A page's score is
/// incremented only when it is re-referenced from a *different* segment
/// than its previous reference — so the burst of adjacent references a
/// table scan makes to one page raises the score just once, while genuinely
/// hot pages re-referenced across segments accumulate score. Scores decay
/// exponentially with age (one halving per un-referenced window), ensuring
/// every page eventually becomes a replacement candidate. The clock hand
/// sweeps frames from the hand and evicts the first frame whose decayed
/// score is zero, otherwise the first frame with the minimum score.
///
/// The replacer keeps a lower bound on the earliest tick at which any
/// evictable frame can decay to zero. Before that tick the first score-1
/// frame from the hand is provably the victim, so the sweep stops there:
/// a table scan streaming through the pool evicts in O(1) per page
/// instead of O(frames) (DESIGN.md §4).
///
/// The replacer is not internally synchronized; the buffer pool calls it
/// under its latch. (The fast path that avoids this latch entirely is the
/// LookasideQueue.)
class ClockReplacer {
 public:
  /// `num_segments` = 8 in the paper; `max_score` caps accumulation so a
  /// formerly-hot page cannot stay irreplaceable forever.
  explicit ClockReplacer(size_t num_frames = 0, uint32_t num_segments = 8,
                         uint32_t max_score = 7);

  /// Grows/shrinks the frame-id domain to [0, n).
  void Resize(size_t n);

  /// Notes a reference to `frame_id` (fetch hit or page load).
  void RecordReference(uint32_t frame_id);

  /// Pinned frames are never victims.
  void SetEvictable(uint32_t frame_id, bool evictable);

  /// Forgets a frame's history (frame freed or repurposed).
  void Remove(uint32_t frame_id);

  /// Chooses a victim frame, or nullopt when nothing is evictable.
  std::optional<uint32_t> Victim();

  /// Decayed score of a frame, for tests and introspection.
  uint32_t EffectiveScore(uint32_t frame_id) const;

  uint64_t ticks() const { return tick_; }

  /// Frames looked at by Victim() since construction: the sweep's work,
  /// independent of the host (tests gate on it).
  uint64_t frames_examined() const { return frames_examined_; }

 private:
  struct Entry {
    uint64_t last_ref_tick = 0;
    uint32_t score = 0;
    bool evictable = false;
    bool tracked = false;
  };

  static constexpr uint64_t kNoZeroTick =
      std::numeric_limits<uint64_t>::max();

  /// Recomputes segment_width_ and window_ from the frame count.
  void UpdateWidths();
  uint32_t DecayedScore(const Entry& e) const;
  /// First tick at which `e`'s decayed score is 0.
  uint64_t ZeroTick(const Entry& e) const;
  /// Forgets `frame`, moves the hand past it and returns it.
  uint32_t Evict(size_t frame);

  uint32_t num_segments_;
  uint32_t max_score_;
  /// Reference-time segment width, in ticks, and the decay window of
  /// num_segments_ segments (one halving per window without a reference).
  uint64_t segment_width_ = 0;
  uint64_t window_ = 0;
  uint64_t tick_ = 0;
  size_t hand_ = 0;
  /// No evictable frame's score reaches 0 before this tick.
  uint64_t zero_bound_ = kNoZeroTick;
  uint64_t frames_examined_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace hdb::storage

#endif  // HDB_STORAGE_CLOCK_REPLACER_H_
