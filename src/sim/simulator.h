#ifndef GRANULOCK_SIM_SIMULATOR_H_
#define GRANULOCK_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "sim/inline_callback.h"

namespace granulock::sim {

/// Simulation time. The paper's model is expressed in abstract "time units"
/// (1 unit ~ 0.5 s under the paper's example calibration); we keep them as
/// doubles since all service times are products of real-valued parameters.
using SimTime = double;

/// Identifier for a scheduled event, usable to suspend and resume it before
/// it fires. Encodes (generation << 32 | slot index) into the event slab;
/// 0 is never a valid id (generations start at 1).
using EventId = uint64_t;

/// A sequential discrete-event simulation engine.
///
/// The engine owns a clock and a pending-event set ordered by (time,
/// insertion sequence) — ties fire in scheduling order, which makes every
/// run fully deterministic for a fixed seed. Events are arbitrary
/// callbacks; higher-level abstractions (servers, queues) are built on top.
///
/// Hot-path design (this is the innermost loop of every experiment):
///  * The pending set is a calendar queue (Brown 1988) with a sorted
///    "bottom rung" (the ladder-queue refinement): future events hash
///    into an array of buckets by "day" = floor(time / width) mod
///    nbuckets — O(1) insert, no sift chains — while the imminent day's
///    events are pulled into a small array sorted descending, so
///    extract-min is a literal `pop_back`. A burst of same-timestamp
///    events is sorted once at the day boundary instead of re-scanned on
///    every pop. The bucket width adapts automatically (from the gaps
///    between the soonest pending events, with Brown's outlier-filtered
///    two-pass mean so far-future watchdogs don't wreck the estimate)
///    and the bucket count doubles/halves with the pending population.
///    When the queue is sparse relative to its year, the refill falls
///    back to a direct min search (the classic calendar-queue fallback).
///  * Storage is structure-of-arrays: each bucket keeps `time`, `seq` and
///    slot-reference arrays side by side so min-scans touch densely
///    packed 8-byte lanes, and the event slab splits callbacks,
///    generations and flags into parallel arrays so the due check never
///    drags 64-byte callback objects through the cache.
///  * Callbacks live in `InlineCallback` storage inside the slab — no
///    per-event heap allocation; they move in and out of it by copying
///    bytes.
///  * Slots are recycled through a free list; each reuse bumps a
///    generation stamp, so the id of an event that already fired fails
///    `Suspend`'s and `Resume`'s checks even after its slot is reused.
///  * An event leaves the pending set only by firing; there is no cancel,
///    because the paper's machine interrupts work only by preemption,
///    which suspends the preempted job and resumes it later. So every
///    calendar entry belongs to a live slot and no pop skips a tombstone.
///  * `Suspend` is O(1): a suspended event keeps its slot, callback and
///    calendar entry. Each slot records its entry's time and, once
///    resumed, its due (time, seq) key; flag bits say whether it may fire.
///    An entry that surfaces while its slot is suspended is dropped, and
///    one that surfaces before its due key is re-inserted at that key, so
///    the event fires exactly where a fresh schedule at the resume would
///    have put it. The check reads the flag byte only, so an ordinary
///    event pays nothing for it. A resume before the entry's time moves
///    the entry to the new key in place.
///
/// Determinism: pops always yield the exact (time, seq) minimum of the
/// live set — the calendar layout only changes *where* entries wait, not
/// the order they fire — so runs are bit-identical to the previous
/// binary-heap engine (`scheduler_differential_test` proves this against
/// a reference heap under randomized schedule/suspend/resume streams).
///
/// Not thread-safe: a `Simulator` and everything scheduled on it must be
/// driven from one thread. (Running *replications* in parallel is safe —
/// use one Simulator per replication; see `core::ParallelRunner`.)
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0.
  SimTime Now() const { return now_; }

  /// Schedules `callback` to run at absolute time `at` (>= Now()). Returns
  /// an id that can be passed to `Suspend`.
  EventId ScheduleAt(SimTime at, Callback callback);

  /// Schedules `callback` to run `delay` (>= 0) time units from now.
  EventId ScheduleAfter(SimTime delay, Callback callback);

  /// Like `ScheduleAt`/`ScheduleAfter`, but the event is an *observer*: it
  /// may only read simulation state (metric sampling, progress hooks) and
  /// is excluded from `ExecutedEvents()`, so enabling observability does
  /// not change the reported event count. Observer events still execute in
  /// (time, scheduling order) like any other event.
  EventId ScheduleObserverAt(SimTime at, Callback callback);
  EventId ScheduleObserverAfter(SimTime delay, Callback callback);

  /// Suspends a pending event (`id` must be pending and not suspended):
  /// it cannot fire until `Resume`, but stays pending, so
  /// `PendingEvents()` still counts it. Its calendar entry stays where it
  /// is; if the entry surfaces first, it is dropped without running
  /// anything, moving the clock or counting as an executed event.
  void Suspend(EventId id);

  /// Resumes a suspended event to fire at `at` (>= Now()); it keeps its
  /// id. The sequence number is drawn here, so `Suspend(id)` then
  /// `Resume(id, at)` fires exactly where dropping the event and
  /// scheduling its callback afresh at `at` would. A calendar entry that
  /// lies after `at` moves to the new key in place.
  void Resume(EventId id, SimTime at);

  /// Runs the earliest pending event, advancing the clock to its timestamp.
  /// Returns false if no event can fire (none is pending but suspended
  /// ones).
  bool Step();

  /// Runs events until the next event would fire strictly after `deadline`
  /// (or no events remain), then sets the clock to exactly `deadline`.
  /// Events scheduled *at* `deadline` do fire.
  void RunUntil(SimTime deadline);

  /// Runs events until none can fire.
  void RunUntilEmpty();

  /// Number of pending events, suspended ones included.
  size_t PendingEvents() const { return live_count_; }

  /// Total number of simulation events executed so far (diagnostics).
  /// Observer events are counted separately in
  /// `ExecutedObserverEvents()`.
  uint64_t ExecutedEvents() const { return executed_; }
  uint64_t ExecutedObserverEvents() const { return observer_executed_; }

  /// High-water mark of the pending-event set (engine self-profiling:
  /// the event queue is the simulator's main memory consumer).
  size_t MaxPendingEvents() const { return max_pending_; }

  /// Full audit of the engine's internal bookkeeping: every calendar
  /// entry belongs to a live slot, every live slot has a callback and
  /// exactly one matching calendar entry (a suspended slot may have none,
  /// once its entry surfaced), no entry lies after its slot's due key,
  /// every entry sits in the bucket its day maps to and none lies before
  /// the day cursor or the clock, slots are either live or on the free
  /// list, and the pending count is the entries plus the entryless
  /// suspended slots. O(pending events); violations report through
  /// `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  /// One calendar bucket, structure-of-arrays: `time[i]`, `seq[i]` and
  /// `ref[i]` describe one pending entry. `ref` is its slot's `EventId`.
  /// Entries are unordered within a bucket — extraction scans.
  struct Bucket {
    std::vector<SimTime> time;
    std::vector<uint64_t> seq;
    std::vector<uint64_t> ref;
  };

  /// One pending entry in AoS form (bottom rung and rebuild scratch).
  struct CalEntry {
    SimTime time;
    uint64_t seq;
    uint64_t ref;
  };

  /// Descending (time, seq) order: sorting the bottom with this puts the
  /// minimum at the back, where `pop_back` is O(1).
  struct EntryLater {
    bool operator()(const CalEntry& a, const CalEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Calendar tuning. Bucket counts are powers of two (masked modulo);
  /// the count doubles when live entries exceed twice the bucket count
  /// and halves when they fall below a quarter of it (8x hysteresis so
  /// oscillating populations don't thrash rebuilds).
  static constexpr size_t kMinBuckets = 16;
  /// Width is estimated from the gaps between this many soonest events.
  static constexpr size_t kWidthSampleMax = 64;
  static constexpr double kMinWidth = 1e-9;
  /// This many consecutive sparse refills (full lap without an in-day
  /// hit) force a same-size rebuild to recalibrate the width — small
  /// queues never grow, so this is their only calibration path.
  static constexpr size_t kSparseRebuildThreshold = 8;
  /// At or below this many live events a sparse refill pulls the whole
  /// queue into the bottom (a sorted array beats any bucketing at this
  /// size).
  static constexpr size_t kSmallPullAll = 32;

  EventId Schedule(SimTime at, const Callback& callback, bool observer);

  /// Places `entry` in the bottom (imminent day) or its calendar bucket
  /// and records its time as its slot's entry time.
  void InsertEntry(const CalEntry& entry);

  /// Calendar entries of live slots: every live slot but the suspended
  /// ones whose entry surfaced.
  size_t LiveEntries() const { return live_count_ - detached_count_; }

  static uint32_t SlotOf(uint64_t ref) {
    return static_cast<uint32_t>(ref & 0xffffffffu);
  }

  /// Maps a timestamp to its calendar day. Guarded against overflowing
  /// the uint64 cast for absurd time/width ratios.
  uint64_t DayOf(SimTime t) const {
    const double day = t * inv_width_;
    if (day >= 9.2e18) return uint64_t{9200000000000000000u};
    return static_cast<uint64_t>(day);
  }

  /// True iff `id` names a pending (possibly suspended) event.
  bool IsPending(EventId id) const {
    const uint32_t slot = SlotOf(id);
    return slot < slot_gen_.size() && (slot_flags_[slot] & kLiveFlag) != 0 &&
           slot_gen_[slot] == static_cast<uint32_t>(id >> 32);
  }

  /// Swap-removes entry `i` from `bucket` (order within a bucket is
  /// irrelevant; extraction order comes from the sorted bottom).
  static void RemoveEntry(Bucket& bucket, size_t i);

  /// Takes the calendar entry of event `id` out of the bottom or its
  /// bucket; the bottom stays sorted.
  void EraseEntry(EventId id);

  /// Ensures the bottom holds the due (time, seq) minimum at its back,
  /// surfacing entries that are not due and refilling from the calendar
  /// when the bottom drains. Returns false iff no event can fire.
  bool PrepareMin();

  /// The bottom's back entry belongs to live slot `slot` but is not due:
  /// pops it, then detaches a suspended slot or re-inserts the entry at
  /// its slot's due key.
  void SurfaceEarly(uint32_t slot);

  /// Moves the soonest day's entries from the calendar into the (empty)
  /// bottom: scans days forward from the cursor for one lap, then falls
  /// back to a direct global-minimum search (sparse queue). Advances
  /// `current_day_`/`bottom_day_`. Returns false iff no live slot has an
  /// entry.
  bool RefillBottom();

  /// Pops the bottom's back entry — the live minimum — advances the
  /// clock, and runs its callback.
  void Fire();

  uint32_t AcquireSlot();
  /// Marks the slot's event finished: empties the callback, bumps the
  /// generation (skipping 0 on wrap so ids stay non-zero), and recycles
  /// the slot.
  void ReleaseSlot(uint32_t index);

  /// Rebuilds the calendar with `new_bucket_count` buckets and a width
  /// re-estimated from the pending events.
  /// (time, seq) is a total order — seq is unique — so redistribution
  /// cannot reorder eventual pops; determinism is unaffected.
  void Rebuild(size_t new_bucket_count);

  /// Picks a bucket width ~3x the mean gap between the soonest pending
  /// events (so consecutive pops usually stay within one bucket-day),
  /// falling back to the current width when there is no signal (fewer
  /// than two events, or all at one instant).
  double ChooseWidth(const std::vector<CalEntry>& entries) const;

  static constexpr uint8_t kLiveFlag = 1;
  static constexpr uint8_t kObserverFlag = 2;
  /// Suspended: the slot cannot fire until `Resume`.
  static constexpr uint8_t kSuspendedFlag = 4;
  /// Resumed while its entry lay before the due key: the entry is re-keyed
  /// to (`slot_due_time_`, `slot_due_seq_`) when it surfaces.
  static constexpr uint8_t kRekeyFlag = 8;
  /// Suspended, and its entry surfaced: the slot has no calendar entry.
  static constexpr uint8_t kDetachedFlag = 16;
  /// An entry whose slot carries either flag is not due when it surfaces.
  static constexpr uint8_t kNotDueMask = kSuspendedFlag | kRekeyFlag;

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t observer_executed_ = 0;
  size_t max_pending_ = 0;
  size_t live_count_ = 0;
  size_t detached_count_ = 0;  // live (suspended) slots without an entry

  /// `bottom_day_` value meaning "no bottom region claimed yet".
  static constexpr uint64_t kNoBottomDay = ~uint64_t{0};

  // Calendar state.
  std::vector<Bucket> buckets_;  // power-of-two count
  size_t bucket_mask_ = 0;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  uint64_t current_day_ = 0;  // no live calendar entry has an earlier day

  // Bottom rung: entries of the imminent day (<= bottom_day_), sorted
  // descending by (time, seq) so the back is the minimum. Entries with
  // day <= bottom_day_ insert here (sorted); later days go to the
  // calendar, whose live entries all have day > bottom_day_.
  std::vector<CalEntry> bottom_;
  uint64_t bottom_day_ = kNoBottomDay;
  size_t sparse_refills_ = 0;  // consecutive refills that needed fallback

  // Event slab, structure-of-arrays: parallel by slot index.
  std::vector<Callback> slot_cb_;
  std::vector<uint32_t> slot_gen_;
  std::vector<uint8_t> slot_flags_;  // k*Flag bits
  std::vector<SimTime> slot_time_;   // time of the slot's calendar entry
  std::vector<SimTime> slot_due_time_;  // due key under kRekeyFlag
  std::vector<uint64_t> slot_due_seq_;
  std::vector<uint32_t> free_slots_;

  std::vector<CalEntry> rebuild_scratch_;
  mutable std::vector<SimTime> width_scratch_;
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_SIMULATOR_H_
