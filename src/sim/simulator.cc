#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::sim {

namespace {

constexpr uint64_t MakeEventId(uint32_t slot, uint32_t generation) {
  return (static_cast<uint64_t>(generation) << 32) | slot;
}

}  // namespace

Simulator::Simulator() {
  buckets_.resize(kMinBuckets);
  bucket_mask_ = kMinBuckets - 1;
}

uint32_t Simulator::AcquireSlot() {
  if (free_slots_.empty()) {
    GRANULOCK_CHECK_LT(slot_gen_.size(), (size_t{1} << 32))
        << "event slab exhausted";
    slot_cb_.emplace_back();
    slot_gen_.push_back(1);
    slot_flags_.push_back(0);
    slot_time_.push_back(0.0);
    slot_due_time_.push_back(0.0);
    slot_due_seq_.push_back(0);
    return static_cast<uint32_t>(slot_gen_.size() - 1);
  }
  const uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

void Simulator::ReleaseSlot(uint32_t index) {
  slot_cb_[index] = Callback();
  slot_flags_[index] = 0;
  if (++slot_gen_[index] == 0) slot_gen_[index] = 1;  // ids stay non-zero
  free_slots_.push_back(index);
  --live_count_;
}

EventId Simulator::Schedule(SimTime at, const Callback& callback,
                            bool observer) {
  GRANULOCK_CHECK_GE(at, now_) << "cannot schedule into the past";
  const uint32_t index = AcquireSlot();
  slot_cb_[index] = callback;
  slot_flags_[index] =
      static_cast<uint8_t>(kLiveFlag | (observer ? kObserverFlag : 0));
  const uint64_t ref = MakeEventId(index, slot_gen_[index]);
  InsertEntry(CalEntry{at, next_seq_++, ref});
  ++live_count_;
  max_pending_ = std::max(max_pending_, live_count_);
  if (live_count_ > buckets_.size() * 2) Rebuild(buckets_.size() * 2);
  return ref;
}

void Simulator::InsertEntry(const CalEntry& entry) {
  slot_time_[SlotOf(entry.ref)] = entry.time;
  const uint64_t day = DayOf(entry.time);
  if (day <= bottom_day_ && bottom_day_ != kNoBottomDay) {
    // Imminent event: sorted-insert into the bottom so it pops in pure
    // (time, seq) order ahead of everything in the calendar. The bottom
    // is small (one day's events), so the shift is a short memmove.
    bottom_.insert(std::lower_bound(bottom_.begin(), bottom_.end(), entry,
                                    EntryLater{}),
                   entry);
  } else {
    Bucket& bucket = buckets_[day & bucket_mask_];
    bucket.time.push_back(entry.time);
    bucket.seq.push_back(entry.seq);
    bucket.ref.push_back(entry.ref);
  }
}

EventId Simulator::ScheduleAt(SimTime at, Callback callback) {
  return Schedule(at, callback, /*observer=*/false);
}

EventId Simulator::ScheduleAfter(SimTime delay, Callback callback) {
  GRANULOCK_CHECK_GE(delay, 0.0);
  return Schedule(now_ + delay, callback, /*observer=*/false);
}

EventId Simulator::ScheduleObserverAt(SimTime at, Callback callback) {
  return Schedule(at, callback, /*observer=*/true);
}

EventId Simulator::ScheduleObserverAfter(SimTime delay, Callback callback) {
  GRANULOCK_CHECK_GE(delay, 0.0);
  return Schedule(now_ + delay, callback, /*observer=*/true);
}

void Simulator::Suspend(EventId id) {
  GRANULOCK_CHECK(IsPending(id) &&
                  (slot_flags_[SlotOf(id)] & kSuspendedFlag) == 0)
      << "event " << id << " is not pending, or already suspended";
  slot_flags_[SlotOf(id)] |= kSuspendedFlag;
}

void Simulator::Resume(EventId id, SimTime at) {
  GRANULOCK_CHECK_GE(at, now_) << "cannot resume into the past";
  GRANULOCK_CHECK(IsPending(id) &&
                  (slot_flags_[SlotOf(id)] & kSuspendedFlag) != 0)
      << "event " << id << " is not suspended";
  const uint32_t index = SlotOf(id);
  uint8_t& flags = slot_flags_[index];
  const uint64_t seq = next_seq_++;
  if ((flags & kDetachedFlag) != 0) {
    // Its entry surfaced while suspended: place a new one.
    --detached_count_;
  } else if (slot_time_[index] > at) {
    // The entry would surface too late: move it to the new key.
    EraseEntry(id);
  } else {
    // The entry lies before the new key (an older seq breaks a time tie):
    // it stays put and is re-keyed when it surfaces.
    flags = static_cast<uint8_t>((flags & ~kSuspendedFlag) | kRekeyFlag);
    slot_due_time_[index] = at;
    slot_due_seq_[index] = seq;
    return;
  }
  flags &= static_cast<uint8_t>(
      ~(kSuspendedFlag | kRekeyFlag | kDetachedFlag));
  InsertEntry(CalEntry{at, seq, id});
}

void Simulator::RemoveEntry(Bucket& bucket, size_t i) {
  bucket.time[i] = bucket.time.back();
  bucket.seq[i] = bucket.seq.back();
  bucket.ref[i] = bucket.ref.back();
  bucket.time.pop_back();
  bucket.seq.pop_back();
  bucket.ref.pop_back();
}

void Simulator::EraseEntry(EventId id) {
  // The entry lies where `InsertEntry` put it at its recorded time.
  const uint64_t day = DayOf(slot_time_[SlotOf(id)]);
  if (day <= bottom_day_ && bottom_day_ != kNoBottomDay) {
    const auto it =
        std::find_if(bottom_.begin(), bottom_.end(),
                     [id](const CalEntry& entry) { return entry.ref == id; });
    GRANULOCK_DCHECK(it != bottom_.end());
    bottom_.erase(it);
    return;
  }
  Bucket& bucket = buckets_[day & bucket_mask_];
  const auto it = std::find(bucket.ref.begin(), bucket.ref.end(), id);
  GRANULOCK_DCHECK(it != bucket.ref.end());
  RemoveEntry(bucket, static_cast<size_t>(it - bucket.ref.begin()));
}

bool Simulator::RefillBottom() {
  GRANULOCK_DCHECK(bottom_.empty());
  if (LiveEntries() == 0) return false;
  // Every pending event is >= now_, so the cursor can skip straight past
  // days the clock has already left behind.
  const uint64_t now_day = DayOf(now_);
  uint64_t day = std::max(current_day_, now_day);
  // One lap of the calendar: visit days in order. The first day holding
  // a live in-day entry is the global minimum's day, because no live
  // calendar entry lies behind the cursor.
  bool found = false;
  for (size_t lap = 0; lap < buckets_.size(); ++lap, ++day) {
    Bucket& bucket = buckets_[day & bucket_mask_];
    if (bucket.ref.empty()) continue;
    for (size_t i = 0; i < bucket.time.size();) {
      // Same bucket, different year: not this day's business.
      if (DayOf(bucket.time[i]) == day) {
        bottom_.push_back(
            CalEntry{bucket.time[i], bucket.seq[i], bucket.ref[i]});
        RemoveEntry(bucket, i);
      } else {
        ++i;
      }
    }
    if (!bottom_.empty()) {
      found = true;
      break;
    }
  }
  if (found) {
    sparse_refills_ = 0;
  } else {
    // A full lap found nothing in-day: the queue is sparse relative to
    // its year (all events more than nbuckets days out), which means the
    // width underestimates the real event gaps. Repeated sparse refills
    // trigger a same-size rebuild purely to re-estimate the width from
    // the pending population (small queues never hit the growth-triggered
    // rebuild that normally calibrates it).
    if (++sparse_refills_ >= kSparseRebuildThreshold) {
      sparse_refills_ = 0;
      Rebuild(buckets_.size());
    }
    if (LiveEntries() <= kSmallPullAll) {
      // Tiny queue: pull *everything* into the bottom, degrading to a
      // plain sorted-array priority queue — optimal at this size, and
      // subsequent imminent inserts go straight into the bottom instead
      // of round-tripping through the calendar.
      uint64_t max_day = 0;
      for (Bucket& bucket : buckets_) {
        for (size_t i = 0; i < bucket.time.size(); ++i) {
          max_day = std::max(max_day, DayOf(bucket.time[i]));
          bottom_.push_back(
              CalEntry{bucket.time[i], bucket.seq[i], bucket.ref[i]});
        }
        bucket.time.clear();
        bucket.seq.clear();
        bucket.ref.clear();
      }
      GRANULOCK_CHECK(!bottom_.empty())
          << "live entries=" << LiveEntries() << " but none found";
      day = max_day;
    } else {
      // Direct search for the minimum day; pull that day and jump the
      // cursor to it.
      uint64_t best_day = 0;
      for (const Bucket& bucket : buckets_) {
        for (SimTime t : bucket.time) {
          const uint64_t d = DayOf(t);
          if (!found || d < best_day) {
            best_day = d;
            found = true;
          }
        }
      }
      GRANULOCK_CHECK(found) << "live entries=" << LiveEntries()
                             << " but none found";
      day = best_day;
      Bucket& bucket = buckets_[day & bucket_mask_];
      for (size_t i = 0; i < bucket.time.size();) {
        if (DayOf(bucket.time[i]) == day) {
          bottom_.push_back(
              CalEntry{bucket.time[i], bucket.seq[i], bucket.ref[i]});
          RemoveEntry(bucket, i);
        } else {
          ++i;
        }
      }
    }
  }
  // Minimum at the back; a same-timestamp burst is sorted once here
  // instead of re-scanned on every pop.
  std::sort(bottom_.begin(), bottom_.end(), EntryLater{});
  current_day_ = day;
  bottom_day_ = day;
  return true;
}

bool Simulator::PrepareMin() {
  for (;;) {
    while (!bottom_.empty()) {
      const uint32_t slot = SlotOf(bottom_.back().ref);
      if ((slot_flags_[slot] & kNotDueMask) == 0) return true;
      SurfaceEarly(slot);
    }
    if (!RefillBottom()) return false;
  }
}

void Simulator::SurfaceEarly(uint32_t slot) {
  const uint64_t ref = bottom_.back().ref;
  bottom_.pop_back();
  uint8_t& flags = slot_flags_[slot];
  if ((flags & kSuspendedFlag) != 0) {
    flags = static_cast<uint8_t>((flags & ~kRekeyFlag) | kDetachedFlag);
    ++detached_count_;
    return;
  }
  flags &= static_cast<uint8_t>(~kRekeyFlag);
  InsertEntry(CalEntry{slot_due_time_[slot], slot_due_seq_[slot], ref});
}

void Simulator::Fire() {
  const CalEntry entry = bottom_.back();
  bottom_.pop_back();
  const uint32_t slot = SlotOf(entry.ref);
  // Copy the callback out before invoking: the callback may schedule new
  // events that reuse this very slot.
  Callback cb = slot_cb_[slot];
  const bool observer = (slot_flags_[slot] & kObserverFlag) != 0;
  ReleaseSlot(slot);
  // Event-time monotonicity: the clock never runs backwards. Extraction
  // yields the (time, seq) minimum and scheduling into the past is
  // rejected, so a violation here means the queue bookkeeping is
  // corrupt.
  GRANULOCK_DCHECK_GE(entry.time, now_)
      << "event " << entry.ref << " fires at " << entry.time
      << " but the clock is at " << now_;
  now_ = entry.time;
  if (observer) {
    ++observer_executed_;
  } else {
    ++executed_;
  }
  if (live_count_ < buckets_.size() / 4 && buckets_.size() > kMinBuckets) {
    Rebuild(buckets_.size() / 2);
  }
  cb();
}

bool Simulator::Step() {
  if (!PrepareMin()) return false;
  Fire();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  GRANULOCK_CHECK_GE(deadline, now_);
  while (PrepareMin()) {
    if (bottom_.back().time > deadline) break;
    Fire();
  }
  now_ = deadline;
}

void Simulator::RunUntilEmpty() {
  while (Step()) {
  }
}

double Simulator::ChooseWidth(const std::vector<CalEntry>& entries) const {
  if (entries.size() < 2) return width_;
  const size_t k = std::min(entries.size(), kWidthSampleMax);
  width_scratch_.clear();
  width_scratch_.reserve(entries.size());
  for (const CalEntry& entry : entries) width_scratch_.push_back(entry.time);
  // The k soonest events are the neighborhood the cursor is about to walk
  // through; their gaps predict the pop cadence.
  std::nth_element(width_scratch_.begin(), width_scratch_.begin() + (k - 1),
                   width_scratch_.end());
  std::sort(width_scratch_.begin(), width_scratch_.begin() + k);
  // Brown's two-pass estimate: a raw mean gap is easily wrecked by a few
  // far-future stragglers (watchdogs, observer ticks) in an otherwise
  // dense schedule — one huge gap would spread the dense cluster across
  // a single day and turn extraction into a linear scan. Average once,
  // then average again over only the gaps below twice the raw mean.
  const double raw_span = width_scratch_[k - 1] - width_scratch_[0];
  if (!(raw_span > 0.0)) return width_;  // all at one instant: no signal
  const double raw_mean = raw_span / static_cast<double>(k - 1);
  double filtered_sum = 0.0;
  size_t filtered_n = 0;
  for (size_t i = 1; i < k; ++i) {
    const double gap = width_scratch_[i] - width_scratch_[i - 1];
    if (gap <= 2.0 * raw_mean) {
      filtered_sum += gap;
      ++filtered_n;
    }
  }
  // ~3x the (filtered) mean gap keeps consecutive pops usually within one
  // day while still spreading the population over distinct buckets.
  double width = filtered_n > 0 && filtered_sum > 0.0
                     ? 3.0 * filtered_sum / static_cast<double>(filtered_n)
                     : 3.0 * raw_mean;
  if (!std::isfinite(width)) return width_;
  return std::max(width, kMinWidth);
}

void Simulator::Rebuild(size_t new_bucket_count) {
  rebuild_scratch_.clear();
  rebuild_scratch_.reserve(LiveEntries());
  for (Bucket& bucket : buckets_) {
    for (size_t i = 0; i < bucket.time.size(); ++i) {
      rebuild_scratch_.push_back(
          CalEntry{bucket.time[i], bucket.seq[i], bucket.ref[i]});
    }
    bucket.time.clear();
    bucket.seq.clear();
    bucket.ref.clear();
  }
  // The bottom redistributes like any other pending entries; the next
  // extraction refills it under the new geometry.
  rebuild_scratch_.insert(rebuild_scratch_.end(), bottom_.begin(),
                          bottom_.end());
  bottom_.clear();
  bottom_day_ = kNoBottomDay;
  GRANULOCK_DCHECK_EQ(rebuild_scratch_.size(), LiveEntries());

  width_ = ChooseWidth(rebuild_scratch_);
  inv_width_ = 1.0 / width_;
  buckets_.resize(new_bucket_count);
  bucket_mask_ = new_bucket_count - 1;
  // now_ <= every live timestamp, so DayOf(now_) lower-bounds every live
  // day — a valid (if conservative) cursor.
  current_day_ = DayOf(now_);
  for (const CalEntry& entry : rebuild_scratch_) {
    Bucket& bucket = buckets_[DayOf(entry.time) & bucket_mask_];
    bucket.time.push_back(entry.time);
    bucket.seq.push_back(entry.seq);
    bucket.ref.push_back(entry.ref);
  }
}

void Simulator::CheckConsistency() const {
  // Every queue entry belongs to a live slot, each calendar entry sits in
  // the bucket its day maps to, and the bottom/calendar split respects
  // `bottom_day_`.
  std::vector<uint8_t> seen(slot_gen_.size(), 0);
  // One entry per live slot, recorded at its slot's entry time and never
  // after the slot's due key.
  auto check_entry = [&](SimTime time, uint64_t seq, uint64_t ref) {
    const uint32_t slot = SlotOf(ref);
    const bool live = IsPending(ref);
    GRANULOCK_AUDIT_CHECK(live)
        << "queue entry (" << time << ", " << seq << ") of event " << ref
        << " belongs to slot " << slot << ", which is not live";
    if (!live) return;
    GRANULOCK_AUDIT_CHECK(!seen[slot])
        << "slot " << slot << " has two queue entries";
    seen[slot] = 1;
    GRANULOCK_AUDIT_CHECK_EQ(time, slot_time_[slot])
        << "slot " << slot << " records entry time " << slot_time_[slot];
    if ((slot_flags_[slot] & kRekeyFlag) != 0) {
      const SimTime due = slot_due_time_[slot];
      GRANULOCK_AUDIT_CHECK(time < due ||
                            (time == due && seq < slot_due_seq_[slot]))
          << "slot " << slot << " entry (" << time << ", " << seq
          << ") lies after its due key (" << due << ", "
          << slot_due_seq_[slot] << ")";
    }
    // The minimum is the next event to fire; anything earlier than the
    // clock would have fired already (or time would run backwards).
    GRANULOCK_AUDIT_CHECK_GE(time, now_)
        << "pending event at " << time << " is before now=" << now_;
  };
  GRANULOCK_AUDIT_CHECK_EQ(bucket_mask_ + 1, buckets_.size())
      << "bucket mask " << bucket_mask_ << " does not match "
      << buckets_.size() << " buckets";
  GRANULOCK_AUDIT_CHECK(width_ > 0.0 && inv_width_ == 1.0 / width_)
      << "width=" << width_ << " inv_width=" << inv_width_;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    GRANULOCK_AUDIT_CHECK(bucket.time.size() == bucket.seq.size() &&
                          bucket.time.size() == bucket.ref.size())
        << "bucket " << b << " parallel arrays disagree";
    for (size_t i = 0; i < bucket.time.size(); ++i) {
      const uint64_t day = DayOf(bucket.time[i]);
      GRANULOCK_AUDIT_CHECK_EQ(day & bucket_mask_, b)
          << "entry at t=" << bucket.time[i] << " (day " << day
          << ") stored in bucket " << b;
      // The day cursor lower-bounds every calendar day (refill relies on
      // it to stop at the first in-day hit), and the bottom holds
      // everything at or before `bottom_day_`.
      GRANULOCK_AUDIT_CHECK_GE(day, current_day_)
          << "pending event at day " << day << " is behind the cursor at "
          << current_day_;
      if (bottom_day_ != kNoBottomDay) {
        GRANULOCK_AUDIT_CHECK_GT(day, bottom_day_)
            << "calendar entry at day " << day
            << " belongs in the bottom (bottom_day=" << bottom_day_ << ")";
      }
      check_entry(bucket.time[i], bucket.seq[i], bucket.ref[i]);
    }
  }
  for (size_t i = 0; i < bottom_.size(); ++i) {
    const CalEntry& entry = bottom_[i];
    GRANULOCK_AUDIT_CHECK(bottom_day_ != kNoBottomDay)
        << "bottom holds entries but claims no day";
    GRANULOCK_AUDIT_CHECK_LE(DayOf(entry.time), bottom_day_)
        << "bottom entry at day " << DayOf(entry.time)
        << " is beyond bottom_day=" << bottom_day_;
    if (i + 1 < bottom_.size()) {
      const CalEntry& next = bottom_[i + 1];
      GRANULOCK_AUDIT_CHECK(entry.time > next.time ||
                            (entry.time == next.time && entry.seq > next.seq))
          << "bottom not sorted descending at index " << i;
    }
    check_entry(entry.time, entry.seq, entry.ref);
  }
  // Every slot is live (with a callback, and a queue entry unless it is
  // suspended and its entry surfaced) or recycled. With the checks above,
  // this makes the entries number `LiveEntries()`.
  size_t live_slots = 0;
  size_t detached_slots = 0;
  for (size_t i = 0; i < slot_gen_.size(); ++i) {
    const uint8_t flags = slot_flags_[i];
    if ((flags & kLiveFlag) == 0) continue;
    ++live_slots;
    GRANULOCK_AUDIT_CHECK(static_cast<bool>(slot_cb_[i]))
        << "live slot " << i << " has no callback";
    if ((flags & kDetachedFlag) != 0) {
      ++detached_slots;
      GRANULOCK_AUDIT_CHECK((flags & kSuspendedFlag) != 0 && !seen[i])
          << "slot " << i << " is marked entryless but is not suspended "
          << "or still has a queue entry";
      GRANULOCK_AUDIT_CHECK((flags & kRekeyFlag) == 0)
          << "entryless slot " << i << " awaits a re-key";
    } else {
      GRANULOCK_AUDIT_CHECK(seen[i])
          << "live slot " << i << " has no queue entry";
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(live_slots, live_count_);
  GRANULOCK_AUDIT_CHECK_EQ(detached_slots, detached_count_);
  GRANULOCK_AUDIT_CHECK_EQ(slot_gen_.size(), live_count_ + free_slots_.size())
      << "slots=" << slot_gen_.size() << " live=" << live_count_
      << " free=" << free_slots_.size();
  GRANULOCK_AUDIT_CHECK_GE(max_pending_, PendingEvents());
}

}  // namespace granulock::sim
