// Deterministic discrete-event scheduler.
//
// Every experiment in this reproduction runs on virtual time: packet
// arrivals, DMA completions, capture-thread polls and application
// processing are all events ordered by (timestamp, insertion sequence).
// Ties are broken by insertion order, so runs are bit-for-bit repeatable.
//
// Layout (DESIGN.md §15): a binary min-heap of small {when, seq, slot}
// keys and a pool of reusable callback slots.  Callbacks are moved, never
// copied, and each slot's 64-bit generation keeps a stale EventHandle
// from reaching a later occupant of its slot.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace wirecap::sim {

class Scheduler;

/// Handle for a scheduled event; allows cancellation (e.g. a blocking
/// capture whose timeout is pre-empted by packet arrival).  A handle must
/// not outlive the Scheduler that issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Safe to call repeatedly
  /// or on a default-constructed handle.
  inline void cancel();

  [[nodiscard]] inline bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot,
              std::uint64_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (>= now).
  EventHandle schedule_at(Nanos when, Callback fn);

  /// Schedules `fn` after a relative delay (>= 0).
  EventHandle schedule_after(Nanos delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue is empty.  Returns the number executed.
  std::uint64_t run();

  /// Runs events with timestamps <= `deadline`; afterwards now() ==
  /// max(now, deadline).  Returns the number executed (cancelled events
  /// are skipped and not counted); no event later than `deadline` runs.
  std::uint64_t run_until(Nanos deadline);

  /// Executes the single next live event, if any.  Returns false when
  /// none is left.
  bool step();

  /// Queue size, counting cancelled events not yet reached.
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

 private:
  friend class EventHandle;

  struct Key {
    Nanos when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// A slot's generation is odd while it holds a pending event, and even
  /// once that event has fired or been cancelled.
  struct Slot {
    Callback fn;
    std::uint64_t generation = 0;
  };

  /// Pops the earliest key; runs its event unless it was cancelled.
  /// Returns whether an event ran.
  bool pop_and_run();

  [[nodiscard]] bool is_pending(std::uint32_t slot,
                                std::uint64_t generation) const {
    return slots_[slot].generation == generation;
  }
  void cancel(std::uint32_t slot, std::uint64_t generation);

  Nanos now_ = Nanos::zero();
  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  /// Slots whose event has left the heap, reused LIFO.
  std::vector<std::uint32_t> free_;
};

inline void EventHandle::cancel() {
  if (scheduler_ != nullptr) scheduler_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->is_pending(slot_, generation_);
}

}  // namespace wirecap::sim
