#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wirecap::sim {

EventHandle Scheduler::schedule_at(Nanos when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  std::uint32_t index;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  ++slot.generation;  // even -> odd: pending
  heap_.push_back(Key{when, next_seq_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{this, index, slot.generation};
}

void Scheduler::cancel(std::uint32_t slot, std::uint64_t generation) {
  Slot& s = slots_[slot];
  if (s.generation != generation) return;  // fired, cancelled or reused
  ++s.generation;
  // The key stays in the heap and frees the slot when it is popped.
  s.fn = nullptr;
}

bool Scheduler::pop_and_run() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  free_.push_back(key.slot);
  Slot& slot = slots_[key.slot];
  if (slot.generation % 2 == 0) return false;  // cancelled
  ++slot.generation;
  // Moved out before running: the callback may schedule freely, which
  // can reuse this slot or grow the pool.
  Callback fn = std::move(slot.fn);
  now_ = key.when;
  fn();
  return true;
}

std::uint64_t Scheduler::run() {
  std::uint64_t executed = 0;
  while (step()) ++executed;
  return executed;
}

std::uint64_t Scheduler::run_until(Nanos deadline) {
  std::uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    if (pop_and_run()) ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    if (pop_and_run()) return true;
  }
  return false;
}

}  // namespace wirecap::sim
