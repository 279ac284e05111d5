#include "sim/bus.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wirecap::sim {

IoBus::IoBus(Scheduler& scheduler, Rate capacity)
    : scheduler_(scheduler), capacity_(capacity) {}

void IoBus::issue(double transactions, Scheduler::Callback done) {
  if (transactions < 0.0) {
    throw std::invalid_argument("IoBus: negative transaction count");
  }
  total_ += transactions;
  if (unconstrained()) {
    // Infinitely fast bus: complete synchronously.  Callers are written
    // to tolerate the callback running inside issue() — this removes one
    // scheduled event per packet on the (common) unconstrained path.
    done();
    return;
  }
  const Nanos service = Nanos::from_seconds(transactions / capacity_.per_second());
  const Nanos start = std::max(scheduler_.now(), busy_until_);
  busy_until_ = start + service;
  scheduler_.schedule_at(busy_until_, std::move(done));
}

Nanos IoBus::current_backlog_delay() const {
  if (unconstrained()) return Nanos::zero();
  const Nanos now = scheduler_.now();
  return busy_until_ > now ? busy_until_ - now : Nanos::zero();
}

}  // namespace wirecap::sim
