// Unit tests for the discrete-event substrate: scheduler ordering and
// cancellation, simulated-core rate behaviour and priority starvation
// (the receive-livelock ingredient), and the I/O bus model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/bus.hpp"
#include "sim/core.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(Nanos{30}, [&] { order.push_back(3); });
  scheduler.schedule_at(Nanos{10}, [&] { order.push_back(1); });
  scheduler.schedule_at(Nanos{20}, [&] { order.push_back(2); });
  EXPECT_EQ(scheduler.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), Nanos{30});
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.schedule_at(Nanos{100}, [&, i] { order.push_back(i); });
  }
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunUntilAdvancesClock) {
  Scheduler scheduler;
  int fired = 0;
  scheduler.schedule_at(Nanos{50}, [&] { ++fired; });
  scheduler.schedule_at(Nanos{150}, [&] { ++fired; });
  scheduler.run_until(Nanos{100});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(scheduler.now(), Nanos{100});
  scheduler.run_until(Nanos{200});
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancellationPreventsExecution) {
  Scheduler scheduler;
  int fired = 0;
  EventHandle handle = scheduler.schedule_at(Nanos{10}, [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  scheduler.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, RunUntilDoesNotRunPastDeadlineAfterCancelled) {
  // A cancelled event at the head of the queue must not let run_until
  // reach past it to a live event beyond the deadline.
  Scheduler scheduler;
  int fired = 0;
  EventHandle early = scheduler.schedule_at(Nanos{10}, [&] { ++fired; });
  scheduler.schedule_at(Nanos{200}, [&] { ++fired; });
  early.cancel();
  EXPECT_EQ(scheduler.run_until(Nanos{100}), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(scheduler.now(), Nanos{100});
  EXPECT_EQ(scheduler.run_until(Nanos{200}), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunUntilCountsExcludeCancelled) {
  Scheduler scheduler;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(scheduler.schedule_at(Nanos{10 * (i + 1)}, [] {}));
  }
  handles[0].cancel();
  handles[3].cancel();
  handles[5].cancel();
  EXPECT_EQ(scheduler.run_until(Nanos{60}), 3u);
  EXPECT_TRUE(scheduler.empty());
  EXPECT_EQ(scheduler.run(), 0u);
}

TEST(Scheduler, PendingIsFalseAfterFiring) {
  Scheduler scheduler;
  bool saw_pending_inside = true;
  EventHandle handle;
  handle = scheduler.schedule_at(
      Nanos{10}, [&] { saw_pending_inside = handle.pending(); });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(scheduler.step());
  EXPECT_FALSE(saw_pending_inside);  // already fired while it runs
  EXPECT_FALSE(handle.pending());
}

TEST(Scheduler, StaleHandleDoesNotTouchSlotReuser) {
  Scheduler scheduler;
  int first = 0;
  int second = 0;
  EventHandle stale = scheduler.schedule_at(Nanos{10}, [&] { ++first; });
  EXPECT_EQ(scheduler.run(), 1u);
  // Fired: cancelling the stale handle is a no-op.
  stale.cancel();
  EXPECT_FALSE(stale.pending());

  // The pool holds one free slot, so the next event reuses it.
  EventHandle fresh = scheduler.schedule_at(Nanos{20}, [&] { ++second; });
  EXPECT_TRUE(fresh.pending());
  EXPECT_FALSE(stale.pending());
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(scheduler.run(), 1u);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Scheduler, CancelledHandleDoesNotTouchSlotReuser) {
  Scheduler scheduler;
  int fired = 0;
  EventHandle cancelled = scheduler.schedule_at(Nanos{10}, [&] { fired += 1; });
  cancelled.cancel();
  EXPECT_FALSE(scheduler.step());  // pops the cancelled key, frees its slot
  EventHandle fresh = scheduler.schedule_at(Nanos{20}, [&] { fired += 10; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  EXPECT_TRUE(fresh.pending());
  scheduler.run();
  EXPECT_EQ(fired, 10);
}

TEST(Scheduler, CancelIsIdempotentAndSafeOnDefaultHandle) {
  Scheduler scheduler;
  EventHandle none;
  EXPECT_FALSE(none.pending());
  none.cancel();
  none.cancel();

  int fired = 0;
  EventHandle handle = scheduler.schedule_at(Nanos{10}, [&] { ++fired; });
  scheduler.schedule_at(Nanos{20}, [&] { ++fired; });
  handle.cancel();
  handle.cancel();
  EXPECT_EQ(scheduler.pending_events(), 2u);  // cancelled key not yet reached
  EXPECT_EQ(scheduler.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CallbackMayCancelAndSchedule) {
  Scheduler scheduler;
  std::vector<int> order;
  EventHandle victim = scheduler.schedule_at(Nanos{30}, [&] {
    order.push_back(-1);
  });
  scheduler.schedule_at(Nanos{10}, [&] {
    order.push_back(1);
    victim.cancel();
    // Scheduled while running: lands between the two original events.
    scheduler.schedule_at(Nanos{20}, [&] { order.push_back(2); });
    scheduler.schedule_at(Nanos{40}, [&] { order.push_back(4); });
  });
  scheduler.schedule_at(Nanos{35}, [&] { order.push_back(3); });
  EXPECT_EQ(scheduler.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_FALSE(victim.pending());
}

TEST(Scheduler, TiesKeepInsertionOrderAcrossSlotReuse) {
  Scheduler scheduler;
  std::vector<int> order;
  // Free a few slots in scrambled order so later events reuse them.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(scheduler.schedule_at(Nanos{5}, [] {}));
  }
  handles[2].cancel();
  handles[0].cancel();
  scheduler.run();
  for (int i = 0; i < 8; ++i) {
    scheduler.schedule_at(Nanos{100}, [&, i] { order.push_back(i); });
  }
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Scheduler, CallbackMaySchedule) {
  Scheduler scheduler;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) scheduler.schedule_after(Nanos{10}, step);
  };
  scheduler.schedule_after(Nanos{0}, step);
  scheduler.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(scheduler.now(), Nanos{40});
}

TEST(Scheduler, PastSchedulingThrows) {
  Scheduler scheduler;
  scheduler.schedule_at(Nanos{100}, [] {});
  scheduler.run();
  EXPECT_THROW(scheduler.schedule_at(Nanos{50}, [] {}), std::invalid_argument);
}

TEST(SimCore, SerializesWork) {
  Scheduler scheduler;
  SimCore core{scheduler, 0};
  std::vector<std::int64_t> completion_times;
  for (int i = 0; i < 3; ++i) {
    core.submit(WorkPriority::kUser, Nanos{100}, [&] {
      completion_times.push_back(scheduler.now().count());
    });
  }
  scheduler.run();
  EXPECT_EQ(completion_times, (std::vector<std::int64_t>{100, 200, 300}));
  EXPECT_EQ(core.busy_time(), Nanos{300});
}

TEST(SimCore, SpeedScaling) {
  Scheduler scheduler;
  SimCore slow{scheduler, 0, 1.2};  // half of the 2.4 GHz reference
  std::int64_t done_at = 0;
  slow.submit(WorkPriority::kUser, Nanos{100},
              [&] { done_at = scheduler.now().count(); });
  scheduler.run();
  EXPECT_EQ(done_at, 200);
}

TEST(SimCore, KernelWorkStarvesUserWork) {
  // The receive-livelock mechanism: a stream of kernel-priority items
  // keeps jumping ahead of queued user work.
  Scheduler scheduler;
  SimCore core{scheduler, 0};
  std::int64_t user_done_at = -1;
  int kernel_done = 0;

  // Feed 10 kernel items; each completion enqueues the next, emulating
  // NAPI polling under sustained arrivals.
  std::function<void()> kernel_feed = [&] {
    ++kernel_done;
    if (kernel_done < 10) {
      core.submit(WorkPriority::kKernel, Nanos{100}, kernel_feed);
    }
  };
  core.submit(WorkPriority::kKernel, Nanos{100}, kernel_feed);
  core.submit(WorkPriority::kUser, Nanos{100},
              [&] { user_done_at = scheduler.now().count(); });
  scheduler.run();
  // All 10 kernel items ran before the single user item.
  EXPECT_EQ(user_done_at, 1100);
}

TEST(SimCore, UtilizationReflectsBusyFraction) {
  Scheduler scheduler;
  SimCore core{scheduler, 0};
  core.submit(WorkPriority::kUser, Nanos{250}, [] {});
  scheduler.schedule_at(Nanos{1000}, [] {});
  scheduler.run();
  EXPECT_NEAR(core.utilization(), 0.25, 1e-9);
}

TEST(IoBus, UnconstrainedCompletesSynchronously) {
  Scheduler scheduler;
  IoBus bus{scheduler};
  bool done = false;
  bus.issue(5.0, [&] { done = true; });
  EXPECT_TRUE(done);  // no scheduling round-trip
  EXPECT_DOUBLE_EQ(bus.total_transactions(), 5.0);
}

TEST(IoBus, ConstrainedSerializesAtCapacity) {
  Scheduler scheduler;
  IoBus bus{scheduler, Rate{1e6}};  // 1 transaction per microsecond
  std::vector<std::int64_t> completions;
  for (int i = 0; i < 3; ++i) {
    bus.issue(1.0, [&] { completions.push_back(scheduler.now().count()); });
  }
  scheduler.run();
  EXPECT_EQ(completions, (std::vector<std::int64_t>{1000, 2000, 3000}));
}

TEST(IoBus, BacklogDelayGrowsUnderOverload) {
  Scheduler scheduler;
  IoBus bus{scheduler, Rate{1e6}};
  for (int i = 0; i < 100; ++i) bus.issue(1.0, [] {});
  EXPECT_EQ(bus.current_backlog_delay(), Nanos::from_micros(100));
}

TEST(CostModel, PktHandlerRateMatchesPaper) {
  // x = 300 at 2.4 GHz must give the paper's 38,844 p/s.
  const CostModel costs;
  const Nanos per_packet = costs.pkt_handler_cost(300);
  const double rate = 1e9 / static_cast<double>(per_packet.count());
  EXPECT_NEAR(rate, kPaperPktHandlerRate300, 40.0);
}

TEST(CostModel, X0StaysAboveWireRate) {
  // With x = 0 a single core must keep up with 14.88 Mp/s (Figure 8:
  // DNA, NETMAP and WireCAP capture at wire speed without loss).
  const CostModel costs;
  const double rate =
      1e9 / static_cast<double>(costs.pkt_handler_cost(0).count() +
                                costs.ring_sync_cost.count());
  EXPECT_GT(rate, kWireRate64B);
}

}  // namespace
}  // namespace wirecap::sim
