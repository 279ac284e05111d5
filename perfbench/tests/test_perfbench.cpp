// The benchmark's own tests: seed plumbing and the model fingerprint,
// the paper anchors at seed 0, the span accounting, and a tamper test
// for every correctness check.
//
// Build and run with `python3 perfbench/run.py --test` (about a minute:
// each workload is simulated three times).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "calibration.hpp"
#include "checks.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::filesystem::path scratch_dir() {
  static const std::filesystem::path dir = [] {
    auto path = std::filesystem::current_path() / "perfbench-test-scratch";
    std::filesystem::create_directories(path);
    return path;
  }();
  return dir;
}

struct Outcome {
  Ledger ledger;
  Modelled modelled;
  std::uint64_t fingerprint = 0;
};

Outcome simulate(WorkloadId id, std::uint64_t seed, bool traced) {
  auto workload = make_workload(id, seed, scratch_dir());
  spans().reset(1024, 1u << 16);
  spans().set_active(traced);
  workload->simulate();
  workload->read_back();
  spans().set_active(false);
  Outcome out;
  out.ledger = workload->ledger();
  out.modelled = workload->modelled();
  out.fingerprint = fingerprint(out.modelled);
  return out;
}

/// Seed 0 untraced, seed 0 traced and seed 1 untraced, simulated once
/// per workload and shared by the tests below.
struct Runs {
  Outcome seed0;
  Outcome seed0_traced;
  Outcome seed1;
};

const Runs& runs(WorkloadId id) {
  static std::map<WorkloadId, Runs> cache;
  auto it = cache.find(id);
  if (it == cache.end()) {
    Runs r{simulate(id, 0, false), simulate(id, 0, true),
           simulate(id, 1, false)};
    it = cache.emplace(id, std::move(r)).first;
  }
  return it->second;
}

class WorkloadTest : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(WorkloadTest, PassesEveryCheck) {
  for (const Outcome* o : {&runs(GetParam()).seed0, &runs(GetParam()).seed1}) {
    const auto violations = check_ledger(o->ledger);
    for (const Violation& v : violations) {
      ADD_FAILURE() << v.check << ": " << v.detail;
    }
    EXPECT_GT(o->ledger.offered, 0u);
  }
}

TEST_P(WorkloadTest, SameSeedGivesSameFingerprint) {
  const Runs& r = runs(GetParam());
  const Outcome again = simulate(GetParam(), 0, false);
  EXPECT_EQ(again.fingerprint, r.seed0.fingerprint);
}

TEST_P(WorkloadTest, TracingLeavesTheModelBitIdentical) {
  const Runs& r = runs(GetParam());
  EXPECT_EQ(r.seed0_traced.fingerprint, r.seed0.fingerprint);
}

TEST_P(WorkloadTest, DifferentSeedChangesTheFingerprint) {
  const Runs& r = runs(GetParam());
  EXPECT_NE(r.seed1.fingerprint, r.seed0.fingerprint);
}

TEST_P(WorkloadTest, ReportsNonZeroEndToEndModelledMetrics) {
  const Modelled& m = runs(GetParam()).seed0.modelled;
  EXPECT_GT(m.latency_p50_us, 0.0);
  EXPECT_GE(m.latency_p999_us, m.latency_p50_us);
  EXPECT_GE(m.latency_p9999_us, m.latency_p999_us);
  // p99.99 needs at least ten samples beyond it.
  EXPECT_GE(m.latency_samples, 100'000u);
  EXPECT_LT(m.drop_rate, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadTest, ::testing::ValuesIn(kAllWorkloads),
    [](const ::testing::TestParamInfo<WorkloadId>& info) {
      return std::string(to_string(info.param));
    });

// --- paper anchors (EXPERIMENTS.md) at the default seed ---

TEST(Anchors, BorderOffloadIsLosslessAsInFig11) {
  EXPECT_EQ(runs(WorkloadId::kBorderOffload).seed0.modelled.drop_rate, 0.0);
}

TEST(Anchors, Fwd64BusDropsInsideTheFig14Band) {
  const double drop = runs(WorkloadId::kFwd64Bus).seed0.modelled.drop_rate;
  EXPECT_GE(drop, 0.15);
  EXPECT_LE(drop, 0.26);
}

// --- every check can fail ---

bool trips(const Ledger& ledger, const std::string& check) {
  for (const Violation& v : check_ledger(ledger)) {
    if (v.check == check && v.unaccounted > 0) return true;
  }
  return false;
}

TEST(Tamper, SkewedNicDropCountTripsNic) {
  Ledger l = runs(WorkloadId::kFwd64Bus).seed0.ledger;
  l.nic_dropped += 1;
  EXPECT_TRUE(trips(l, "nic"));
}

TEST(Tamper, LostDeliveryTripsDelivery) {
  Ledger l = runs(WorkloadId::kBorderOffload).seed0.ledger;
  l.delivered -= 1;
  EXPECT_TRUE(trips(l, "delivery"));
}

TEST(Tamper, UnconsumedPacketTripsConsumer) {
  Ledger l = runs(WorkloadId::kBorderOffload).seed0.ledger;
  l.consumed -= 1;
  EXPECT_TRUE(trips(l, "consumer"));
}

TEST(Tamper, MissingEgressTripsEgress) {
  Ledger l = runs(WorkloadId::kFwd64Bus).seed0.ledger;
  l.egress -= 1;
  EXPECT_TRUE(trips(l, "egress"));
}

TEST(Tamper, SubscriberShortOfPipelineOutputTripsFanout) {
  Ledger l = runs(WorkloadId::kFanoutFilter).seed0.ledger;
  ASSERT_EQ(l.subscriber_packets.size(), 3u);
  l.subscriber_packets[2] -= 1;
  EXPECT_TRUE(trips(l, "fanout"));
}

TEST(Tamper, DroppedReadBackRecordTripsMerge) {
  Ledger l = runs(WorkloadId::kSpoolRoundtrip).seed0.ledger;
  l.merge_records -= 1;
  EXPECT_TRUE(trips(l, "merge"));
}

TEST(Tamper, OutOfOrderRecordTripsOrder) {
  Ledger l = runs(WorkloadId::kSpoolRoundtrip).seed0.ledger;
  l.merge_order_violations = 1;
  EXPECT_TRUE(trips(l, "order"));
}

TEST(Tamper, PrunedQueryMissingOneRecordTripsItsQueryCheck) {
  Ledger l = runs(WorkloadId::kSpoolRoundtrip).seed0.ledger;
  ASSERT_EQ(l.queries.size(), 3u);
  for (QueryOutcome& q : l.queries) {
    ASSERT_GT(q.returned, 0u) << q.name;
    EXPECT_EQ(q.mismatched, 0u) << q.name;
  }
  // What a pruning bug looks like: the index skipped a segment that held
  // one matching record.
  std::vector<std::uint64_t> reference{7, 11, 13, 42};
  std::vector<std::uint64_t> pruned{7, 11, 42};
  l.queries[1].mismatched = mismatched_records(pruned, reference);
  EXPECT_EQ(l.queries[1].mismatched, 1u);
  EXPECT_TRUE(trips(l, "query." + l.queries[1].name));
  EXPECT_EQ(mismatched_records(reference, reference), 0u);
  EXPECT_EQ(mismatched_records({7, 7, 11, 13, 42}, reference), 1u);
}

TEST(Tamper, NothingOfferedTripsNic) {
  Ledger l;
  EXPECT_TRUE(trips(l, "nic"));
}

TEST(Tamper, ChangedFingerprintTripsDeterminism) {
  const Outcome& o = runs(WorkloadId::kFwd64Bus).seed0;
  EXPECT_FALSE(check_determinism(o.fingerprint, o.fingerprint,
                                 o.ledger.offered));
  const auto v =
      check_determinism(o.fingerprint, o.fingerprint ^ 1, o.ledger.offered);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->check, "determinism");
  EXPECT_EQ(v->unaccounted, o.ledger.offered);
}

// --- span accounting ---

TEST(Spans, SelfTimesPartitionTheRootSpan) {
  SpanRecorder& rec = spans();
  rec.reset(1, 1024);
  const std::uint32_t root = rec.intern("perfbench.test_root");
  const std::uint32_t a = rec.intern("alpha.work");
  const std::uint32_t b = rec.intern("beta.work");
  rec.set_active(true);
  volatile double sink = 0.0;
  {
    Span r(root);
    for (int i = 0; i < 100; ++i) {
      Span outer(a, static_cast<std::uint64_t>(i));
      for (int k = 0; k < 1000; ++k) sink = sink + k;
      Span inner(b);
      for (int k = 0; k < 1000; ++k) sink = sink + k;
    }
  }
  rec.set_active(false);
  const double total = rec.layer_self_ns("perfbench") +
                       rec.layer_self_ns("alpha") + rec.layer_self_ns("beta");
  EXPECT_NEAR(total, rec.inclusive_ns("perfbench.test_root"), 1e-6 * total);
  EXPECT_GT(rec.layer_self_ns("beta"), 0.0);
  EXPECT_LT(rec.layer_self_ns("alpha"), rec.inclusive_ns("alpha.work"));
  EXPECT_EQ(rec.records().size(), 201u);
}

TEST(Spans, InactiveRecorderRecordsNothing) {
  SpanRecorder& rec = spans();
  rec.reset(1, 16);
  const std::uint32_t name = rec.intern("alpha.idle");
  { Span s(name); }
  EXPECT_TRUE(rec.records().empty());
  EXPECT_EQ(rec.inclusive_ns("alpha.idle"), 0.0);
}

TEST(Calibration, RunsOneSliceEveryKPacketsPerSlice) {
  HostCalibration::prepare();
  HostCalibration cal;
  EXPECT_EQ(cal.speed(), 1.0);
  for (std::uint64_t i = 0; i < 3 * kPacketsPerSlice - 1; ++i) {
    cal.on_packet();
  }
  EXPECT_EQ(cal.slices(), 2u);
  EXPECT_GT(cal.seconds(), 0.0);
  EXPECT_GT(cal.speed(), 0.0);
  cal.reset();
  EXPECT_EQ(cal.slices(), 0u);
  EXPECT_EQ(cal.speed(), 1.0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const int status = RUN_ALL_TESTS();
  std::filesystem::remove_all(perfbench::scratch_dir());
  return status;
}
