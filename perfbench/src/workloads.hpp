// The four benchmark workloads, each wired from the stack's public
// classes (traffic source -> NIC -> WireCAP engine -> pkt_handler /
// pipeline + fan-out / spool) on one deterministic scheduler.
//
// Constructing a Workload is the set-up (fabric and traffic source);
// simulate() is the timed run; read_back() is the timed store read of
// spool_roundtrip.  The benchmark's own injector, timing decorators and
// observers sit at the layer boundaries, so a traced run attributes host
// time per layer without touching the library code.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class WorkloadId {
  kBorderOffload,
  kFwd64Bus,
  kSpoolRoundtrip,
  kFanoutFilter
};

inline constexpr WorkloadId kAllWorkloads[] = {
    WorkloadId::kBorderOffload, WorkloadId::kFwd64Bus,
    WorkloadId::kSpoolRoundtrip, WorkloadId::kFanoutFilter};

[[nodiscard]] const char* to_string(WorkloadId id);
[[nodiscard]] std::optional<WorkloadId> parse_workload(std::string_view name);

/// Per-workload generator seed: `base` at seed 0 (the configuration the
/// repository's figure benches use), a distinct stream for every other
/// seed.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base,
                                                  std::uint64_t seed) {
  return base ^ (seed * 0x9E3779B97F4A7C15ULL);
}

/// One read-back query whose result is compared against the same
/// predicate applied to the full merge.
struct QueryOutcome {
  std::string name;
  std::uint64_t returned = 0;
  /// Records in the query result but not in the reference, plus records
  /// in the reference but not in the result.
  std::uint64_t mismatched = 0;
  std::uint64_t segments_total = 0;
  std::uint64_t segments_skipped = 0;
  double host_s = 0.0;
};

/// Raw counters the correctness checks reconcile (checks.hpp).  All are
/// read from public stats accessors or counted by the benchmark's own
/// injector and observers.
struct Ledger {
  std::uint64_t offered = 0;
  std::uint64_t nic_received = 0;
  std::uint64_t nic_dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivery_dropped = 0;
  /// Packets finished by the consumer (pkt_handler, pipeline runner or
  /// store sink).
  std::uint64_t consumed = 0;

  bool forwarding = false;
  std::uint64_t forward_attempts = 0;
  std::uint64_t tx_dropped = 0;
  std::uint64_t egress = 0;

  bool fanout = false;
  std::uint64_t pipeline_out = 0;
  std::vector<std::uint64_t> subscriber_packets;

  bool spool = false;
  std::uint64_t packets_written = 0;
  std::uint64_t merge_records = 0;
  std::uint64_t merge_order_violations = 0;
  std::vector<QueryOutcome> queries;  // index-pruned queries only
};

/// A named metric value.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// Everything the paper's model determines for a seed: identical across
/// repetitions and between traced and untraced runs.
struct Modelled {
  std::uint64_t offered = 0;
  double drop_rate = 0.0;
  double latency_p50_us = 0.0;
  double latency_p999_us = 0.0;
  double latency_p9999_us = 0.0;
  std::uint64_t latency_samples = 0;
  /// Per-layer modelled values and counts, in report order.
  std::vector<Metric> layer;
};

/// FNV-1a over every modelled value (bit patterns of the doubles).
[[nodiscard]] std::uint64_t fingerprint(const Modelled& modelled);

struct HostTimes {
  double simulate_s = 0.0;
  double close_s = 0.0;
  double open_s = 0.0;
  std::uint64_t events = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The timed run: injects the traffic and runs the simulation to its
  /// drain horizon (spool_roundtrip also closes the spool).
  virtual void simulate() = 0;
  /// spool_roundtrip only: the timed read-back queries.
  virtual void read_back() {}
  /// The read-back queries run, full merge first (empty elsewhere).
  [[nodiscard]] virtual std::vector<QueryOutcome> read_outcomes() const {
    return {};
  }

  [[nodiscard]] virtual Ledger ledger() const = 0;
  [[nodiscard]] virtual Modelled modelled() const = 0;
  [[nodiscard]] virtual const HostTimes& host() const = 0;
  [[nodiscard]] virtual std::uint64_t expected_packets() const = 0;
};

/// Builds the fabric and traffic source for `id` (the set-up).  `scratch`
/// is a directory the workload may create files under; spool_roundtrip
/// writes its segments into a private subdirectory it removes when
/// destroyed.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    WorkloadId id, std::uint64_t seed, const std::filesystem::path& scratch);

}  // namespace perfbench
