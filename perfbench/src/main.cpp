// perfbench — the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR]
//
// Repeats the workload, with a fresh fabric each time, until --seconds
// of host time are spent; checks every repetition's outputs; and ends
// with one JSON line.  --trace 0 reports the end-to-end metrics.
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics, a self-time table and the tracing overhead, and
// writes the sampled spans to DIR/.bench_build/spans/.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calibration.hpp"
#include "checks.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  WorkloadId workload = WorkloadId::kBorderOffload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path root = ".";
};

/// Traced runs keep full span records for 1 packet in this many.
constexpr std::uint64_t kSampleEvery = 1024;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "border_offload|fwd64_bus|spool_roundtrip|fanout_filter "
               "--seed N --seconds S --trace 0|1 [--root DIR]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto id = parse_workload(value);
      if (!id) usage("unknown workload");
      args.workload = *id;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Starts a new peak-RSS window: hands freed heap back to the kernel and
/// resets the process's high-water mark (Linux clear_refs).  Without it
/// the peak depends on how much heap earlier repetitions left behind,
/// which varies with the number of repetitions that fit in --seconds.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident memory since the last reset_peak_rss(), or of the whole
/// process where /proc is unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Modelled values and counts every workload reports in a traced run
/// (0 where the workload lacks the layer), with their units.
const std::vector<std::pair<std::string, std::string>>& modelled_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"drop_rate", "ratio"},
      {"latency_p9999_us", "us"},
      {"nic.capture_drop_rate", "ratio"},
      {"nic.tx_drop_rate", "ratio"},
      {"sim.events_per_pkt", "count"},
      {"sim.bus_transactions_per_pkt", "count"},
      {"sim.app_core_util", "ratio"},
      {"sim.capture_core_util", "ratio"},
      {"driver.rescue_share", "ratio"},
      {"driver.copies_per_pkt", "count"},
      {"driver.attach_failures", "count"},
      {"core.offload_share", "ratio"},
      {"core.handoff_fallbacks", "count"},
      {"core.polls_per_chunk", "count"},
      {"core.capture_queue_hw", "count"},
      {"core.pending_hw", "count"},
      {"engines.delivery_drop_rate", "ratio"},
      {"apps.forward_failure_rate", "ratio"},
      {"pipeline.pkts_per_batch", "count"},
      {"pipeline.filter.pass_ratio", "ratio"},
      {"pipeline.sample.pass_ratio", "ratio"},
      {"pipeline.truncate.pass_ratio", "ratio"},
      {"pipeline.fanout.shares_per_batch", "count"},
      {"store.bytes_per_pkt", "B"},
      {"store.queue_hw", "count"},
      {"store.in_flight_hw", "count"},
      {"store.drop_share", "ratio"},
      {"store.drain_latency_p99_us", "us"},
      {"store.segments", "count"},
      {"store.read.full.records", "count"},
      {"store.read.time.records", "count"},
      {"store.read.flow.records", "count"},
      {"store.read.bpf.records", "count"},
      {"store.read.full.skip_share", "ratio"},
      {"store.read.time.skip_share", "ratio"},
      {"store.read.flow.skip_share", "ratio"},
      {"store.read.bpf.skip_share", "ratio"},
      {"perfbench.latency_samples", "count"},
  };
  return units;
}

/// Layers whose self times partition a traced repetition's host time.
/// Work the library does inside scheduler events (capture polls,
/// dispatch, offload, DMA completions, disk writes, pkt_handler and
/// fan-out logic) is not behind a benchmark span and counts as `sim`.
constexpr const char* kLayers[] = {"trace",    "nic", "sim",  "core",
                                   "pipeline", "bpf", "apps", "store",
                                   "perfbench"};

constexpr const char* kQueryNames[] = {"full", "time", "flow", "bpf"};

struct Accumulated {
  std::vector<double> setup_s;
  std::vector<double> rss_mib;
  std::vector<double> untraced_pps;
  std::vector<double> traced_pps;
  std::vector<double> host_speed;
  std::vector<double> close_s;
  std::vector<double> open_s;
  std::vector<double> read_rps;
  std::map<std::string, std::vector<double>> ns_per_record;
  std::uint64_t traced_offered = 0;
  std::uint64_t traced_events = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool have_modelled = false;
  Modelled modelled;
  std::uint64_t fingerprint = 0;
};

void fail(Accumulated& acc, std::uint64_t unaccounted,
          const std::string& what) {
  acc.correct = false;
  acc.failed += unaccounted;
  std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
}

std::unique_ptr<Workload> timed_setup(const Args& args,
                                      const std::filesystem::path& scratch,
                                      Accumulated& acc) {
  const double start = now_s();
  auto workload = make_workload(args.workload, args.seed, scratch);
  acc.setup_s.push_back(now_s() - start);
  return workload;
}

/// One repetition: set-up, timed run (traced or not), checks.
void run_rep(const Args& args, const std::filesystem::path& scratch,
             bool traced, std::uint32_t root_span, Accumulated& acc) {
  reset_peak_rss();
  std::unique_ptr<Workload> workload = timed_setup(args, scratch, acc);
  const std::uint64_t expected = workload->expected_packets();
  calibration().reset();
  spans().set_active(traced);
  try {
    Span root(root_span);
    workload->simulate();
    workload->read_back();
  } catch (const std::exception& e) {
    spans().set_active(false);
    acc.attempted += expected;
    fail(acc, expected, std::string("run threw: ") + e.what());
    return;
  }
  spans().set_active(false);

  const Ledger ledger = workload->ledger();
  acc.attempted += attempted_operations(ledger);
  for (const Violation& v : check_ledger(ledger)) {
    fail(acc, v.unaccounted, v.check + ": " + v.detail);
  }
  const Modelled modelled = workload->modelled();
  const std::uint64_t print = fingerprint(modelled);
  if (!acc.have_modelled) {
    acc.have_modelled = true;
    acc.modelled = modelled;
    acc.fingerprint = print;
  } else if (const auto v =
                 check_determinism(acc.fingerprint, print, ledger.offered)) {
    fail(acc, v->unaccounted, v->check + ": " + v->detail);
  }

  acc.rss_mib.push_back(peak_rss_mib());
  const HostTimes& host = workload->host();
  // Host-speed-normalised rate: the reference slices' own time is left
  // out, and the rest is scaled to the reference host (calibration.hpp).
  const double pps = static_cast<double>(ledger.offered) /
                     (host.simulate_s - calibration().seconds()) /
                     calibration().speed();
  (traced ? acc.traced_pps : acc.untraced_pps).push_back(pps);
  acc.host_speed.push_back(calibration().speed());
  if (traced) {
    acc.traced_offered += ledger.offered;
    acc.traced_events += host.events;
  }
  const std::vector<QueryOutcome> reads = workload->read_outcomes();
  if (!reads.empty()) {
    acc.close_s.push_back(host.close_s);
    acc.open_s.push_back(host.open_s);
    double read_s = host.open_s;
    std::uint64_t records = 0;
    for (const QueryOutcome& q : reads) {
      read_s += q.host_s;
      records += q.returned;
      acc.ns_per_record[q.name].push_back(
          q.returned ? q.host_s * 1e9 / static_cast<double>(q.returned)
                     : 0.0);
    }
    acc.read_rps.push_back(static_cast<double>(records) / read_s);
  }
}

double modelled_value(const Modelled& m, const std::string& name) {
  if (name == "drop_rate") return m.drop_rate;
  if (name == "latency_p9999_us") return m.latency_p9999_us;
  if (name == "perfbench.latency_samples") {
    return static_cast<double>(m.latency_samples);
  }
  for (const Metric& metric : m.layer) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

/// The paper anchor of each workload's modelled drop rate, printed at
/// every seed and asserted at seed 0 by the benchmark's own tests.
void print_anchor(WorkloadId id, const Modelled& m) {
  const double pct = 100.0 * m.drop_rate;
  switch (id) {
    case WorkloadId::kBorderOffload:
      std::printf("anchor: drop_rate %.2f%%; EXPERIMENTS.md Fig. 11 "
                  "WireCAP-A-(256,100,60%%) at 4 queues: 0.0%%\n",
                  pct);
      break;
    case WorkloadId::kFwd64Bus:
      std::printf("anchor: drop_rate %.2f%%; EXPERIMENTS.md Fig. 14 "
                  "64-byte WireCAP-A-(256,100) band: 15-26%%\n",
                  pct);
      break;
    case WorkloadId::kSpoolRoundtrip:
    case WorkloadId::kFanoutFilter:
      std::printf("anchor: drop_rate %.2f%%; no paper figure (lossless by "
                  "construction)\n",
                  pct);
      break;
  }
  std::printf("note: the model is otherwise unvalidated against "
              "hardware\n");
}

std::vector<ReportedMetric> end_to_end(const Accumulated& acc) {
  const Modelled& m = acc.modelled;
  return {
      {"sim_pps", median(acc.untraced_pps), "1/s"},
      {"setup_s",
       median(acc.setup_s) *
           std::pow(median(acc.host_speed), kSetupSpeedExponent),
       "s"},
      {"peak_rss_mib", median(acc.rss_mib), "MiB"},
      {"delivered_share", 1.0 - m.drop_rate, "ratio"},
      {"latency_p50_us", m.latency_p50_us, "us"},
      {"latency_p999_us", m.latency_p999_us, "us"},
  };
}

std::vector<ReportedMetric> per_layer(const Accumulated& acc) {
  const SpanRecorder& rec = spans();
  const double offered = static_cast<double>(acc.traced_offered);
  const auto per_pkt = [&](double ns) {
    return offered > 0.0 ? ns / offered : 0.0;
  };
  double total_ns = 0.0;
  for (const char* layer : kLayers) total_ns += rec.layer_self_ns(layer);

  std::vector<ReportedMetric> out;
  const auto add_ns = [&](const char* name, double ns) {
    out.push_back({name, per_pkt(ns), "ns"});
  };
  add_ns("trace.next_ns", rec.inclusive_ns("trace.next"));
  add_ns("nic.receive_ns", rec.inclusive_ns("nic.receive"));
  add_ns("nic.self_ns", rec.layer_self_ns("nic"));
  add_ns("sim.self_ns", rec.layer_self_ns("sim"));
  // The calibration slices run inside scheduler events; they are not
  // the simulator's cost.
  const double sim_ns = rec.inclusive_ns("sim.run_until") -
                        rec.inclusive_ns("perfbench.calibrate");
  out.push_back({"sim.host_ns_per_event",
                 acc.traced_events
                     ? sim_ns / static_cast<double>(acc.traced_events)
                     : 0.0,
                 "ns"});
  add_ns("core.self_ns", rec.layer_self_ns("core"));
  add_ns("pipeline.self_ns", rec.layer_self_ns("pipeline"));
  add_ns("bpf.self_ns", rec.layer_self_ns("bpf"));
  add_ns("apps.subscriber_ns", rec.layer_self_ns("apps"));
  add_ns("store.self_ns", rec.layer_self_ns("store"));
  add_ns("perfbench.self_ns", rec.layer_self_ns("perfbench"));
  add_ns("host.total_ns", total_ns);

  out.push_back({"store.close_s", median(acc.close_s), "s"});
  out.push_back({"store.open_s", median(acc.open_s), "s"});
  for (const char* q : kQueryNames) {
    const auto it = acc.ns_per_record.find(q);
    out.push_back({std::string("store.read.") + q + ".ns_per_record",
                   it == acc.ns_per_record.end() ? 0.0 : median(it->second),
                   "ns"});
  }
  out.push_back({"store.read_rps", median(acc.read_rps), "1/s"});

  const double untraced = median(acc.untraced_pps);
  const double traced = median(acc.traced_pps);
  out.push_back({"perfbench.untraced_sim_pps", untraced, "1/s"});
  out.push_back({"perfbench.traced_sim_pps", traced, "1/s"});
  out.push_back({"perfbench.tracing_overhead",
                 traced > 0.0 ? untraced / traced - 1.0 : 0.0, "ratio"});
  out.push_back({"perfbench.spans_recorded",
                 static_cast<double>(rec.records().size()), "count"});

  for (const auto& [name, unit] : modelled_layer_units()) {
    out.push_back({name, modelled_value(acc.modelled, name), unit});
  }
  return out;
}

void print_self_table(const Accumulated& acc) {
  const SpanRecorder& rec = spans();
  double total = 0.0;
  for (const char* layer : kLayers) total += rec.layer_self_ns(layer);
  const double offered = static_cast<double>(acc.traced_offered);
  std::printf("self time per layer (traced repetitions, %llu packets):\n",
              static_cast<unsigned long long>(acc.traced_offered));
  std::printf("  %-10s %12s %8s\n", "layer", "ns/pkt", "share");
  for (const char* layer : kLayers) {
    const double ns = rec.layer_self_ns(layer);
    std::printf("  %-10s %12.1f %7.2f%%\n", layer, ns / offered,
                total > 0.0 ? 100.0 * ns / total : 0.0);
  }
  std::printf("  %-10s %12.1f %7.2f%%\n", "total", total / offered, 100.0);
  std::printf("  root span inclusive: %.1f ns/pkt (rows sum to it)\n",
              rec.inclusive_ns("perfbench.run") / offered);
}

int run(const Args& args) {
  const std::filesystem::path build = args.root / ".bench_build";
  const std::filesystem::path scratch = build / "scratch";
  std::filesystem::create_directories(scratch);
  spans().reset(kSampleEvery, 1u << 18);
  HostCalibration::prepare();
  const std::uint32_t root_span = spans().intern("perfbench.run");

  Accumulated acc;
  constexpr std::size_t kMinReps = 3;
  constexpr std::size_t kMinSetups = 5;
  const double start = now_s();
  std::size_t reps = 0;
  for (;;) {
    const double rep_start = now_s();
    // Traced runs alternate, untraced first, so both halves see the
    // same drift in machine load.
    const bool traced = args.trace && reps % 2 == 1;
    run_rep(args, scratch, traced, root_span, acc);
    ++reps;
    const double elapsed = now_s() - start;
    const double rep_s = now_s() - rep_start;
    const std::size_t min_reps = args.trace ? 2 * kMinReps : kMinReps;
    if (reps >= min_reps && elapsed + rep_s > args.seconds) break;
  }
  while (acc.setup_s.size() < kMinSetups) timed_setup(args, scratch, acc);

  std::printf("workload %s seed %llu: %zu repetitions, %.1f s\n",
              to_string(args.workload),
              static_cast<unsigned long long>(args.seed), reps,
              now_s() - start);
  for (const double pps : acc.untraced_pps) {
    std::printf("  untraced sim_pps %.0f\n", pps);
  }
  for (const double pps : acc.traced_pps) {
    std::printf("  traced   sim_pps %.0f\n", pps);
  }
  for (const double speed : acc.host_speed) {
    std::printf("  host speed %.3f of the reference host\n", speed);
  }
  for (const double mib : acc.rss_mib) {
    std::printf("  peak_rss_mib %.1f\n", mib);
  }
  if (!acc.read_rps.empty()) {
    std::printf("read_rps %.0f records/s (median)\n", median(acc.read_rps));
  }
  if (acc.have_modelled) {
    print_anchor(args.workload, acc.modelled);
    std::printf("model fingerprint %016llx (%llu offered, %llu latency "
                "samples)\n",
                static_cast<unsigned long long>(acc.fingerprint),
                static_cast<unsigned long long>(acc.modelled.offered),
                static_cast<unsigned long long>(acc.modelled.latency_samples));
  }

  std::vector<ReportedMetric> metrics;
  if (args.trace) {
    print_self_table(acc);
    std::filesystem::create_directories(build / "spans");
    const std::filesystem::path out =
        build / "spans" /
        (std::string(to_string(args.workload)) + "-seed" +
         std::to_string(args.seed) + ".jsonl");
    if (!spans().write_records(out.string())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    } else {
      std::printf("spans: %zu sampled records (%llu over the cap) -> %s\n",
                  spans().records().size(),
                  static_cast<unsigned long long>(spans().records_dropped()),
                  out.c_str());
    }
    metrics = per_layer(acc);
  } else {
    metrics = end_to_end(acc);
  }
  for (const ReportedMetric& m : metrics) {
    std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!acc.have_modelled) acc.correct = false;
  std::printf("%s\n",
              result_json(acc.correct, acc.attempted, acc.failed, metrics)
                  .c_str());
  return acc.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
