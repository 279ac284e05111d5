// Host-speed calibration for the timed runs.
//
// On a shared host the same simulation can take 30% more or less time
// from one minute to the next, because other tenants contend for the
// core.  To keep sim_pps comparable between runs, the benchmark's
// injector runs a short, fixed reference kernel every kPacketsPerSlice
// packets, inside the timed run.  The kernel does what the simulator's
// event loop mostly does (heap pushes and pops, dependent loads and
// stores in a table that fits in L2) but runs none of the repository's
// code, so a change to the program leaves its cost alone while a slower
// host slows both alike.
//
// speed() compares the kernel's time per slice over a run with its
// nominal time on the reference host (a 4-vCPU Xeon VM), and sim_pps is
// the raw rate divided by it.  setup_s is scaled by the run's median
// speed to the power kSetupSpeedExponent.
#pragma once

#include <cstdint>

namespace perfbench {

/// Packets between reference slices.
inline constexpr std::uint64_t kPacketsPerSlice = 8192;
/// Median host seconds of one slice on the reference host.
inline constexpr double kNominalSliceSeconds = 3.1e-4;
/// How set-up time scales with the kernel's, fitted on the reference
/// host: set-up is mostly allocation and page faults, which contention
/// slows less than it slows the kernel.
inline constexpr double kSetupSpeedExponent = 0.4;

class HostCalibration {
 public:
  /// Warms the kernel's data; call once before the first timed run so
  /// that every slice does the same work.
  static void prepare();

  /// Forgets the slices run so far (one timed run starts).
  void reset();
  /// Counts one injected packet, running a slice every kPacketsPerSlice.
  void on_packet() {
    if (++packets_ % kPacketsPerSlice == 0) run_slice();
  }
  /// Runs one slice of the reference kernel: an untimed pass that warms
  /// its data, then the timed kernel.
  void run_slice();

  [[nodiscard]] std::uint64_t slices() const { return slices_; }
  /// Host seconds of every slice, warm-up included: what the timed run
  /// leaves out.
  [[nodiscard]] double seconds() const { return seconds_; }
  /// Nominal over measured kernel time per slice: above 1 on a faster
  /// host, 1 when no slice ran.
  [[nodiscard]] double speed() const;

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t slices_ = 0;
  double seconds_ = 0.0;
  double kernel_seconds_ = 0.0;
};

/// The process-wide calibration the injectors report to.
inline HostCalibration g_calibration;
inline HostCalibration& calibration() { return g_calibration; }

}  // namespace perfbench
