#include "calibration.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kTableMask = (1u << 16) - 1;  // 256 KiB: in L2
constexpr std::size_t kHeapSize = 4096;
constexpr int kStepsPerSlice = 8000;

/// The reference kernel and its state, kept across slices so that every
/// slice does the same work on warm data structures.
class Kernel {
 public:
  /// One slice: heap pushes and pops plus dependent loads and stores in
  /// a table, the mix of the simulator's event queue and flow state.
  void run() {
    auto index = static_cast<std::uint32_t>(state_);
    for (int i = 0; i < kStepsPerSlice; ++i) {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      const auto low = static_cast<std::uint32_t>(state_);
      index = table_[(index ^ low) & kTableMask] += low;
      heap_.push(state_ & 0xFFFFFFFFULL);
      if (heap_.size() > kHeapSize) {
        sink_ += heap_.top();
        heap_.pop();
      }
    }
    sink_ += index;
  }

  /// Reads all of the kernel's data, so that the timed part of a slice
  /// runs on warm caches whatever the simulator touched since the last.
  void touch() {
    std::uint32_t sum = 0;
    for (const std::uint32_t v : table_) sum += v;
    for (const std::uint64_t v : heap_.items()) {
      sum += static_cast<std::uint32_t>(v);
    }
    sink_ += sum;
  }

  /// Slices until the heap is full, so that every later slice does the
  /// same pushes and pops.
  void warm_up() {
    while (heap_.size() < kHeapSize) run();
    run();
  }

 private:
  /// The heap's vector is read directly by touch().
  struct Heap : std::priority_queue<std::uint64_t,
                                    std::vector<std::uint64_t>,
                                    std::greater<>> {
    [[nodiscard]] const std::vector<std::uint64_t>& items() const {
      return c;
    }
  };

  std::array<std::uint32_t, kTableMask + 1> table_{};
  Heap heap_;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sink_ = 0;
};

Kernel& kernel() {
  static Kernel instance;
  return instance;
}

}  // namespace

void HostCalibration::prepare() { kernel().warm_up(); }

void HostCalibration::reset() {
  packets_ = 0;
  slices_ = 0;
  seconds_ = 0.0;
  kernel_seconds_ = 0.0;
}

void HostCalibration::run_slice() {
  static const std::uint32_t name = spans().intern("perfbench.calibrate");
  Span span(name);
  const auto start = std::chrono::steady_clock::now();
  kernel().touch();
  const auto warm = std::chrono::steady_clock::now();
  kernel().run();
  const auto end = std::chrono::steady_clock::now();
  seconds_ += std::chrono::duration<double>(end - start).count();
  kernel_seconds_ += std::chrono::duration<double>(end - warm).count();
  ++slices_;
}

double HostCalibration::speed() const {
  if (slices_ == 0 || kernel_seconds_ <= 0.0) return 1.0;
  return kNominalSliceSeconds * static_cast<double>(slices_) /
         kernel_seconds_;
}

}  // namespace perfbench
