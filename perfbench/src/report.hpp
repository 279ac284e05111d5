// Result formatting: the one-line JSON result the benchmark ends with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ReportedMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with every value printed at full precision.
[[nodiscard]] std::string result_json(
    bool correct, std::uint64_t attempted, std::uint64_t failed,
    const std::vector<ReportedMetric>& metrics);

}  // namespace perfbench
