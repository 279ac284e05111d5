#include "checks.hpp"

#include <algorithm>
#include <iterator>

namespace perfbench {
namespace {

std::uint64_t gap(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

void expect_equal(std::vector<Violation>& out, const char* check,
                  const char* lhs_name, std::uint64_t lhs,
                  const char* rhs_name, std::uint64_t rhs) {
  if (lhs == rhs) return;
  out.push_back(Violation{check, gap(lhs, rhs),
                          std::string(lhs_name) + " " + std::to_string(lhs) +
                              " != " + rhs_name + " " + std::to_string(rhs)});
}

}  // namespace

std::vector<Violation> check_ledger(const Ledger& l) {
  std::vector<Violation> out;
  if (l.offered == 0) {
    out.push_back(Violation{"nic", 1, "no packet was offered"});
  }
  expect_equal(out, "nic", "offered", l.offered, "received+dropped",
               l.nic_received + l.nic_dropped);
  expect_equal(out, "delivery", "received", l.nic_received,
               "delivered+delivery_dropped", l.delivered + l.delivery_dropped);
  expect_equal(out, "consumer", "delivered", l.delivered, "consumed",
               l.consumed);
  if (l.forwarding) {
    const std::uint64_t sent =
        l.forward_attempts >= l.tx_dropped ? l.forward_attempts - l.tx_dropped
                                           : 0;
    expect_equal(out, "egress", "egress", l.egress,
                 "forward_attempts-tx_dropped", sent);
  }
  if (l.fanout) {
    if (l.subscriber_packets.empty()) {
      out.push_back(Violation{"fanout", l.pipeline_out, "no subscriber"});
    }
    for (std::size_t i = 0; i < l.subscriber_packets.size(); ++i) {
      const std::string name = "subscriber" + std::to_string(i);
      expect_equal(out, "fanout", name.c_str(), l.subscriber_packets[i],
                   "pipeline_out", l.pipeline_out);
    }
  }
  if (l.spool) {
    expect_equal(out, "merge", "merge_records", l.merge_records,
                 "packets_written", l.packets_written);
    if (l.merge_order_violations != 0) {
      out.push_back(Violation{"order", l.merge_order_violations,
                              "timestamps decrease in the full merge"});
    }
    for (const QueryOutcome& q : l.queries) {
      if (q.mismatched == 0) continue;
      out.push_back(Violation{"query." + q.name, q.mismatched,
                              std::to_string(q.mismatched) +
                                  " records differ from the full-merge "
                                  "reference"});
    }
  }
  return out;
}

std::optional<Violation> check_determinism(std::uint64_t first_fingerprint,
                                           std::uint64_t fingerprint,
                                           std::uint64_t offered) {
  if (fingerprint == first_fingerprint) return std::nullopt;
  return Violation{"determinism", offered,
                   "modelled metrics changed between repetitions"};
}

std::uint64_t mismatched_records(std::vector<std::uint64_t> got,
                                 std::vector<std::uint64_t> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  std::vector<std::uint64_t> diff;
  std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                want.end(), std::back_inserter(diff));
  return diff.size();
}

std::uint64_t attempted_operations(const Ledger& l) {
  std::uint64_t total = l.offered + l.merge_records;
  for (const QueryOutcome& q : l.queries) total += q.returned;
  return total;
}

}  // namespace perfbench
