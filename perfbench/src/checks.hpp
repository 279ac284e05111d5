// Correctness checks over a workload's Ledger.  Each check is a
// conservation law or an equality the stack must satisfy at drain end;
// a violation reports how many packets or records it cannot account
// for, and those count as failed operations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Violation {
  std::string check;
  std::uint64_t unaccounted = 0;
  std::string detail;
};

/// Runs every check that applies to the ledger's workload:
///   nic:      offered = NIC received + NIC dropped
///   delivery: NIC received = delivered + delivery dropped
///   consumer: delivered = consumed
///   egress:   egress = forward attempts - TX drops        (forwarding)
///   fanout:   every subscriber's packets = pipeline out   (fan-out)
///   merge:    full merge returns packets_written records  (spool)
///   order:    full merge timestamps never decrease        (spool)
///   query.*:  each pruned query returns what its predicate selects
///             from the full merge                         (spool)
[[nodiscard]] std::vector<Violation> check_ledger(const Ledger& ledger);

/// determinism: a repetition's model fingerprint equals the first
/// repetition's.  A mismatch leaves every offered packet unaccounted.
[[nodiscard]] std::optional<Violation> check_determinism(
    std::uint64_t first_fingerprint, std::uint64_t fingerprint,
    std::uint64_t offered);

/// Size of the symmetric difference of two multisets of record ids: a
/// query's result against its reference.
[[nodiscard]] std::uint64_t mismatched_records(std::vector<std::uint64_t> got,
                                               std::vector<std::uint64_t> want);

/// Operations a ledger accounts for: offered packets plus every record
/// read back.
[[nodiscard]] std::uint64_t attempted_operations(const Ledger& ledger);

}  // namespace perfbench
