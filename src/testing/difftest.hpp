// Differential oracle for the three BPF filter implementations.
//
// The repo carries four independent answers to "does this packet match
// this filter": the semantic evaluator (bpf/eval.cpp), the classic-BPF
// interpreter (bpf/vm.cpp) running compiler output (bpf/codegen.cpp),
// the pre-decoded interpreter (bpf/predecode.cpp) in both its run() and
// run_batch() forms, and the compiler re-invoked on the parser
// round-trip of the same expression.  They are supposed to be
// extensionally equal; this module
// generates structured frames (plain/VLAN/QinQ Ethernet, IPv4 with
// options and fragments, TCP/UDP, IPv6, truncated captures, garbage)
// and filter expressions over the full parser grammar, and checks every
// (filter, frame) pair for agreement:
//
//   evaluate(expr)  ==  run(compile(expr))  ==  run(compile(reparse(
//       to_string(expr))))  ==  re-run after disasm + re-verify
//
// A separate generator emits random *valid* programs and asserts that
// verify() acceptance implies run() never throws, and a text mutator
// feeds the parser malformed inputs asserting ParseError is the only
// escape.  Everything derives from one seed, so a diverging pair
// replays bit-for-bit.  run_difftest_soak() sweeps consecutive seeds —
// the regression gate CI runs.
//
// Tier 2 (run_engine_crosscheck) replays one generated traffic set
// through the pcap_compat facade on all five engines (PF_RING, DNA,
// NETMAP, PSIOE, WireCAP) and asserts the delivered match sets are
// identical to each other and to the eval oracle, with zero drops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bpf/ast.hpp"
#include "bpf/insn.hpp"
#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace wirecap::testing {

/// One generated capture: `bytes` is the captured prefix (caplen) of a
/// frame that was `wire_len` bytes on the wire.
struct GeneratedFrame {
  std::vector<std::byte> bytes;
  std::uint32_t wire_len = 0;
  std::string description;
};

/// Seeded structured frame generator.  Emits the traffic mix the BPF
/// grammar can discriminate: IPv4 (TCP/UDP/ICMP) plain and behind one
/// or two 802.1Q tags, IP options, fragments, IPv6, undersized garbage,
/// and truncated captures (caplen < wire_len).
class FrameGenerator {
 public:
  explicit FrameGenerator(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] GeneratedFrame next();

 private:
  Xoshiro256 rng_;
};

/// Seeded filter-expression generator over the full parser grammar.
/// Draws addresses/ports/VIDs from the same pools as FrameGenerator so
/// generated pairs actually exercise both match outcomes.
class FilterGenerator {
 public:
  explicit FilterGenerator(std::uint64_t seed) : rng_(seed) {}

  /// A random expression AST (never null).
  [[nodiscard]] bpf::ExprPtr next_expr();
  /// Renders next_expr() through bpf::to_string.
  [[nodiscard]] std::string next();

 private:
  [[nodiscard]] bpf::ExprPtr gen(unsigned depth);
  [[nodiscard]] bpf::ExprPtr gen_primitive();

  Xoshiro256 rng_;
};

/// A random program that verify() accepts *by construction*: jumps stay
/// forward and in range, memory slots stay below kMemSlots, the program
/// ends in RET.  Used to assert acceptance implies run() cannot throw.
[[nodiscard]] bpf::Program generate_valid_program(Xoshiro256& rng);

/// One disagreement between implementations on one (filter, frame)
/// pair, or a structural failure (round-trip, recompile) of a filter.
struct Divergence {
  std::string kind;  // "eval_vm", "reparse", "recompile", "rerun", ...
  std::string filter;
  std::string frame;
  std::string detail;
};

struct DifftestConfig {
  std::uint64_t seed = 1;
  /// Filters generated per run.
  std::uint32_t filters = 32;
  /// Frames generated per run (each filter is checked against all).
  std::uint32_t frames = 96;
  /// Random valid programs executed against random frames.
  std::uint32_t programs = 64;
  /// Mutated filter texts fed to the parser (ParseError-only contract).
  std::uint32_t mutations = 128;
  /// Divergence counters are published under difftest.* when set.
  telemetry::Telemetry* telemetry = nullptr;
};

struct DifftestResult {
  std::uint64_t seed = 0;
  std::uint64_t filters = 0;
  std::uint64_t frames = 0;
  std::uint64_t pairs = 0;
  std::uint64_t program_runs = 0;
  /// Mutated texts the parser rejected with ParseError (the rest
  /// parsed; both outcomes honor the contract).
  std::uint64_t parse_rejects = 0;
  /// Filters rejected by the documented jump-offset-overflow limit.
  std::uint64_t compile_rejects = 0;
  std::vector<Divergence> divergences;
  [[nodiscard]] bool clean() const { return divergences.empty(); }
};

/// One seeded differential run over generated filters × frames, plus
/// the valid-program and parser-mutation sweeps.
[[nodiscard]] DifftestResult run_difftest(const DifftestConfig& config);

struct DifftestSoakResult {
  std::uint32_t seeds_run = 0;
  std::uint32_t seeds_clean = 0;
  std::uint64_t total_pairs = 0;
  std::uint64_t total_program_runs = 0;
  std::uint64_t total_divergences = 0;
  /// "seed N [kind] filter '...' frame '...': detail" per divergence.
  std::vector<std::string> failures;
  [[nodiscard]] bool clean() const { return total_divergences == 0; }
  /// Multi-line divergence report (the CI artifact on failure).
  [[nodiscard]] std::string report() const;
};

/// Runs run_difftest over `count` consecutive seeds starting at
/// `first_seed`, with `base` supplying everything but the seed.
[[nodiscard]] DifftestSoakResult run_difftest_soak(std::uint64_t first_seed,
                                                   std::uint32_t count,
                                                   DifftestConfig base = {});

struct EngineCrosscheckConfig {
  std::uint64_t seed = 1;
  /// Frames injected per engine (identical traffic for all five).
  std::uint32_t frames = 160;
  /// Filter expression; empty generates one from the seed.
  std::string filter;
  telemetry::Telemetry* telemetry = nullptr;
};

struct EngineCrosscheckResult {
  struct PerEngine {
    std::string name;
    std::uint64_t matched = 0;
    std::uint64_t recv = 0;
    std::uint64_t drop = 0;
    std::uint64_t ifdrop = 0;
  };
  std::string filter;
  std::uint64_t oracle_matched = 0;
  std::vector<PerEngine> engines;
  std::vector<std::string> problems;
  [[nodiscard]] bool clean() const { return problems.empty(); }
};

/// Tier 2: replays one generated traffic set through pcap_compat on all
/// five engines and cross-checks the match sets against the eval
/// oracle (computed on the delivered snap-length bytes).
[[nodiscard]] EngineCrosscheckResult run_engine_crosscheck(
    const EngineCrosscheckConfig& config);

struct BatchEquivalenceConfig {
  std::uint64_t seed = 1;
  /// Frames injected per engine instance (identical traffic for the
  /// per-packet and the batched instance of every engine).
  std::uint32_t frames = 160;
  /// Filter expression; empty generates one from the seed.
  std::string filter;
  /// Upper bound on views per try_next_batch pull.
  std::uint32_t max_batch = 64;
  /// Seeded adversities on the batched reader: the per-pull limit
  /// varies randomly in [1, max_batch] and completed batches are held
  /// back and released LIFO (exercising deferred and out-of-order
  /// recycling under deref_n / the PF_RING read-ahead window).
  bool adversarial = false;
};

struct BatchEquivalenceResult {
  struct PerEngine {
    std::string name;
    std::uint64_t packets = 0;   // delivered on each path
    std::uint64_t batches = 0;   // try_next_batch pulls that returned >0
    std::uint64_t chunks = 0;    // try_next_chunk pulls that returned a chunk
    std::uint64_t matched = 0;   // filter matches (identical both paths)
  };
  std::string filter;
  std::uint64_t oracle_matched = 0;
  std::vector<PerEngine> engines;
  std::vector<std::string> problems;
  [[nodiscard]] bool clean() const { return problems.empty(); }
};

/// Tier 2b: for each of the five engines, replays one generated traffic
/// set through three identical fabrics — one drained packet-at-a-time
/// (try_next / done, filter via Predecoded::run), one drained in
/// batches (try_next_batch / done_batch, filter via run_batch) and one
/// drained in chunks (try_next_chunk / done_chunk, bytes recorded after
/// the whole chunk is read) — and asserts all three paths produce
/// byte-identical (seq, bytes, wire_len) streams and identical match
/// sets, equal to the eval oracle.
[[nodiscard]] BatchEquivalenceResult run_batch_equivalence(
    const BatchEquivalenceConfig& config);

struct BatchEquivalenceSoakResult {
  std::uint32_t seeds_run = 0;
  std::uint32_t seeds_clean = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t total_problems = 0;
  /// "seed N: <problem>" per divergence.
  std::vector<std::string> failures;
  [[nodiscard]] bool clean() const { return total_problems == 0; }
};

/// Runs run_batch_equivalence over `count` consecutive seeds starting
/// at `first_seed`, with `base` supplying everything but the seed.
[[nodiscard]] BatchEquivalenceSoakResult run_batch_equivalence_soak(
    std::uint64_t first_seed, std::uint32_t count,
    BatchEquivalenceConfig base = {});

}  // namespace wirecap::testing
