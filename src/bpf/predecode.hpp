// Pre-decoded cBPF execution form — the batch path's filter engine.
//
// bpf::run() re-decodes every instruction on every packet: it splits the
// 16-bit opcode into class/size/mode/op/src fields at runtime, re-checks
// the fields it already checked for the previous packet, and keeps
// defensive throw paths for encodings the verifier would never admit.
// Predecoded hoists all of that to construction: the program is verified
// ONCE, each instruction is lowered to a dense Op tag with operands
// resolved (jump targets become absolute instruction indices, constant
// divisors are known non-zero), and execution is a tight switch-threaded
// dispatch with no per-packet setup or re-validation.
//
// run_batch() filters a whole engines::PacketBatch in one pass — the
// batch-granularity analogue of calling bpf::matches() per packet.
//
// Semantics are pinned to the reference interpreter by the differential
// oracle (src/testing/difftest), which runs the pair over the seeded
// filter × frame corpus.  The class layout is the same in every build
// mode, so debug and release translation units can share it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bpf/insn.hpp"
#include "engines/packet_view.hpp"

namespace wirecap::bpf {

/// Dense operation tag: one enumerator per (class, size/mode/op, source)
/// combination the verifier admits, so the executor switch is a single
/// indexed dispatch with no field masking.
enum class Op : std::uint8_t {
  kLdAbsW, kLdAbsH, kLdAbsB,   // A <- P[k]
  kLdIndW, kLdIndH, kLdIndB,   // A <- P[X+k]
  kLdImm, kLdLen, kLdMem,      // A <- k / wire_len / M[k]
  kLdxImm, kLdxLen, kLdxMem,   // X <- k / wire_len / M[k]
  kLdxMsh,                     // X <- 4*(P[k]&0xF)
  kSt, kStx,                   // M[k] <- A / X
  kAluAddK, kAluAddX, kAluSubK, kAluSubX, kAluMulK, kAluMulX,
  kAluDivK, kAluDivX, kAluModK, kAluModX,  // DivK/ModK: k != 0 (verified)
  kAluAndK, kAluAndX, kAluOrK, kAluOrX, kAluXorK, kAluXorX,
  kAluLshK, kAluLshX, kAluRshK, kAluRshX, kAluNegate,
  kJa,                         // pc <- jt (absolute)
  kJeqK, kJeqX, kJgtK, kJgtX, kJgeK, kJgeX, kJsetK, kJsetX,
  kRetConst, kRetAcc,  // named apart from the kRetK/kRetA code constants
  kTax, kTxa,
  // Fused pairs (load/ALU + compare-and-branch in one dispatch).  The
  // decoder emits these for the dominant codegen patterns — ethertype
  // and protocol checks (ldh/ldb + jeq), address compares (ld + jeq),
  // fragment tests (ldh + jset), and masked net matches (and + jeq) —
  // whenever the second instruction is not itself a jump target.  The
  // superseded second instruction stays in place, unreachable, so every
  // absolute jump index remains valid.
  kLdAbsWJeqK, kLdAbsHJeqK, kLdAbsBJeqK,  // A <- P[k]; pc <- A==cmp ? jt:jf
  kLdAbsHJsetK,                           // A <- P[k]; pc <- A&cmp ? jt:jf
  kAluAndKJeqK,                           // A &= k;    pc <- A==cmp ? jt:jf
  // Indirect-load fusions: the VLAN-aware codegen addresses every L3/L4
  // field as P[X+k] (X holds the link-layer length), so these — not the
  // absolute forms — cover the hot instructions of typical filters.
  kLdIndWJeqK, kLdIndHJeqK, kLdIndBJeqK,  // A <- P[X+k]; pc <- A==cmp?jt:jf
  kLdIndHJsetK,                           // A <- P[X+k]; pc <- A&cmp?jt:jf
  // Triple fusions for whole idioms the codegen emits:
  kLdAbsWAndKJeqK,  // A <- P[k]&mask;   pc <- A==cmp ? jt:jf  (subnet)
  kLdIndWAndKJeqK,  // A <- P[X+k]&mask; pc <- A==cmp ? jt:jf  (subnet)
  kLdImmStTax,      // A <- k; M[mask] <- A; X <- A; pc <- jt  (L3 base)
  kStTax,           // M[k] <- A; X <- A  (L3 base via a branch join)
  kLdxMemLdIndBJeqK,  // X <- M[mask]; A <- P[X+k]; branch     (ip proto)
};

/// One pre-decoded instruction.  Jump targets are absolute instruction
/// indices (kMaxInsns = 4096 fits in 16 bits); for kJa the target is in
/// `jt`.  Shift-by-constant >= 32 is lowered at decode time to the
/// zeroing constant the reference semantics demand.  Fused ops keep the
/// first instruction's operand in `k` and the comparison immediate of
/// the folded branch in `cmp`.
struct PInsn {
  Op op{};
  std::uint16_t jt = 0;
  std::uint16_t jf = 0;
  std::uint32_t k = 0;
  std::uint32_t cmp = 0;
  std::uint32_t mask = 0;  // kLdAbsWAndKJeqK only: the folded AND operand
};

class Predecoded {
 public:
  /// Verifies and lowers `program` once.  Throws std::invalid_argument
  /// with the verifier's message when the program is invalid — the
  /// executor itself contains no validation.
  explicit Predecoded(const Program& program);

  /// Executes over one packet; same contract as bpf::run(): returns the
  /// RET value (0 = reject), out-of-bounds packet load rejects.
  [[nodiscard]] std::uint32_t run(std::span<const std::byte> packet,
                                  std::uint32_t wire_len) const;

  [[nodiscard]] bool matches(std::span<const std::byte> packet,
                             std::uint32_t wire_len) const {
    return run(packet, wire_len) != 0;
  }

  /// Filters a whole batch in one pass.  `accepts` is resized to
  /// batch.size(); accepts[i] != 0 iff packet i matches.  Returns the
  /// number of matching packets.
  std::size_t run_batch(const engines::PacketBatch& batch,
                        std::vector<std::uint8_t>& accepts) const;

  [[nodiscard]] std::size_t size() const { return insns_.size(); }
  [[nodiscard]] const std::vector<PInsn>& insns() const { return insns_; }

 private:
  /// The executor, in two instantiations: kChecked=true bounds-checks
  /// every packet load; kChecked=false elides the checks on *absolute*
  /// loads — legal whenever packet.size() >= abs_guard_, which run() /
  /// run_batch() test once per packet instead of once per load.
  /// Indirect (X-relative) loads are always checked: X is data-dependent.
  template <bool kChecked>
  [[nodiscard]] std::uint32_t exec(std::span<const std::byte> packet,
                                   std::uint32_t wire_len) const;

  [[nodiscard]] std::uint32_t dispatch(std::span<const std::byte> packet,
                                       std::uint32_t wire_len) const {
    return packet.size() >= abs_guard_ ? exec<false>(packet, wire_len)
                                       : exec<true>(packet, wire_len);
  }

  std::vector<PInsn> insns_;
  /// Minimum packet length (bytes) under which every absolute load in
  /// the program is in bounds; 0 when the program has no such loads.
  std::size_t abs_guard_ = 0;
  /// Whether exec() must clear the scratch slots: false when the
  /// program never loads from M[], which makes stores unobservable too.
  bool zero_mem_ = false;
};

}  // namespace wirecap::bpf
