#include "bpf/predecode.hpp"

#include <algorithm>
#include <stdexcept>

#include "bpf/vm.hpp"

namespace wirecap::bpf {

namespace {

[[nodiscard]] Op decode_ld(const Insn& insn) {
  const auto size = insn_size(insn.code);
  switch (insn_mode(insn.code)) {
    case kModeImm: return Op::kLdImm;
    case kModeLen: return Op::kLdLen;
    case kModeMem: return Op::kLdMem;
    case kModeAbs:
      return size == kSizeW ? Op::kLdAbsW
             : size == kSizeH ? Op::kLdAbsH
                              : Op::kLdAbsB;
    default:  // kModeInd (verified)
      return size == kSizeW ? Op::kLdIndW
             : size == kSizeH ? Op::kLdIndH
                              : Op::kLdIndB;
  }
}

[[nodiscard]] Op decode_alu(const Insn& insn) {
  const bool x = insn_src(insn.code) == kSrcX;
  switch (insn_op(insn.code)) {
    case kAluAdd: return x ? Op::kAluAddX : Op::kAluAddK;
    case kAluSub: return x ? Op::kAluSubX : Op::kAluSubK;
    case kAluMul: return x ? Op::kAluMulX : Op::kAluMulK;
    case kAluDiv: return x ? Op::kAluDivX : Op::kAluDivK;
    case kAluMod: return x ? Op::kAluModX : Op::kAluModK;
    case kAluAnd: return x ? Op::kAluAndX : Op::kAluAndK;
    case kAluOr: return x ? Op::kAluOrX : Op::kAluOrK;
    case kAluXor: return x ? Op::kAluXorX : Op::kAluXorK;
    case kAluLsh: return x ? Op::kAluLshX : Op::kAluLshK;
    case kAluRsh: return x ? Op::kAluRshX : Op::kAluRshK;
    default: return Op::kAluNegate;  // kAluNeg (verified)
  }
}

[[nodiscard]] Op decode_jmp(const Insn& insn) {
  const bool x = insn_src(insn.code) == kSrcX;
  switch (insn_op(insn.code)) {
    case kJmpJeq: return x ? Op::kJeqX : Op::kJeqK;
    case kJmpJgt: return x ? Op::kJgtX : Op::kJgtK;
    case kJmpJge: return x ? Op::kJgeX : Op::kJgeK;
    default: return x ? Op::kJsetX : Op::kJsetK;  // kJmpJset (verified)
  }
}

}  // namespace

Predecoded::Predecoded(const Program& program) {
  // The one and only validation pass: the executor below assumes every
  // invariant the verifier establishes (jumps in range, memory slots in
  // range, constant divisors non-zero, terminating RET).
  const VerifyResult vr = verify(program);
  if (!vr.ok) {
    throw std::invalid_argument("bpf::Predecoded: " + vr.error);
  }

  insns_.reserve(program.size());
  for (std::size_t pc = 0; pc < program.size(); ++pc) {
    const Insn& insn = program[pc];
    PInsn out;
    out.k = insn.k;
    switch (insn_class(insn.code)) {
      case kClassLd:
        out.op = decode_ld(insn);
        break;
      case kClassLdx:
        switch (insn_mode(insn.code)) {
          case kModeImm: out.op = Op::kLdxImm; break;
          case kModeLen: out.op = Op::kLdxLen; break;
          case kModeMem: out.op = Op::kLdxMem; break;
          default: out.op = Op::kLdxMsh; break;  // kModeMsh (verified)
        }
        break;
      case kClassSt: out.op = Op::kSt; break;
      case kClassStx: out.op = Op::kStx; break;
      case kClassAlu:
        out.op = decode_alu(insn);
        // Shift-by-constant >= 32 always yields 0 in the reference
        // semantics; lower it to A &= 0 so the executor's constant
        // shifts never need a range check.
        if ((out.op == Op::kAluLshK || out.op == Op::kAluRshK) &&
            insn.k >= 32) {
          out.op = Op::kAluAndK;
          out.k = 0;
        }
        break;
      case kClassJmp:
        if (insn_op(insn.code) == kJmpJa) {
          out.op = Op::kJa;
          out.jt = static_cast<std::uint16_t>(pc + 1 + insn.k);
        } else {
          out.op = decode_jmp(insn);
          out.jt = static_cast<std::uint16_t>(pc + 1 + insn.jt);
          out.jf = static_cast<std::uint16_t>(pc + 1 + insn.jf);
        }
        break;
      case kClassRet:
        out.op =
            insn_size(insn.code) == kRetA ? Op::kRetAcc : Op::kRetConst;
        break;
      default:  // kClassMisc (verified)
        out.op = insn.code == (kClassMisc | kMiscTax) ? Op::kTax : Op::kTxa;
        break;
    }
    insns_.push_back(out);
  }

  for (const PInsn& insn : insns_) {
    if (insn.op == Op::kLdMem || insn.op == Op::kLdxMem) {
      zero_mem_ = true;
      break;
    }
  }

  // Peephole fusion: fold (load/ALU, compare-and-branch) pairs into one
  // dispatch when nothing jumps to the second instruction.  The second
  // instruction is left in place, unreachable — fall-through skips it
  // via the fused branch and no jump targets it — so every absolute
  // index stays valid.
  std::vector<bool> is_target(program.size(), false);
  for (std::size_t pc = 0; pc < program.size(); ++pc) {
    const Insn& insn = program[pc];
    if (insn_class(insn.code) != kClassJmp) continue;
    if (insn_op(insn.code) == kJmpJa) {
      is_target[pc + 1 + insn.k] = true;
    } else {
      is_target[pc + 1 + insn.jt] = true;
      is_target[pc + 1 + insn.jf] = true;
    }
  }
  for (std::size_t pc = 0; pc + 1 < insns_.size(); ++pc) {
    if (is_target[pc + 1]) continue;
    const Op first = insns_[pc].op;
    const Op second = insns_[pc + 1].op;
    // Triples first (ld;and;jeq / ld;st;tax / ldx;ldb;jeq): each folds a
    // whole codegen idiom into one dispatch when neither successor is a
    // jump target.  Both superseded slots stay in place, dead.
    if (pc + 2 < insns_.size() && !is_target[pc + 2]) {
      const Op third = insns_[pc + 2].op;
      if ((first == Op::kLdAbsW || first == Op::kLdIndW) &&
          second == Op::kAluAndK && third == Op::kJeqK) {
        insns_[pc].op = first == Op::kLdAbsW ? Op::kLdAbsWAndKJeqK
                                             : Op::kLdIndWAndKJeqK;
        insns_[pc].mask = insns_[pc + 1].k;
        insns_[pc].cmp = insns_[pc + 2].k;
        insns_[pc].jt = insns_[pc + 2].jt;
        insns_[pc].jf = insns_[pc + 2].jf;
        pc += 2;
        continue;
      }
      if (first == Op::kLdImm && second == Op::kSt && third == Op::kTax &&
          pc + 3 < insns_.size()) {
        insns_[pc].op = Op::kLdImmStTax;
        insns_[pc].mask = insns_[pc + 1].k;  // scratch slot
        insns_[pc].jt = static_cast<std::uint16_t>(pc + 3);
        pc += 2;
        continue;
      }
      if (first == Op::kLdxMem && second == Op::kLdIndB &&
          third == Op::kJeqK) {
        insns_[pc].op = Op::kLdxMemLdIndBJeqK;
        insns_[pc].mask = insns_[pc].k;      // scratch slot
        insns_[pc].k = insns_[pc + 1].k;     // load offset
        insns_[pc].cmp = insns_[pc + 2].k;
        insns_[pc].jt = insns_[pc + 2].jt;
        insns_[pc].jf = insns_[pc + 2].jf;
        pc += 2;
        continue;
      }
    }
    if (first == Op::kSt && second == Op::kTax &&
        pc + 2 < insns_.size()) {
      insns_[pc].op = Op::kStTax;
      insns_[pc].jt = static_cast<std::uint16_t>(pc + 2);
      ++pc;
      continue;
    }
    Op fused;
    if (second == Op::kJeqK) {
      switch (first) {
        case Op::kLdAbsW: fused = Op::kLdAbsWJeqK; break;
        case Op::kLdAbsH: fused = Op::kLdAbsHJeqK; break;
        case Op::kLdAbsB: fused = Op::kLdAbsBJeqK; break;
        case Op::kLdIndW: fused = Op::kLdIndWJeqK; break;
        case Op::kLdIndH: fused = Op::kLdIndHJeqK; break;
        case Op::kLdIndB: fused = Op::kLdIndBJeqK; break;
        case Op::kAluAndK: fused = Op::kAluAndKJeqK; break;
        default: continue;
      }
    } else if (second == Op::kJsetK && first == Op::kLdAbsH) {
      fused = Op::kLdAbsHJsetK;
    } else if (second == Op::kJsetK && first == Op::kLdIndH) {
      fused = Op::kLdIndHJsetK;
    } else {
      continue;
    }
    insns_[pc].op = fused;
    insns_[pc].cmp = insns_[pc + 1].k;
    insns_[pc].jt = insns_[pc + 1].jt;
    insns_[pc].jf = insns_[pc + 1].jf;
    ++pc;  // the superseded branch is dead; never fuse into it
  }

  // The per-packet bounds guard: a packet at least this long satisfies
  // every absolute load, so exec<false> can skip the per-load checks.
  // Superseded (dead) instructions are never *absolute* loads, so
  // scanning the whole array is safe — and overestimating only costs
  // speed, not correctness.  Indirect loads stay checked in both modes.
  for (const PInsn& insn : insns_) {
    std::size_t need = 0;
    switch (insn.op) {
      case Op::kLdAbsW:
      case Op::kLdAbsWJeqK:
      case Op::kLdAbsWAndKJeqK: need = insn.k + std::size_t{4}; break;
      case Op::kLdAbsH:
      case Op::kLdAbsHJeqK:
      case Op::kLdAbsHJsetK: need = insn.k + std::size_t{2}; break;
      case Op::kLdAbsB:
      case Op::kLdAbsBJeqK:
      case Op::kLdxMsh: need = insn.k + std::size_t{1}; break;
      default: break;
    }
    abs_guard_ = std::max(abs_guard_, need);
  }
}

template <bool kChecked>
std::uint32_t Predecoded::exec(std::span<const std::byte> packet,
                               std::uint32_t wire_len) const {
  std::uint32_t a = 0;
  std::uint32_t x = 0;
  // Scratch slots are cleared only when the program can read them;
  // store-only or scratch-free programs (most filters) skip the memset.
  std::uint32_t mem[kMemSlots];
  if (zero_mem_) {
    for (std::uint32_t& slot : mem) slot = 0;
  }
  const std::byte* const p = packet.data();
  const std::size_t plen = packet.size();
  const PInsn* const code = insns_.data();

  // Switch-threaded dispatch: the verifier guarantees in-range jumps and
  // a terminating RET, so the loop has no pc bounds check and every
  // `default` is unreachable.
  for (std::uint16_t pc = 0;; ) {
    const PInsn& insn = code[pc];
    ++pc;
    switch (insn.op) {
      case Op::kLdAbsW: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off + 4 > plen) return 0;
        }
        a = (static_cast<std::uint32_t>(p[off]) << 24) |
            (static_cast<std::uint32_t>(p[off + 1]) << 16) |
            (static_cast<std::uint32_t>(p[off + 2]) << 8) |
            static_cast<std::uint32_t>(p[off + 3]);
        break;
      }
      case Op::kLdAbsH: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off + 2 > plen) return 0;
        }
        a = (static_cast<std::uint32_t>(p[off]) << 8) |
            static_cast<std::uint32_t>(p[off + 1]);
        break;
      }
      case Op::kLdAbsB: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off >= plen) return 0;
        }
        a = static_cast<std::uint32_t>(p[off]);
        break;
      }
      case Op::kLdIndW: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off + 4 > plen) return 0;
        a = (static_cast<std::uint32_t>(p[off]) << 24) |
            (static_cast<std::uint32_t>(p[off + 1]) << 16) |
            (static_cast<std::uint32_t>(p[off + 2]) << 8) |
            static_cast<std::uint32_t>(p[off + 3]);
        break;
      }
      case Op::kLdIndH: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off + 2 > plen) return 0;
        a = (static_cast<std::uint32_t>(p[off]) << 8) |
            static_cast<std::uint32_t>(p[off + 1]);
        break;
      }
      case Op::kLdIndB: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off >= plen) return 0;
        a = static_cast<std::uint32_t>(p[off]);
        break;
      }
      case Op::kLdImm: a = insn.k; break;
      case Op::kLdLen: a = wire_len; break;
      case Op::kLdMem: a = mem[insn.k]; break;
      case Op::kLdxImm: x = insn.k; break;
      case Op::kLdxLen: x = wire_len; break;
      case Op::kLdxMem: x = mem[insn.k]; break;
      case Op::kLdxMsh: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off >= plen) return 0;
        }
        x = (static_cast<std::uint32_t>(p[off]) & 0x0F) * 4;
        break;
      }
      case Op::kSt: mem[insn.k] = a; break;
      case Op::kStx: mem[insn.k] = x; break;
      case Op::kAluAddK: a += insn.k; break;
      case Op::kAluAddX: a += x; break;
      case Op::kAluSubK: a -= insn.k; break;
      case Op::kAluSubX: a -= x; break;
      case Op::kAluMulK: a *= insn.k; break;
      case Op::kAluMulX: a *= x; break;
      case Op::kAluDivK: a /= insn.k; break;  // k != 0: verified
      case Op::kAluDivX:
        if (x == 0) return 0;
        a /= x;
        break;
      case Op::kAluModK: a %= insn.k; break;  // k != 0: verified
      case Op::kAluModX:
        if (x == 0) return 0;
        a %= x;
        break;
      case Op::kAluAndK: a &= insn.k; break;
      case Op::kAluAndX: a &= x; break;
      case Op::kAluOrK: a |= insn.k; break;
      case Op::kAluOrX: a |= x; break;
      case Op::kAluXorK: a ^= insn.k; break;
      case Op::kAluXorX: a ^= x; break;
      case Op::kAluLshK: a <<= insn.k; break;  // k < 32: lowered at decode
      case Op::kAluLshX: a = x < 32 ? a << x : 0; break;
      case Op::kAluRshK: a >>= insn.k; break;  // k < 32: lowered at decode
      case Op::kAluRshX: a = x < 32 ? a >> x : 0; break;
      case Op::kAluNegate: a = 0u - a; break;
      case Op::kJa: pc = insn.jt; break;
      case Op::kJeqK: pc = a == insn.k ? insn.jt : insn.jf; break;
      case Op::kJeqX: pc = a == x ? insn.jt : insn.jf; break;
      case Op::kJgtK: pc = a > insn.k ? insn.jt : insn.jf; break;
      case Op::kJgtX: pc = a > x ? insn.jt : insn.jf; break;
      case Op::kJgeK: pc = a >= insn.k ? insn.jt : insn.jf; break;
      case Op::kJgeX: pc = a >= x ? insn.jt : insn.jf; break;
      case Op::kJsetK: pc = (a & insn.k) != 0 ? insn.jt : insn.jf; break;
      case Op::kJsetX: pc = (a & x) != 0 ? insn.jt : insn.jf; break;
      case Op::kRetConst: return insn.k;
      case Op::kRetAcc: return a;
      case Op::kTax: x = a; break;
      case Op::kTxa: a = x; break;
      case Op::kLdAbsWJeqK: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off + 4 > plen) return 0;
        }
        a = (static_cast<std::uint32_t>(p[off]) << 24) |
            (static_cast<std::uint32_t>(p[off + 1]) << 16) |
            (static_cast<std::uint32_t>(p[off + 2]) << 8) |
            static_cast<std::uint32_t>(p[off + 3]);
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdAbsHJeqK: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off + 2 > plen) return 0;
        }
        a = (static_cast<std::uint32_t>(p[off]) << 8) |
            static_cast<std::uint32_t>(p[off + 1]);
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdAbsBJeqK: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off >= plen) return 0;
        }
        a = static_cast<std::uint32_t>(p[off]);
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdAbsHJsetK: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off + 2 > plen) return 0;
        }
        a = (static_cast<std::uint32_t>(p[off]) << 8) |
            static_cast<std::uint32_t>(p[off + 1]);
        pc = (a & insn.cmp) != 0 ? insn.jt : insn.jf;
        break;
      }
      case Op::kAluAndKJeqK:
        a &= insn.k;
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      case Op::kLdAbsWAndKJeqK: {
        const std::size_t off = insn.k;
        if constexpr (kChecked) {
          if (off + 4 > plen) return 0;
        }
        a = ((static_cast<std::uint32_t>(p[off]) << 24) |
             (static_cast<std::uint32_t>(p[off + 1]) << 16) |
             (static_cast<std::uint32_t>(p[off + 2]) << 8) |
             static_cast<std::uint32_t>(p[off + 3])) &
            insn.mask;
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdIndWJeqK: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off + 4 > plen) return 0;
        a = (static_cast<std::uint32_t>(p[off]) << 24) |
            (static_cast<std::uint32_t>(p[off + 1]) << 16) |
            (static_cast<std::uint32_t>(p[off + 2]) << 8) |
            static_cast<std::uint32_t>(p[off + 3]);
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdIndHJeqK: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off + 2 > plen) return 0;
        a = (static_cast<std::uint32_t>(p[off]) << 8) |
            static_cast<std::uint32_t>(p[off + 1]);
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdIndBJeqK: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off >= plen) return 0;
        a = static_cast<std::uint32_t>(p[off]);
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdIndHJsetK: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off + 2 > plen) return 0;
        a = (static_cast<std::uint32_t>(p[off]) << 8) |
            static_cast<std::uint32_t>(p[off + 1]);
        pc = (a & insn.cmp) != 0 ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdIndWAndKJeqK: {
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off + 4 > plen) return 0;
        a = ((static_cast<std::uint32_t>(p[off]) << 24) |
             (static_cast<std::uint32_t>(p[off + 1]) << 16) |
             (static_cast<std::uint32_t>(p[off + 2]) << 8) |
             static_cast<std::uint32_t>(p[off + 3])) &
            insn.mask;
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
      case Op::kLdImmStTax:
        a = insn.k;
        mem[insn.mask] = a;
        x = a;
        pc = insn.jt;
        break;
      case Op::kStTax:
        mem[insn.k] = a;
        x = a;
        pc = insn.jt;
        break;
      case Op::kLdxMemLdIndBJeqK: {
        x = mem[insn.mask];
        const std::size_t off = static_cast<std::size_t>(x) + insn.k;
        if (off >= plen) return 0;
        a = static_cast<std::uint32_t>(p[off]);
        pc = a == insn.cmp ? insn.jt : insn.jf;
        break;
      }
    }
  }
}

template std::uint32_t Predecoded::exec<true>(std::span<const std::byte>,
                                              std::uint32_t) const;
template std::uint32_t Predecoded::exec<false>(std::span<const std::byte>,
                                               std::uint32_t) const;

std::uint32_t Predecoded::run(std::span<const std::byte> packet,
                              std::uint32_t wire_len) const {
  return dispatch(packet, wire_len);
}

std::size_t Predecoded::run_batch(const engines::PacketBatch& batch,
                                  std::vector<std::uint8_t>& accepts) const {
  const std::size_t n = batch.views.size();
  accepts.resize(n);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const engines::CaptureView& view = batch.views[i];
    accepts[i] = dispatch(view.bytes, view.wire_len) != 0 ? 1 : 0;
    matched += accepts[i];
  }
  return matched;
}

}  // namespace wirecap::bpf
