// Differential-oracle tests for the BPF filter stack (see
// src/testing/difftest.hpp):
//
//   * failing-first regressions for the VLAN divergences the oracle
//     exposed (the old evaluator bailed on ether_type 0x8100 and the
//     old compiler hard-coded L3 at offset 14, so "vlan and tcp port
//     80" matched in neither path and bare "ip" missed tagged frames);
//   * a table-driven golden suite: ~40 filter expressions against a
//     checked-in packet corpus with expected match sets, asserted for
//     BOTH the evaluator and the compiled VM path;
//   * parse -> to_string -> reparse -> recompile round-trip equality;
//   * verifier strictness goldens (exact RET/MISC codes, W-only
//     register loads, garbage high code bits);
//   * fixed-seed differential soaks (the CI gate) and the five-engine
//     crosscheck through pcap_compat;
//   * the crash corpus under tests/corpus/bpf — every file must either
//     parse cleanly or raise ParseError, nothing else.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bpf/codegen.hpp"
#include "bpf/disasm.hpp"
#include "bpf/eval.hpp"
#include "bpf/parser.hpp"
#include "bpf/vm.hpp"
#include "common/rng.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/difftest.hpp"

namespace wirecap::testing {
namespace {

using net::FlowKey;
using net::IpProto;
using net::Ipv4Addr;

struct GoldenFrame {
  std::vector<std::byte> bytes;  // captured view (may be truncated)
  std::uint32_t wire_len = 0;
  std::string label;
};

GoldenFrame build(const net::Ipv4FrameSpec& spec, const std::string& label,
                  std::size_t caplen = SIZE_MAX) {
  std::array<std::byte, 512> buf{};
  const std::size_t wire = net::build_ipv4_frame(buf, spec);
  const std::size_t keep = std::min(caplen, wire);
  GoldenFrame out;
  out.bytes.assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(keep));
  out.wire_len = static_cast<std::uint32_t>(wire);
  out.label = label;
  return out;
}

/// The checked-in packet corpus the golden suite matches against.
std::vector<GoldenFrame> golden_corpus() {
  std::vector<GoldenFrame> frames;
  const Ipv4Addr border{131, 225, 2, 4};
  const Ipv4Addr dns{8, 8, 8, 8};
  const Ipv4Addr ten{10, 0, 0, 1};
  const Ipv4Addr priv{192, 168, 0, 1};

  net::Ipv4FrameSpec spec;  // f0: plain TCP 131.225.2.4:1234 -> 8.8.8.8:80
  spec.flow = FlowKey{border, dns, 1234, 80, IpProto::kTcp};
  spec.wire_len = 100;
  frames.push_back(build(spec, "f0 plain tcp :80"));

  spec = {};  // f1: plain UDP 10.0.0.1:53 -> 131.225.2.4:5353
  spec.flow = FlowKey{ten, border, 53, 5353, IpProto::kUdp};
  spec.wire_len = 64;
  frames.push_back(build(spec, "f1 plain udp 53"));

  spec = {};  // f2: plain ICMP 192.168.0.1 -> 10.0.0.1
  spec.flow = FlowKey{priv, ten, 0, 0, IpProto::kIcmp};
  spec.wire_len = 64;
  frames.push_back(build(spec, "f2 icmp"));

  spec = {};  // f3: VLAN 7, TCP 131.225.2.4:1234 -> 8.8.8.8:80
  spec.flow = FlowKey{border, dns, 1234, 80, IpProto::kTcp};
  spec.vlan_vids = {7};
  spec.wire_len = 100;
  frames.push_back(build(spec, "f3 vlan7 tcp :80"));

  spec = {};  // f4: VLAN 42, UDP 10.0.0.1:9999 -> 192.168.0.1:53
  spec.flow = FlowKey{ten, priv, 9999, 53, IpProto::kUdp};
  spec.vlan_vids = {42};
  spec.wire_len = 68;
  frames.push_back(build(spec, "f4 vlan42 udp :53"));

  spec = {};  // f5: QinQ 7/42, TCP (IP primitives must NOT descend)
  spec.flow = FlowKey{border, dns, 1234, 80, IpProto::kTcp};
  spec.vlan_vids = {7, 42};
  spec.wire_len = 104;
  frames.push_back(build(spec, "f5 qinq tcp"));

  {  // f6: IPv6 UDP :53
    std::array<std::byte, 512> buf{};
    net::Ipv6Addr src{}, dst{};
    src.octets[15] = 1;
    dst.octets[15] = 2;
    const std::size_t wire =
        net::build_ipv6_frame(buf, src, dst, IpProto::kUdp, 53, 53, 90);
    GoldenFrame f;
    f.bytes.assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(wire));
    f.wire_len = static_cast<std::uint32_t>(wire);
    f.label = "f6 ipv6 udp";
    frames.push_back(std::move(f));
  }

  {  // f7: 64 zero bytes (ether_type 0 -> not IP, not VLAN)
    GoldenFrame f;
    f.bytes.assign(64, std::byte{0});
    f.wire_len = 64;
    f.label = "f7 zero garbage";
    frames.push_back(std::move(f));
  }

  spec = {};  // f8: IP options (ihl=8), TCP 131.225.2.4:1234 -> 8.8.8.8:443
  spec.flow = FlowKey{border, dns, 1234, 443, IpProto::kTcp};
  spec.ihl = 8;
  spec.wire_len = 120;
  frames.push_back(build(spec, "f8 ihl8 tcp :443"));

  spec = {};  // f9: non-first fragment, UDP 10.0.0.1 -> 8.8.8.8 (no L4)
  spec.flow = FlowKey{ten, dns, 53, 53, IpProto::kUdp};
  spec.flags_fragment = 0x00B9;  // offset 185, MF clear
  spec.wire_len = 90;
  frames.push_back(build(spec, "f9 udp fragment"));

  spec = {};  // f10: VLAN 7 TCP frame truncated mid-IP-header (caplen 20)
  spec.flow = FlowKey{border, dns, 1234, 80, IpProto::kTcp};
  spec.vlan_vids = {7};
  spec.wire_len = 100;
  frames.push_back(build(spec, "f10 vlan7 truncated", 20));

  spec = {};  // f11: small plain TCP 10.0.0.1:5000 -> 10.0.0.2:5001
  spec.flow = FlowKey{ten, Ipv4Addr{10, 0, 0, 2}, 5000, 5001, IpProto::kTcp};
  spec.wire_len = 60;
  frames.push_back(build(spec, "f11 small tcp"));

  return frames;
}

/// Asserts that both the evaluator and the compiled VM path match
/// exactly the frames in `expected` (by corpus index).
void expect_matches(const std::vector<GoldenFrame>& corpus,
                    const std::string& filter,
                    const std::set<std::size_t>& expected) {
  const bpf::ExprPtr expr =
      filter.empty() ? nullptr : bpf::parse_filter(filter);
  const bpf::Program prog = bpf::compile(expr.get());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& f = corpus[i];
    const bool want = expected.count(i) != 0;
    EXPECT_EQ(bpf::evaluate(expr.get(), f.bytes, f.wire_len), want)
        << "eval: filter '" << filter << "' on " << f.label;
    EXPECT_EQ(bpf::matches(prog, f.bytes, f.wire_len), want)
        << "vm: filter '" << filter << "' on " << f.label;
  }
}

// --- VLAN regressions (failing-first against the pre-fix code) ---
//
// Before this change the evaluator refused any frame whose outer
// ether_type was not 0x0800 and the compiler loaded IP fields at fixed
// offsets from L3 == 14, so every one of these assertions failed in at
// least one path.  They pin the agreed semantics: IP primitives descend
// through exactly one 802.1Q tag; "vlan" inspects the outer tag only.

TEST(VlanRegression, VlanAndTcpPort80MatchesTaggedFrame) {
  const auto corpus = golden_corpus();
  // f3 is the VLAN-7 TCP:80 frame; the truncated copy (f10) aborts.
  expect_matches(corpus, "vlan and tcp port 80", {3});
}

TEST(VlanRegression, VlanWithIdAndHostMatchesTaggedFrame) {
  const auto corpus = golden_corpus();
  // f5 (QinQ, outer vid 7) passes "vlan 7" but its host lookup must
  // NOT descend two tags; f10 aborts on the truncated address field.
  expect_matches(corpus, "vlan 7 and host 131.225.2.4", {3});
  expect_matches(corpus, "vlan 7", {3, 5, 10});
}

TEST(VlanRegression, BareIpSeesThroughSingleTagOnly) {
  const auto corpus = golden_corpus();
  expect_matches(corpus, "ip", {0, 1, 2, 3, 4, 8, 9, 10, 11});
}

TEST(VlanRegression, TaggedFramesMatchIpPrimitivesEndToEnd) {
  const auto corpus = golden_corpus();
  expect_matches(corpus, "host 131.225.2.4", {0, 1, 3, 8});
  expect_matches(corpus, "udp port 53", {1, 4});
  expect_matches(corpus, "tcp", {0, 3, 8, 11});
}

// --- table-driven golden suite ---

TEST(DifftestGolden, FortyFiltersAgainstPacketCorpus) {
  const auto corpus = golden_corpus();
  const std::size_t n = corpus.size();
  std::set<std::size_t> all;
  for (std::size_t i = 0; i < n; ++i) all.insert(i);

  const struct {
    const char* filter;
    std::set<std::size_t> expected;
  } kGolden[] = {
      {"ip", {0, 1, 2, 3, 4, 8, 9, 10, 11}},
      {"ip6", {6}},
      {"tcp", {0, 3, 8, 11}},
      {"udp", {1, 4, 9}},
      {"icmp", {2}},
      {"vlan", {3, 4, 5, 10}},
      {"vlan 7", {3, 5, 10}},
      {"vlan 42", {4}},
      {"host 131.225.2.4", {0, 1, 3, 8}},
      {"src host 131.225.2.4", {0, 3, 8}},
      {"dst host 131.225.2.4", {1}},
      {"host 8.8.8.8", {0, 3, 8, 9}},
      {"net 131.225.0.0/16", {0, 1, 3, 8}},
      {"net 10.0.0.0/8", {1, 2, 4, 9, 11}},
      {"src net 10.0.0.0/24", {1, 4, 9, 11}},
      {"port 80", {0, 3}},
      {"tcp port 80", {0, 3}},
      {"udp port 53", {1, 4}},
      {"src port 53", {1}},
      {"dst port 53", {4}},
      {"portrange 50-100", {0, 1, 3, 4}},
      {"portrange 1000-2000", {0, 3, 8}},
      {"portrange 53-53", {1, 4}},
      {"len >= 100", {0, 3, 5, 8, 10}},
      {"len <= 64", {1, 2, 7, 11}},
      {"vlan and tcp", {3}},
      {"vlan and tcp port 80", {3}},
      {"vlan 7 and host 131.225.2.4", {3}},
      {"vlan and udp port 53", {4}},
      {"not ip", {5, 6, 7}},
      {"not vlan", {0, 1, 2, 6, 7, 8, 9, 11}},
      {"ip and not tcp", {1, 2, 4, 9}},
      {"tcp or udp", {0, 1, 3, 4, 8, 9, 11}},
      // An aborted lhs short-circuits the whole OR (f10's proto byte is
      // beyond caplen), matching the VM's load-failure-rejects rule.
      {"icmp or vlan", {2, 3, 4, 5}},
      {"not (tcp or udp or icmp)", {5, 6, 7}},
      {"(tcp or udp) and net 131.225.0.0/16", {0, 1, 3, 8}},
      {"host 131.225.2.4 and port 80", {0, 3}},
      {"udp and len <= 70", {1, 4}},
      {"tcp and len >= 100", {0, 3, 8}},
      {"src host 10.0.0.1 and dst host 8.8.8.8", {9}},
      {"131.225.2 and udp", {1}},
  };

  expect_matches(corpus, "", all);  // empty filter accepts everything
  for (const auto& row : kGolden) {
    expect_matches(corpus, row.filter, row.expected);
  }
}

// --- parse -> to_string -> reparse -> recompile round-trip ---

TEST(DifftestRoundTrip, CanonicalFiltersRecompileIdentically) {
  for (const char* text :
       {"tcp", "vlan and tcp port 80", "131.225.2 and udp",
        "not (udp or icmp) and len >= 128", "src net 10.0.0.0/24",
        "vlan 7 and host 131.225.2.4", "portrange 1000-2000 or ip6",
        "dst port 53 and not vlan"}) {
    const auto expr = bpf::parse_filter(text);
    const auto prog = bpf::compile(expr.get());
    const auto reparsed = bpf::parse_filter(bpf::to_string(*expr));
    EXPECT_EQ(prog, bpf::compile(reparsed.get())) << text;
    EXPECT_TRUE(bpf::verify(prog).ok) << text;
    EXPECT_FALSE(bpf::disassemble(prog).empty()) << text;
  }
}

TEST(DifftestRoundTrip, GeneratedFiltersRecompileIdentically) {
  FilterGenerator gen{0xD1FF};
  for (int i = 0; i < 200; ++i) {
    const auto expr = gen.next_expr();
    const std::string text = bpf::to_string(*expr);
    const auto reparsed = bpf::parse_filter(text);
    EXPECT_EQ(bpf::compile(expr.get()), bpf::compile(reparsed.get())) << text;
  }
}

// --- verifier strictness goldens ---

TEST(VerifierStrictness, ExactRetAndMiscCodesOnly) {
  using namespace bpf;
  const Program ok_ret_k{stmt(kClassRet | kRetK, 1)};
  const Program ok_ret_a{stmt(kClassRet | kRetA, 0)};
  EXPECT_TRUE(verify(ok_ret_k).ok);
  EXPECT_TRUE(verify(ok_ret_a).ok);
  // Stray mode/size bits on RET must be rejected, not masked away.
  EXPECT_FALSE(verify({stmt(kClassRet | kRetK | 0x20, 1)}).ok);
  EXPECT_FALSE(verify({stmt(kClassRet | 0x08, 1)}).ok);
  const Program tax{stmt(kClassMisc | kMiscTax, 0), stmt(kClassRet | kRetK, 1)};
  const Program txa{stmt(kClassMisc | kMiscTxa, 0), stmt(kClassRet | kRetK, 1)};
  EXPECT_TRUE(verify(tax).ok);
  EXPECT_TRUE(verify(txa).ok);
  EXPECT_FALSE(
      verify({stmt(kClassMisc | 0x40, 0), stmt(kClassRet | kRetK, 1)}).ok);
}

TEST(VerifierStrictness, RegisterLoadsAreWordSizedOnly) {
  using namespace bpf;
  const auto with_ret = [](Insn insn) {
    return Program{insn, stmt(kClassRet | kRetK, 1)};
  };
  EXPECT_TRUE(verify(with_ret(stmt(kClassLd | kSizeW | kModeImm, 7))).ok);
  EXPECT_FALSE(verify(with_ret(stmt(kClassLd | kSizeH | kModeImm, 7))).ok);
  EXPECT_FALSE(verify(with_ret(stmt(kClassLd | kSizeB | kModeMem, 0))).ok);
  EXPECT_FALSE(verify(with_ret(stmt(kClassLd | kSizeH | kModeLen, 0))).ok);
  EXPECT_TRUE(verify(with_ret(stmt(kClassLdx | kSizeW | kModeMem, 3))).ok);
  EXPECT_FALSE(verify(with_ret(stmt(kClassLdx | kSizeH | kModeLen, 0))).ok);
  // MSH is byte-sized by definition; the W encoding is invalid.
  EXPECT_TRUE(verify(with_ret(stmt(kClassLdx | kSizeB | kModeMsh, 14))).ok);
  EXPECT_FALSE(verify(with_ret(stmt(kClassLdx | kSizeW | kModeMsh, 14))).ok);
  // Packet loads keep all three widths.
  EXPECT_TRUE(verify(with_ret(stmt(kClassLd | kSizeB | kModeAbs, 12))).ok);
  EXPECT_TRUE(verify(with_ret(stmt(kClassLd | kSizeH | kModeInd, 2))).ok);
}

TEST(VerifierStrictness, GarbageHighCodeBitsRejected) {
  using namespace bpf;
  Insn insn = stmt(kClassRet | kRetK, 1);
  insn.code |= 0x100;
  EXPECT_FALSE(verify({insn}).ok);
}

TEST(VerifierStrictness, VmEdgeCasesReject) {
  using namespace bpf;
  std::array<std::byte, 16> pkt{};
  // LDX MSH beyond caplen rejects (returns 0) instead of faulting.
  const Program msh{stmt(kClassLdx | kSizeB | kModeMsh, 64),
                    stmt(kClassMisc | kMiscTxa, 0),
                    stmt(kClassRet | kRetA, 0)};
  ASSERT_TRUE(verify(msh).ok);
  EXPECT_EQ(run(msh, pkt, 64), 0u);
  // IND load where x + k exceeds caplen rejects, even when the 32-bit
  // sum would wrap back into range.
  const Program ind{stmt(kClassLdx | kSizeW | kModeImm, 0xFFFFFFF0u),
                    stmt(kClassLd | kSizeB | kModeInd, 0x20),
                    stmt(kClassRet | kRetK, 1)};
  ASSERT_TRUE(verify(ind).ok);
  EXPECT_EQ(run(ind, pkt, 64), 0u);
}

// --- random valid programs: verify() acceptance implies run() safety ---

TEST(DifftestPrograms, GeneratedProgramsVerifyAndRunSafely) {
  Xoshiro256 rng{0xBEEF};
  FrameGenerator frames{0xF00D};
  for (int i = 0; i < 500; ++i) {
    const bpf::Program prog = generate_valid_program(rng);
    const auto v = bpf::verify(prog);
    ASSERT_TRUE(v.ok) << v.error << "\n" << bpf::disassemble(prog);
    const GeneratedFrame g = frames.next();
    ASSERT_NO_THROW(static_cast<void>(bpf::run(prog, g.bytes, g.wire_len)))
        << bpf::disassemble(prog);
  }
}

// --- the differential oracle itself ---

TEST(Difftest, FixedSeedRunIsCleanAndBindsTelemetry) {
  telemetry::Telemetry telemetry;
  DifftestConfig config;
  config.seed = 1;
  config.telemetry = &telemetry;
  const DifftestResult result = run_difftest(config);
  for (const auto& d : result.divergences) {
    ADD_FAILURE() << "[" << d.kind << "] filter '" << d.filter << "' frame '"
                  << d.frame << "': " << d.detail;
  }
  EXPECT_TRUE(result.clean());
  EXPECT_GT(result.pairs, 1000u);
  EXPECT_GT(result.program_runs, 0u);
  EXPECT_GT(result.parse_rejects, 0u);
  EXPECT_EQ(telemetry.registry.counter("difftest.pairs").value(), result.pairs);
  EXPECT_EQ(telemetry.registry.counter("difftest.divergences").value(), 0u);
}

TEST(Difftest, MultiSeedSoakIsClean) {
  // CI raises the seed count via WIRECAP_DIFFTEST_SOAK_SEEDS (500 in
  // the release job); the default keeps the tier-1 run fast.
  std::uint32_t seeds = 25;
  if (const char* env = std::getenv("WIRECAP_DIFFTEST_SOAK_SEEDS")) {
    seeds = static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  const DifftestSoakResult soak = run_difftest_soak(1, seeds);
  if (!soak.clean()) {
    // Leave the full divergence report behind as the CI artifact.
    const char* path = std::getenv("WIRECAP_DIFFTEST_REPORT");
    std::ofstream out{path != nullptr ? path : "difftest_report.txt"};
    out << soak.report();
  }
  EXPECT_TRUE(soak.clean()) << soak.report();
  EXPECT_EQ(soak.seeds_clean, soak.seeds_run);
  EXPECT_GT(soak.total_pairs, 0u);
}

// --- tier 2: five-engine crosscheck through pcap_compat ---

TEST(EngineCrosscheck, VlanFilterAgreesAcrossAllEngines) {
  EngineCrosscheckConfig config;
  config.seed = 3;
  config.filter = "vlan and tcp port 80";
  const EngineCrosscheckResult result = run_engine_crosscheck(config);
  for (const auto& p : result.problems) ADD_FAILURE() << p;
  ASSERT_EQ(result.engines.size(), 5u);
  for (const auto& e : result.engines) {
    EXPECT_EQ(e.matched, result.oracle_matched) << e.name;
    EXPECT_EQ(e.drop, 0u) << e.name;
    EXPECT_EQ(e.ifdrop, 0u) << e.name;
  }
}

TEST(EngineCrosscheck, PaperFilterAgreesAcrossAllEngines) {
  telemetry::Telemetry telemetry;
  EngineCrosscheckConfig config;
  config.seed = 5;
  config.filter = "131.225.2 and udp";
  config.telemetry = &telemetry;
  const EngineCrosscheckResult result = run_engine_crosscheck(config);
  for (const auto& p : result.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(telemetry.registry.counter("difftest.engine.mismatches").value(),
            0u);
  EXPECT_GT(telemetry.registry.counter("difftest.engine.frames").value(), 0u);
}

TEST(EngineCrosscheck, GeneratedFilterAgreesAcrossAllEngines) {
  EngineCrosscheckConfig config;
  config.seed = 7;  // filter generated from the seed
  const EngineCrosscheckResult result = run_engine_crosscheck(config);
  for (const auto& p : result.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(result.clean());
}

// --- tier 2b: batched and chunk vs per-packet delivery equivalence ---

TEST(BatchEquivalence, PathsAgreeOnGeneratedTraffic) {
  BatchEquivalenceConfig config;
  config.seed = 11;
  const BatchEquivalenceResult result = run_batch_equivalence(config);
  for (const auto& p : result.problems) ADD_FAILURE() << p;
  ASSERT_EQ(result.engines.size(), 5u);
  for (const auto& e : result.engines) {
    EXPECT_EQ(e.matched, result.oracle_matched) << e.name;
    // The batched path actually batched: far fewer pulls than packets.
    EXPECT_GT(e.batches, 0u) << e.name;
    EXPECT_LT(e.batches, e.packets) << e.name;
    // So did the chunk path.
    EXPECT_GT(e.chunks, 0u) << e.name;
    EXPECT_LT(e.chunks, e.packets) << e.name;
  }
}

TEST(BatchEquivalence, ExplicitFilterWithTinyBatchesAgrees) {
  BatchEquivalenceConfig config;
  config.seed = 13;
  config.filter = "vlan and tcp port 80";
  config.max_batch = 3;
  const BatchEquivalenceResult result = run_batch_equivalence(config);
  for (const auto& p : result.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(result.clean());
}

TEST(BatchEquivalence, AdversarialHundredSeedSoakIsClean) {
  // Random per-pull limits plus held-back LIFO batch releases: the
  // deferred / out-of-order recycling paths (WireCAP deref_n, PF_RING
  // read-ahead window) under 100 seeds of generated filters+traffic.
  std::uint32_t seeds = 100;
  if (const char* env = std::getenv("WIRECAP_BATCH_SOAK_SEEDS")) {
    seeds = static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  BatchEquivalenceConfig base;
  base.frames = 96;
  base.adversarial = true;
  const BatchEquivalenceSoakResult soak =
      run_batch_equivalence_soak(1, seeds, base);
  for (const auto& f : soak.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(soak.clean());
  EXPECT_EQ(soak.seeds_clean, soak.seeds_run);
  EXPECT_GT(soak.total_packets, 0u);
}

// --- crash corpus ---

TEST(BpfCorpus, EveryFileParsesCleanlyOrRaisesParseError) {
  const std::filesystem::path dir{WIRECAP_BPF_CORPUS_DIR};
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    std::ifstream in{entry.path()};
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    try {
      const auto expr = bpf::parse_filter(text);
      // Whatever parses must compile (or hit the documented jump-range
      // rejection) without tripping codegen internal errors.
      if (expr != nullptr) {
        try {
          static_cast<void>(bpf::compile(expr.get()));
        } catch (const std::invalid_argument&) {
        }
      }
    } catch (const bpf::ParseError&) {
      // the expected rejection for malformed corpus entries
    } catch (const std::exception& e) {
      ADD_FAILURE() << entry.path().filename() << " escaped with "
                    << e.what();
    }
  }
  EXPECT_GE(files, 20u);
}

TEST(BpfCorpus, KnownMalformedEntriesRaiseParseError) {
  const std::filesystem::path dir{WIRECAP_BPF_CORPUS_DIR};
  for (const char* name :
       {"number-overflow", "port-overflow", "len-overflow", "dotted-overflow",
        "octet-overflow", "paren-bomb", "not-bomb", "trailing-and",
        "unbalanced-paren", "empty-parens", "portrange-bounds",
        "prefix-too-wide"}) {
    std::ifstream in{dir / name};
    ASSERT_TRUE(in.good()) << name;
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_THROW(static_cast<void>(bpf::parse_filter(ss.str())),
                 bpf::ParseError)
        << name;
  }
}

}  // namespace
}  // namespace wirecap::testing
