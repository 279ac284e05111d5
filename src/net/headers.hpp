// Ethernet / IPv4 / UDP / TCP header parsing and construction over raw
// byte spans.  The trace generator materializes real frames with these
// builders; BPF programs and forwarding examples parse them back.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "net/flow.hpp"

namespace wirecap::net {

struct MacAddr {
  std::array<std::uint8_t, 6> octets{};

  constexpr auto operator<=>(const MacAddr&) const = default;

  [[nodiscard]] static constexpr MacAddr of(std::uint8_t a, std::uint8_t b,
                                            std::uint8_t c, std::uint8_t d,
                                            std::uint8_t e, std::uint8_t f) {
    return MacAddr{{a, b, c, d, e, f}};
  }
};

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeVlan = 0x8100;
inline constexpr std::uint16_t kEtherTypeIpv6 = 0x86DD;
inline constexpr std::size_t kEthernetHeaderLen = 14;
inline constexpr std::size_t kVlanTagLen = 4;
inline constexpr std::size_t kIpv4MinHeaderLen = 20;
inline constexpr std::size_t kIpv6HeaderLen = 40;
inline constexpr std::size_t kUdpHeaderLen = 8;
inline constexpr std::size_t kTcpMinHeaderLen = 20;
inline constexpr std::size_t kIcmpHeaderLen = 8;

struct EthernetHeader {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ether_type = kEtherTypeIpv4;
};

struct Ipv4Header {
  std::uint8_t ihl = 5;  // header length in 32-bit words
  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  std::uint16_t flags_fragment = 0x4000;  // DF set
  std::uint8_t ttl = 64;
  IpProto protocol = IpProto::kUdp;
  std::uint16_t checksum = 0;
  Ipv4Addr src;
  Ipv4Addr dst;

  [[nodiscard]] constexpr std::size_t header_len() const {
    return static_cast<std::size_t>(ihl) * 4;
  }
};

/// 802.1Q VLAN tag (the 4 bytes following the source MAC).
struct VlanTag {
  std::uint8_t pcp = 0;        // priority code point
  bool dei = false;            // drop eligible indicator
  std::uint16_t vid = 0;       // VLAN identifier (12 bits)
  std::uint16_t inner_ether_type = kEtherTypeIpv4;
};

/// IPv6 address (16 bytes, network order).
struct Ipv6Addr {
  std::array<std::uint8_t, 16> octets{};

  constexpr auto operator<=>(const Ipv6Addr&) const = default;

  [[nodiscard]] std::string to_string() const;

  /// Parses "2001:db8::1"-style text (supports one "::" elision).
  /// Returns nullopt on malformed input.
  [[nodiscard]] static std::optional<Ipv6Addr> parse(std::string_view text);
};

struct Ipv6Header {
  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;  // 20 bits
  std::uint16_t payload_length = 0;
  IpProto next_header = IpProto::kUdp;
  std::uint8_t hop_limit = 64;
  Ipv6Addr src;
  Ipv6Addr dst;
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;
  std::uint16_t checksum = 0;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  // header length in 32-bit words
  std::uint8_t flags = 0x10;     // ACK
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;
  std::uint16_t urgent = 0;

  [[nodiscard]] constexpr std::size_t header_len() const {
    return static_cast<std::size_t>(data_offset) * 4;
  }
};

// --- parsing (returns nullopt on truncated/malformed input) ---

[[nodiscard]] std::optional<EthernetHeader> parse_ethernet(
    std::span<const std::byte> frame);
/// Parses the 802.1Q tag at frame offset 12 (ether_type must be 0x8100).
[[nodiscard]] std::optional<VlanTag> parse_vlan(
    std::span<const std::byte> frame);
[[nodiscard]] std::optional<Ipv4Header> parse_ipv4(
    std::span<const std::byte> l3);
[[nodiscard]] std::optional<Ipv6Header> parse_ipv6(
    std::span<const std::byte> l3);
[[nodiscard]] std::optional<UdpHeader> parse_udp(std::span<const std::byte> l4);
[[nodiscard]] std::optional<TcpHeader> parse_tcp(std::span<const std::byte> l4);

/// Parses a full Ethernet[/802.1Q]/IPv4/{TCP,UDP} frame down to the
/// 5-tuple, transparently skipping a single VLAN tag.  Returns nullopt
/// for non-IPv4 or non-TCP/UDP frames.
[[nodiscard]] std::optional<FlowKey> parse_flow(
    std::span<const std::byte> frame);

/// Offset of the L3 header in `frame`: 14, or 18 when 802.1Q-tagged.
/// Returns nullopt if the frame is too short.
[[nodiscard]] std::optional<std::size_t> l3_offset(
    std::span<const std::byte> frame);

// --- construction ---

/// Writes an Ethernet header at frame[0..14).
void write_ethernet(std::span<std::byte> frame, const EthernetHeader& eth);

/// Writes an 802.1Q tag at frame[12..18) and shifts responsibility for
/// the inner ethertype to the tag (the Ethernet header must already be
/// written with ether_type kEtherTypeVlan).
void write_vlan(std::span<std::byte> frame, const VlanTag& tag);

/// Writes an IPv4 header (with correct checksum) at l3[0..20).
/// `header.total_length` must already be set.
void write_ipv4(std::span<std::byte> l3, const Ipv4Header& header);

/// Writes an IPv6 header at l3[0..40).
void write_ipv6(std::span<std::byte> l3, const Ipv6Header& header);

/// Writes a UDP header; checksum left zero (legal for IPv4 UDP).
void write_udp(std::span<std::byte> l4, const UdpHeader& header);

/// Writes a TCP header; checksum is computed over the pseudo-header and
/// `payload`.
void write_tcp(std::span<std::byte> l4, const TcpHeader& header,
               Ipv4Addr src_ip, Ipv4Addr dst_ip,
               std::span<const std::byte> payload);

/// Builds an Ethernet/IPv4/{UDP,TCP,ICMP} frame of `frame_len` bytes
/// (>= min_frame_len; zero payload) into `out`, returning the bytes
/// written.  frame_len excludes the FCS.  An `out` shorter than
/// frame_len receives the frame's prefix: only min(out.size(), frame_len)
/// bytes are written, while the length fields and checksums are those of
/// the full frame.  `out` must hold at least the headers.
std::size_t build_frame(std::span<std::byte> out, const FlowKey& flow,
                        std::size_t frame_len, MacAddr src_mac, MacAddr dst_mac,
                        std::uint16_t ip_id = 0);

/// Builds a complete Ethernet/802.1Q/IPv4/{UDP,TCP} frame: the IPv4
/// variant of build_frame with a VLAN tag inserted.
std::size_t build_vlan_frame(std::span<std::byte> out, const FlowKey& flow,
                             std::uint16_t vid, std::size_t frame_len,
                             MacAddr src_mac, MacAddr dst_mac);

/// Full-control IPv4 frame description for build_ipv4_frame: any 802.1Q
/// stack depth (outermost tag first), IP options (ihl > 5, zero-filled),
/// and fragments (a nonzero fragment offset suppresses the L4 header —
/// the payload is patterned filler, as in a real non-first fragment).
struct Ipv4FrameSpec {
  FlowKey flow;
  std::size_t wire_len = 64;
  std::uint8_t ihl = 5;  // 5..15; >5 appends zeroed options
  std::uint16_t flags_fragment = 0x4000;  // DF set, offset 0
  std::vector<std::uint16_t> vlan_vids;   // outer → inner 802.1Q tags
  MacAddr src_mac{};
  MacAddr dst_mac{};
  std::uint16_t ip_id = 0;
};

/// Builds the frame described by `spec` into `out`, returning the bytes
/// written (== spec.wire_len).  Throws std::invalid_argument when the
/// spec is inconsistent (ihl out of range, wire_len below the header
/// minimum, buffer too small).
std::size_t build_ipv4_frame(std::span<std::byte> out,
                             const Ipv4FrameSpec& spec);

/// Builds a complete Ethernet/IPv6/{UDP,TCP} frame of `frame_len` bytes.
std::size_t build_ipv6_frame(std::span<std::byte> out, const Ipv6Addr& src,
                             const Ipv6Addr& dst, IpProto proto,
                             std::uint16_t src_port, std::uint16_t dst_port,
                             std::size_t frame_len, MacAddr src_mac = {},
                             MacAddr dst_mac = {});

/// Minimum buildable frame length for a flow's protocol (headers only).
[[nodiscard]] std::size_t min_frame_len(IpProto proto);

}  // namespace wirecap::net
