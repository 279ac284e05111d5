#include "net/headers.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/bytes.hpp"
#include "net/checksum.hpp"

namespace wirecap::net {

std::optional<EthernetHeader> parse_ethernet(std::span<const std::byte> frame) {
  if (frame.size() < kEthernetHeaderLen) return std::nullopt;
  EthernetHeader eth;
  for (std::size_t i = 0; i < 6; ++i) {
    eth.dst.octets[i] = read_u8(frame, i);
    eth.src.octets[i] = read_u8(frame, 6 + i);
  }
  eth.ether_type = read_be16(frame, 12);
  return eth;
}

std::optional<VlanTag> parse_vlan(std::span<const std::byte> frame) {
  if (frame.size() < kEthernetHeaderLen + kVlanTagLen) return std::nullopt;
  if (read_be16(frame, 12) != kEtherTypeVlan) return std::nullopt;
  const std::uint16_t tci = read_be16(frame, 14);
  VlanTag tag;
  tag.pcp = static_cast<std::uint8_t>(tci >> 13);
  tag.dei = ((tci >> 12) & 1) != 0;
  tag.vid = tci & 0x0FFF;
  tag.inner_ether_type = read_be16(frame, 16);
  return tag;
}

std::string Ipv6Addr::to_string() const {
  // Plain uncompressed form, 8 groups.
  char buf[48];
  char* out = buf;
  for (std::size_t group = 0; group < 8; ++group) {
    const unsigned value = (static_cast<unsigned>(octets[2 * group]) << 8) |
                           octets[2 * group + 1];
    out += std::snprintf(out, 6, group == 0 ? "%x" : ":%x", value);
  }
  return buf;
}

std::optional<Ipv6Addr> Ipv6Addr::parse(std::string_view text) {
  // Split on "::" (at most once), then parse colon-separated groups.
  std::array<std::uint16_t, 8> head{}, tail{};
  std::size_t head_count = 0, tail_count = 0;
  const std::size_t elision = text.find("::");

  const auto parse_groups = [](std::string_view part,
                               std::array<std::uint16_t, 8>& out,
                               std::size_t& count) -> bool {
    if (part.empty()) return true;
    std::size_t start = 0;
    while (start <= part.size()) {
      const std::size_t colon = part.find(':', start);
      const std::string_view group =
          part.substr(start, colon == std::string_view::npos
                                 ? std::string_view::npos
                                 : colon - start);
      if (group.empty() || group.size() > 4 || count >= 8) return false;
      unsigned value = 0;
      for (const char c : group) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
          value |= static_cast<unsigned>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          value |= static_cast<unsigned>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          value |= static_cast<unsigned>(c - 'A' + 10);
        } else {
          return false;
        }
      }
      out[count++] = static_cast<std::uint16_t>(value);
      if (colon == std::string_view::npos) break;
      start = colon + 1;
    }
    return true;
  };

  if (elision == std::string_view::npos) {
    if (!parse_groups(text, head, head_count) || head_count != 8) {
      return std::nullopt;
    }
  } else {
    if (text.find("::", elision + 1) != std::string_view::npos) {
      return std::nullopt;  // only one elision allowed
    }
    if (!parse_groups(text.substr(0, elision), head, head_count)) {
      return std::nullopt;
    }
    if (!parse_groups(text.substr(elision + 2), tail, tail_count)) {
      return std::nullopt;
    }
    if (head_count + tail_count >= 8) return std::nullopt;
  }

  Ipv6Addr addr;
  for (std::size_t i = 0; i < head_count; ++i) {
    addr.octets[2 * i] = static_cast<std::uint8_t>(head[i] >> 8);
    addr.octets[2 * i + 1] = static_cast<std::uint8_t>(head[i] & 0xFF);
  }
  for (std::size_t i = 0; i < tail_count; ++i) {
    const std::size_t group = 8 - tail_count + i;
    addr.octets[2 * group] = static_cast<std::uint8_t>(tail[i] >> 8);
    addr.octets[2 * group + 1] = static_cast<std::uint8_t>(tail[i] & 0xFF);
  }
  return addr;
}

std::optional<Ipv6Header> parse_ipv6(std::span<const std::byte> l3) {
  if (l3.size() < kIpv6HeaderLen) return std::nullopt;
  const std::uint32_t word = read_be32(l3, 0);
  if ((word >> 28) != 6) return std::nullopt;
  Ipv6Header header;
  header.traffic_class = static_cast<std::uint8_t>((word >> 20) & 0xFF);
  header.flow_label = word & 0xFFFFF;
  header.payload_length = read_be16(l3, 4);
  header.next_header = static_cast<IpProto>(read_u8(l3, 6));
  header.hop_limit = read_u8(l3, 7);
  for (std::size_t i = 0; i < 16; ++i) {
    header.src.octets[i] = read_u8(l3, 8 + i);
    header.dst.octets[i] = read_u8(l3, 24 + i);
  }
  return header;
}

std::optional<Ipv4Header> parse_ipv4(std::span<const std::byte> l3) {
  if (l3.size() < kIpv4MinHeaderLen) return std::nullopt;
  const std::uint8_t version_ihl = read_u8(l3, 0);
  if ((version_ihl >> 4) != 4) return std::nullopt;
  Ipv4Header header;
  header.ihl = version_ihl & 0x0F;
  if (header.ihl < 5 || l3.size() < header.header_len()) return std::nullopt;
  header.dscp_ecn = read_u8(l3, 1);
  header.total_length = read_be16(l3, 2);
  header.identification = read_be16(l3, 4);
  header.flags_fragment = read_be16(l3, 6);
  header.ttl = read_u8(l3, 8);
  header.protocol = static_cast<IpProto>(read_u8(l3, 9));
  header.checksum = read_be16(l3, 10);
  header.src = Ipv4Addr{read_be32(l3, 12)};
  header.dst = Ipv4Addr{read_be32(l3, 16)};
  return header;
}

std::optional<UdpHeader> parse_udp(std::span<const std::byte> l4) {
  if (l4.size() < kUdpHeaderLen) return std::nullopt;
  UdpHeader header;
  header.src_port = read_be16(l4, 0);
  header.dst_port = read_be16(l4, 2);
  header.length = read_be16(l4, 4);
  header.checksum = read_be16(l4, 6);
  return header;
}

std::optional<TcpHeader> parse_tcp(std::span<const std::byte> l4) {
  if (l4.size() < kTcpMinHeaderLen) return std::nullopt;
  TcpHeader header;
  header.src_port = read_be16(l4, 0);
  header.dst_port = read_be16(l4, 2);
  header.seq = read_be32(l4, 4);
  header.ack = read_be32(l4, 8);
  header.data_offset = static_cast<std::uint8_t>(read_u8(l4, 12) >> 4);
  header.flags = read_u8(l4, 13);
  header.window = read_be16(l4, 14);
  header.checksum = read_be16(l4, 16);
  header.urgent = read_be16(l4, 18);
  if (header.data_offset < 5) return std::nullopt;
  return header;
}

std::optional<std::size_t> l3_offset(std::span<const std::byte> frame) {
  const auto eth = parse_ethernet(frame);
  if (!eth) return std::nullopt;
  if (eth->ether_type == kEtherTypeVlan) {
    if (frame.size() < kEthernetHeaderLen + kVlanTagLen) return std::nullopt;
    return kEthernetHeaderLen + kVlanTagLen;
  }
  return kEthernetHeaderLen;
}

std::optional<FlowKey> parse_flow(std::span<const std::byte> frame) {
  const auto eth = parse_ethernet(frame);
  if (!eth) return std::nullopt;
  std::uint16_t ether_type = eth->ether_type;
  std::size_t offset = kEthernetHeaderLen;
  if (ether_type == kEtherTypeVlan) {
    const auto tag = parse_vlan(frame);
    if (!tag) return std::nullopt;
    ether_type = tag->inner_ether_type;
    offset += kVlanTagLen;
  }
  if (ether_type != kEtherTypeIpv4) return std::nullopt;
  const auto l3 = frame.subspan(offset);
  const auto ip = parse_ipv4(l3);
  if (!ip) return std::nullopt;
  FlowKey key;
  key.src_ip = ip->src;
  key.dst_ip = ip->dst;
  key.proto = ip->protocol;
  const auto l4 = l3.subspan(ip->header_len());
  switch (ip->protocol) {
    case IpProto::kUdp: {
      const auto udp = parse_udp(l4);
      if (!udp) return std::nullopt;
      key.src_port = udp->src_port;
      key.dst_port = udp->dst_port;
      break;
    }
    case IpProto::kTcp: {
      const auto tcp = parse_tcp(l4);
      if (!tcp) return std::nullopt;
      key.src_port = tcp->src_port;
      key.dst_port = tcp->dst_port;
      break;
    }
    case IpProto::kIcmp:
      key.src_port = 0;
      key.dst_port = 0;
      break;
  }
  return key;
}

void write_ethernet(std::span<std::byte> frame, const EthernetHeader& eth) {
  if (frame.size() < kEthernetHeaderLen) {
    throw std::invalid_argument("write_ethernet: buffer too small");
  }
  for (std::size_t i = 0; i < 6; ++i) {
    write_u8(frame, i, eth.dst.octets[i]);
    write_u8(frame, 6 + i, eth.src.octets[i]);
  }
  write_be16(frame, 12, eth.ether_type);
}

void write_ipv4(std::span<std::byte> l3, const Ipv4Header& header) {
  if (l3.size() < kIpv4MinHeaderLen) {
    throw std::invalid_argument("write_ipv4: buffer too small");
  }
  write_u8(l3, 0, static_cast<std::uint8_t>(0x40 | (header.ihl & 0x0F)));
  write_u8(l3, 1, header.dscp_ecn);
  write_be16(l3, 2, header.total_length);
  write_be16(l3, 4, header.identification);
  write_be16(l3, 6, header.flags_fragment);
  write_u8(l3, 8, header.ttl);
  write_u8(l3, 9, static_cast<std::uint8_t>(header.protocol));
  write_be16(l3, 10, 0);  // checksum placeholder
  write_be32(l3, 12, header.src.value());
  write_be32(l3, 16, header.dst.value());
  const std::uint16_t csum = internet_checksum(l3.first(kIpv4MinHeaderLen));
  write_be16(l3, 10, csum);
}

void write_vlan(std::span<std::byte> frame, const VlanTag& tag) {
  if (frame.size() < kEthernetHeaderLen + kVlanTagLen) {
    throw std::invalid_argument("write_vlan: buffer too small");
  }
  const std::uint16_t tci = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(tag.pcp) << 13) |
      (static_cast<std::uint16_t>(tag.dei ? 1 : 0) << 12) |
      (tag.vid & 0x0FFF));
  write_be16(frame, 14, tci);
  write_be16(frame, 16, tag.inner_ether_type);
}

void write_ipv6(std::span<std::byte> l3, const Ipv6Header& header) {
  if (l3.size() < kIpv6HeaderLen) {
    throw std::invalid_argument("write_ipv6: buffer too small");
  }
  const std::uint32_t word =
      (6u << 28) | (static_cast<std::uint32_t>(header.traffic_class) << 20) |
      (header.flow_label & 0xFFFFF);
  write_be32(l3, 0, word);
  write_be16(l3, 4, header.payload_length);
  write_u8(l3, 6, static_cast<std::uint8_t>(header.next_header));
  write_u8(l3, 7, header.hop_limit);
  for (std::size_t i = 0; i < 16; ++i) {
    write_u8(l3, 8 + i, header.src.octets[i]);
    write_u8(l3, 24 + i, header.dst.octets[i]);
  }
}

void write_udp(std::span<std::byte> l4, const UdpHeader& header) {
  if (l4.size() < kUdpHeaderLen) {
    throw std::invalid_argument("write_udp: buffer too small");
  }
  write_be16(l4, 0, header.src_port);
  write_be16(l4, 2, header.dst_port);
  write_be16(l4, 4, header.length);
  write_be16(l4, 6, 0);  // checksum optional for IPv4
}

namespace {

// Writes a TCP header whose checksum covers the IPv4 pseudo-header for a
// `tcp_len`-byte segment, the header, and `payload_sum` (the
// checksum_partial of the payload, which starts on a word boundary).
void write_tcp_summed(std::span<std::byte> l4, const TcpHeader& header,
                      Ipv4Addr src_ip, Ipv4Addr dst_ip, std::size_t tcp_len,
                      std::uint64_t payload_sum) {
  if (l4.size() < kTcpMinHeaderLen) {
    throw std::invalid_argument("write_tcp: buffer too small");
  }
  write_be16(l4, 0, header.src_port);
  write_be16(l4, 2, header.dst_port);
  write_be32(l4, 4, header.seq);
  write_be32(l4, 8, header.ack);
  write_u8(l4, 12, static_cast<std::uint8_t>(header.data_offset << 4));
  write_u8(l4, 13, header.flags);
  write_be16(l4, 14, header.window);
  write_be16(l4, 16, 0);  // checksum placeholder
  write_be16(l4, 18, header.urgent);

  // Pseudo-header: src, dst, zero, proto, tcp length.
  std::array<std::byte, 12> pseudo{};
  write_be32(pseudo, 0, src_ip.value());
  write_be32(pseudo, 4, dst_ip.value());
  write_u8(pseudo, 8, 0);
  write_u8(pseudo, 9, static_cast<std::uint8_t>(IpProto::kTcp));
  write_be16(pseudo, 10, static_cast<std::uint16_t>(tcp_len));

  std::uint64_t sum = checksum_partial(pseudo, payload_sum);
  sum = checksum_partial(l4.first(kTcpMinHeaderLen), sum);
  write_be16(l4, 16, finish_checksum(sum));
}

}  // namespace

void write_tcp(std::span<std::byte> l4, const TcpHeader& header,
               Ipv4Addr src_ip, Ipv4Addr dst_ip,
               std::span<const std::byte> payload) {
  write_tcp_summed(l4, header, src_ip, dst_ip,
                   kTcpMinHeaderLen + payload.size(),
                   checksum_partial(payload));
}

std::size_t min_frame_len(IpProto proto) {
  const std::size_t l4 = proto == IpProto::kTcp ? kTcpMinHeaderLen
                         : proto == IpProto::kUdp ? kUdpHeaderLen
                                                  : kIcmpHeaderLen;
  return kEthernetHeaderLen + kIpv4MinHeaderLen + l4;
}

std::size_t build_frame(std::span<std::byte> out, const FlowKey& flow,
                        std::size_t frame_len, MacAddr src_mac, MacAddr dst_mac,
                        std::uint16_t ip_id) {
  const std::size_t minimum = min_frame_len(flow.proto);
  if (frame_len < minimum) {
    throw std::invalid_argument("build_frame: frame_len below header minimum");
  }
  if (out.size() < minimum) {
    throw std::invalid_argument("build_frame: output buffer too small");
  }
  out = out.first(std::min(out.size(), frame_len));
  std::fill(out.begin(), out.end(), std::byte{0});

  write_ethernet(out, EthernetHeader{dst_mac, src_mac, kEtherTypeIpv4});

  auto l3 = out.subspan(kEthernetHeaderLen);
  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(frame_len - kEthernetHeaderLen);
  ip.identification = ip_id;
  ip.protocol = flow.proto;
  ip.src = flow.src_ip;
  ip.dst = flow.dst_ip;
  write_ipv4(l3, ip);

  // The payload is all zeros, and zero words add nothing to an RFC 1071
  // sum: the L4 checksums cover the headers alone, so the payload need
  // not be materialized.
  auto l4 = l3.subspan(kIpv4MinHeaderLen);
  const std::size_t l4_len = frame_len - kEthernetHeaderLen - kIpv4MinHeaderLen;
  switch (flow.proto) {
    case IpProto::kUdp: {
      UdpHeader udp;
      udp.src_port = flow.src_port;
      udp.dst_port = flow.dst_port;
      udp.length = static_cast<std::uint16_t>(l4_len);
      write_udp(l4, udp);
      break;
    }
    case IpProto::kTcp: {
      TcpHeader tcp;
      tcp.src_port = flow.src_port;
      tcp.dst_port = flow.dst_port;
      write_tcp_summed(l4, tcp, flow.src_ip, flow.dst_ip, l4_len, 0);
      break;
    }
    case IpProto::kIcmp:
      // Echo-request-shaped filler: type 8, code 0, zero checksum field
      // then correct checksum.
      write_u8(l4, 0, 8);
      write_u8(l4, 1, 0);
      write_be16(l4, 2, internet_checksum(l4.first(kIcmpHeaderLen)));
      break;
  }
  return out.size();
}

std::size_t build_vlan_frame(std::span<std::byte> out, const FlowKey& flow,
                             std::uint16_t vid, std::size_t frame_len,
                             MacAddr src_mac, MacAddr dst_mac) {
  const std::size_t minimum = min_frame_len(flow.proto) + kVlanTagLen;
  if (frame_len < minimum) {
    throw std::invalid_argument("build_vlan_frame: frame_len below minimum");
  }
  if (out.size() < frame_len) {
    throw std::invalid_argument("build_vlan_frame: output buffer too small");
  }
  // Build the untagged frame 4 bytes shorter, then splice in the tag.
  std::array<std::byte, 2048> scratch{};
  build_frame(scratch, flow, frame_len - kVlanTagLen, src_mac, dst_mac);
  std::copy_n(scratch.begin(), 12, out.begin());
  write_be16(out, 12, kEtherTypeVlan);
  VlanTag tag;
  tag.vid = vid;
  tag.inner_ether_type = kEtherTypeIpv4;
  write_vlan(out, tag);
  std::copy_n(scratch.begin() + 14,
              frame_len - kVlanTagLen - kEthernetHeaderLen,
              out.begin() + 18);
  return frame_len;
}

std::size_t build_ipv4_frame(std::span<std::byte> out,
                             const Ipv4FrameSpec& spec) {
  if (spec.ihl < 5 || spec.ihl > 15) {
    throw std::invalid_argument("build_ipv4_frame: ihl out of range");
  }
  const std::size_t l2_len =
      kEthernetHeaderLen + kVlanTagLen * spec.vlan_vids.size();
  const std::size_t ip_hdr_len = static_cast<std::size_t>(spec.ihl) * 4;
  const bool is_fragment = (spec.flags_fragment & 0x1FFF) != 0;
  const std::size_t l4_min =
      is_fragment ? 0
      : spec.flow.proto == IpProto::kTcp ? kTcpMinHeaderLen
      : spec.flow.proto == IpProto::kUdp ? kUdpHeaderLen
                                         : 8;
  const std::size_t minimum = l2_len + ip_hdr_len + l4_min;
  if (spec.wire_len < minimum) {
    throw std::invalid_argument("build_ipv4_frame: wire_len below minimum");
  }
  if (out.size() < spec.wire_len) {
    throw std::invalid_argument("build_ipv4_frame: output buffer too small");
  }
  std::fill(out.begin(),
            out.begin() + static_cast<std::ptrdiff_t>(spec.wire_len),
            std::byte{0});

  write_ethernet(out, EthernetHeader{spec.dst_mac, spec.src_mac,
                                     spec.vlan_vids.empty() ? kEtherTypeIpv4
                                                            : kEtherTypeVlan});
  for (std::size_t i = 0; i < spec.vlan_vids.size(); ++i) {
    write_be16(out, 14 + 4 * i,
               static_cast<std::uint16_t>(spec.vlan_vids[i] & 0x0FFF));
    write_be16(out, 16 + 4 * i,
               i + 1 < spec.vlan_vids.size() ? kEtherTypeVlan
                                             : kEtherTypeIpv4);
  }

  auto l3 = out.subspan(l2_len);
  Ipv4Header ip;
  ip.ihl = spec.ihl;
  ip.total_length = static_cast<std::uint16_t>(spec.wire_len - l2_len);
  ip.identification = spec.ip_id;
  ip.flags_fragment = spec.flags_fragment;
  ip.protocol = spec.flow.proto;
  ip.src = spec.flow.src_ip;
  ip.dst = spec.flow.dst_ip;
  // Options (ihl > 5) stay zero-filled, so the checksum write_ipv4
  // computes over the first 20 bytes covers the full header.
  write_ipv4(l3, ip);

  auto l4 = l3.subspan(ip_hdr_len);
  const std::size_t l4_len = spec.wire_len - l2_len - ip_hdr_len;
  if (is_fragment) {
    // Non-first fragment: the bytes at the L4 offset are mid-datagram
    // payload, not a header.  Pattern them so port primitives that
    // (incorrectly) read them would see nonzero garbage.
    std::fill(l4.begin(), l4.begin() + static_cast<std::ptrdiff_t>(l4_len),
              std::byte{0xA5});
    return spec.wire_len;
  }
  switch (spec.flow.proto) {
    case IpProto::kUdp: {
      UdpHeader udp;
      udp.src_port = spec.flow.src_port;
      udp.dst_port = spec.flow.dst_port;
      udp.length = static_cast<std::uint16_t>(l4_len);
      write_udp(l4, udp);
      break;
    }
    case IpProto::kTcp: {
      TcpHeader tcp;
      tcp.src_port = spec.flow.src_port;
      tcp.dst_port = spec.flow.dst_port;
      const auto payload =
          l4.subspan(kTcpMinHeaderLen, l4_len - kTcpMinHeaderLen);
      write_tcp(l4, tcp, spec.flow.src_ip, spec.flow.dst_ip, payload);
      break;
    }
    case IpProto::kIcmp:
      write_u8(l4, 0, 8);
      write_u8(l4, 1, 0);
      write_be16(l4, 2, internet_checksum(l4.first(l4_len)));
      break;
  }
  return spec.wire_len;
}

std::size_t build_ipv6_frame(std::span<std::byte> out, const Ipv6Addr& src,
                             const Ipv6Addr& dst, IpProto proto,
                             std::uint16_t src_port, std::uint16_t dst_port,
                             std::size_t frame_len, MacAddr src_mac,
                             MacAddr dst_mac) {
  const std::size_t l4_min = proto == IpProto::kTcp ? kTcpMinHeaderLen
                             : proto == IpProto::kUdp ? kUdpHeaderLen
                                                      : 8;
  const std::size_t minimum = kEthernetHeaderLen + kIpv6HeaderLen + l4_min;
  if (frame_len < minimum) {
    throw std::invalid_argument("build_ipv6_frame: frame_len below minimum");
  }
  if (out.size() < frame_len) {
    throw std::invalid_argument("build_ipv6_frame: output buffer too small");
  }
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(frame_len),
            std::byte{0});
  write_ethernet(out, EthernetHeader{dst_mac, src_mac, kEtherTypeIpv6});

  auto l3 = out.subspan(kEthernetHeaderLen);
  Ipv6Header ip;
  ip.payload_length = static_cast<std::uint16_t>(
      frame_len - kEthernetHeaderLen - kIpv6HeaderLen);
  ip.next_header = proto;
  ip.src = src;
  ip.dst = dst;
  write_ipv6(l3, ip);

  auto l4 = l3.subspan(kIpv6HeaderLen);
  const std::size_t l4_len = ip.payload_length;
  switch (proto) {
    case IpProto::kUdp: {
      UdpHeader udp;
      udp.src_port = src_port;
      udp.dst_port = dst_port;
      udp.length = static_cast<std::uint16_t>(l4_len);
      write_udp(l4, udp);
      break;
    }
    case IpProto::kTcp: {
      // TCP checksum over the IPv6 pseudo-header.
      write_be16(l4, 0, src_port);
      write_be16(l4, 2, dst_port);
      write_u8(l4, 12, 5 << 4);
      write_u8(l4, 13, 0x10);
      write_be16(l4, 14, 65535);
      std::array<std::byte, 40> pseudo{};
      for (std::size_t i = 0; i < 16; ++i) {
        pseudo[i] = static_cast<std::byte>(src.octets[i]);
        pseudo[16 + i] = static_cast<std::byte>(dst.octets[i]);
      }
      write_be32(pseudo, 32, static_cast<std::uint32_t>(l4_len));
      write_u8(pseudo, 39, static_cast<std::uint8_t>(IpProto::kTcp));
      std::uint64_t sum = checksum_partial(pseudo);
      sum = checksum_partial(l4.first(l4_len), sum);
      write_be16(l4, 16, finish_checksum(sum));
      break;
    }
    case IpProto::kIcmp:
      write_u8(l4, 0, 128);  // ICMPv6 echo request
      break;
  }
  return frame_len;
}

}  // namespace wirecap::net
