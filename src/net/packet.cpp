#include "net/packet.hpp"

#include <algorithm>
#include <stdexcept>

namespace wirecap::net {

namespace {
constexpr MacAddr kDefaultSrcMac = MacAddr::of(0x02, 0x57, 0x43, 0x41, 0x50, 0x01);
constexpr MacAddr kDefaultDstMac = MacAddr::of(0x02, 0x57, 0x43, 0x41, 0x50, 0x02);
}  // namespace

WirePacket WirePacket::make(Nanos timestamp, const FlowKey& flow,
                            std::uint32_t wire_len, std::uint64_t seq,
                            std::uint16_t ip_id) {
  WirePacket pkt;
  pkt.timestamp_ = timestamp;
  pkt.wire_len_ = std::max<std::uint32_t>(
      wire_len, static_cast<std::uint32_t>(min_frame_len(flow.proto)));
  pkt.snap_len_ =
      static_cast<std::uint32_t>(std::min<std::size_t>(pkt.wire_len_, kSnapBytes));
  pkt.seq_ = seq;
  pkt.flow_ = flow;

  // Only the first kSnapBytes are materialized; the IP total_length and
  // the checksums still reflect the true wire length.
  build_frame(pkt.data_, flow, pkt.wire_len_, kDefaultSrcMac, kDefaultDstMac,
              ip_id);
  return pkt;
}

WirePacket WirePacket::from_bytes(Nanos timestamp,
                                  std::span<const std::byte> frame,
                                  std::uint32_t wire_len, std::uint64_t seq) {
  if (wire_len < frame.size()) {
    throw std::invalid_argument("WirePacket: wire_len shorter than bytes");
  }
  WirePacket pkt;
  pkt.timestamp_ = timestamp;
  pkt.wire_len_ = wire_len;
  pkt.snap_len_ =
      static_cast<std::uint32_t>(std::min<std::size_t>(frame.size(), kSnapBytes));
  pkt.seq_ = seq;
  std::copy_n(frame.begin(), pkt.snap_len_, pkt.data_.begin());
  if (auto flow = parse_flow(pkt.bytes())) pkt.flow_ = *flow;
  return pkt;
}

}  // namespace wirecap::net
