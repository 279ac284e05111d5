#include "net/rss.hpp"

#include <stdexcept>

namespace wirecap::net {

namespace {

// Longest hashed input: the IPv6 addresses and ports.
constexpr std::size_t kMaxRssInputBytes = 36;

using RssTable =
    std::array<std::array<std::uint32_t, 256>, kMaxRssInputBytes>;

// The Toeplitz hash is linear over GF(2): each set input bit XORs in the
// 32-bit key window starting at that bit.  So table[offset][byte] holds
// the XOR of the windows for the set bits of `byte` at input `offset`,
// and the hash of an input is the XOR of one entry per input byte.
constexpr RssTable make_rss_table(const std::array<std::uint8_t, 40>& key) {
  RssTable table{};
  for (std::size_t offset = 0; offset < kMaxRssInputBytes; ++offset) {
    // Key bytes offset..offset+4 hold every window starting in this byte.
    std::uint64_t span40 = 0;
    for (std::size_t i = 0; i < 5; ++i) span40 = (span40 << 8) | key[offset + i];
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const auto window = static_cast<std::uint32_t>(span40 >> (8 - bit));
      for (std::size_t value = 0; value < 256; ++value) {
        if ((value >> (7 - bit)) & 1) table[offset][value] ^= window;
      }
    }
  }
  return table;
}

constexpr RssTable kDefaultRssTable = make_rss_table(kDefaultRssKey);

// Toeplitz hash of `input`: one table lookup per byte under the default
// key, the bit-serial definition under any other.
std::uint32_t keyed_hash(std::span<const std::uint8_t> input,
                         std::span<const std::uint8_t> key) {
  if (key.data() != kDefaultRssKey.data() ||
      key.size() != kDefaultRssKey.size()) {
    return toeplitz_hash(input, key);
  }
  std::uint32_t result = 0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    result ^= kDefaultRssTable[i][input[i]];
  }
  return result;
}

}  // namespace

std::uint32_t toeplitz_hash(std::span<const std::uint8_t> input,
                            std::span<const std::uint8_t> key) {
  if (key.size() < input.size() + 4) {
    throw std::invalid_argument(
        "toeplitz_hash: key must exceed input length by at least 32 bits");
  }
  std::uint32_t result = 0;
  // The sliding 32-bit window over the key, advanced one bit per input
  // bit.  Initialize with the first 32 key bits.
  std::uint32_t window = (static_cast<std::uint32_t>(key[0]) << 24) |
                         (static_cast<std::uint32_t>(key[1]) << 16) |
                         (static_cast<std::uint32_t>(key[2]) << 8) |
                         static_cast<std::uint32_t>(key[3]);
  std::size_t next_key_byte = 4;
  std::uint8_t pending = 0;
  int pending_bits = 0;

  for (const std::uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) result ^= window;
      // Shift the window left one bit, pulling the next key bit in.
      if (pending_bits == 0) {
        pending = next_key_byte < key.size() ? key[next_key_byte] : 0;
        ++next_key_byte;
        pending_bits = 8;
      }
      window = (window << 1) | ((pending >> 7) & 1);
      pending = static_cast<std::uint8_t>(pending << 1);
      --pending_bits;
    }
  }
  return result;
}

std::uint32_t rss_hash(const FlowKey& flow, std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 12> input{};
  const auto put32 = [&](std::size_t off, std::uint32_t v) {
    input[off] = static_cast<std::uint8_t>(v >> 24);
    input[off + 1] = static_cast<std::uint8_t>(v >> 16);
    input[off + 2] = static_cast<std::uint8_t>(v >> 8);
    input[off + 3] = static_cast<std::uint8_t>(v);
  };
  put32(0, flow.src_ip.value());
  put32(4, flow.dst_ip.value());
  const bool has_ports =
      flow.proto == IpProto::kTcp || flow.proto == IpProto::kUdp;
  if (has_ports) {
    input[8] = static_cast<std::uint8_t>(flow.src_port >> 8);
    input[9] = static_cast<std::uint8_t>(flow.src_port);
    input[10] = static_cast<std::uint8_t>(flow.dst_port >> 8);
    input[11] = static_cast<std::uint8_t>(flow.dst_port);
    return keyed_hash(input, key);
  }
  return keyed_hash(std::span<const std::uint8_t>{input.data(), 8}, key);
}

std::uint32_t rss_hash_ipv6(const Ipv6Addr& src, const Ipv6Addr& dst,
                            std::uint16_t src_port, std::uint16_t dst_port,
                            bool with_ports,
                            std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 36> input{};
  for (std::size_t i = 0; i < 16; ++i) {
    input[i] = src.octets[i];
    input[16 + i] = dst.octets[i];
  }
  if (!with_ports) {
    return keyed_hash(std::span<const std::uint8_t>{input.data(), 32}, key);
  }
  input[32] = static_cast<std::uint8_t>(src_port >> 8);
  input[33] = static_cast<std::uint8_t>(src_port);
  input[34] = static_cast<std::uint8_t>(dst_port >> 8);
  input[35] = static_cast<std::uint8_t>(dst_port);
  return keyed_hash(input, key);
}

}  // namespace wirecap::net
