// The PacketShader I/O engine (PSIOE) model (§6).
//
// PSIOE is structurally a Type-II engine — ring buffers are the only
// kernel-side buffering — but "uses a user-space thread, instead of
// Linux NAPI polling, to copy packets from receive ring buffers to a
// consecutive user-level buffer".  The copy is charged to the
// application (user priority) and counted; buffering stays limited to
// the ring, which is why PSIOE "is not suitable for a heavy-load
// application" (Table 2).
#pragma once

#include <memory>

#include "engines/type2_engine.hpp"

namespace wirecap::engines {

struct PsioeConfig {
  std::uint32_t sync_batch = 64;       // batched descriptor reclamation
  Nanos copy_cost = Nanos{95};         // per-packet user-space copy
  std::uint32_t user_buffer_bytes = 2048;
};

class PsioeEngine final : public CaptureEngine {
 public:
  PsioeEngine(nic::MultiQueueNic& nic, PsioeConfig config);

  [[nodiscard]] std::string_view name() const override { return "PSIOE"; }

  void open(std::uint32_t queue, sim::SimCore& app_core) override;
  void close(std::uint32_t queue) override;
  /// A batch of one: the view aliases the first staging slot.
  std::optional<CaptureView> try_next(std::uint32_t queue) override;
  void done(std::uint32_t queue, const CaptureView& view) override;
  /// PSIOE's one native read.  PSIOE copies bursts "to a consecutive
  /// user-level buffer" (PacketShader's chunk): the batch read carves
  /// the staging buffer into one user_buffer_bytes slot per packet so
  /// every view of the batch has distinct storage.  try_next() and the
  /// base try_next_chunk() adapt this read, so packet, chunk and batch
  /// views alike are valid only until the next pull on the queue;
  /// done()/done_chunk()/done_batch() are no-ops because the ring
  /// buffers were released at copy time.
  std::size_t try_next_batch(std::uint32_t queue, std::size_t max_packets,
                             PacketBatch& batch) override;
  bool forward(std::uint32_t queue, const CaptureView& view,
               nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) override;
  [[nodiscard]] Nanos app_overhead_per_packet() const override;
  void set_data_callback(std::uint32_t queue,
                         std::function<void()> fn) override;
  [[nodiscard]] EngineQueueStats queue_stats(
      std::uint32_t queue) const override;

 private:
  Type2Engine inner_;
  PsioeConfig config_;
  /// Per-queue staging buffer in "user space"; the packet is copied here
  /// and the ring buffer released immediately.
  std::vector<std::vector<std::byte>> user_buffers_;
  /// Per-queue batch-of-one scratch for try_next(), reused so the
  /// per-packet read allocates nothing in steady state.
  std::vector<PacketBatch> singles_;
  std::vector<std::uint64_t> copies_;
};

}  // namespace wirecap::engines
