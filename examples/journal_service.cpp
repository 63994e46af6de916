// Journal service: the paper's §5.2/§7.2 advanced-API use case. Multiple
// "journal writer" threads (a JBD2-style filesystem journal, or ERMIA-style
// parallel log writers) each x_alloc a private area of the fast side, fill
// it in parallel — out of order on the wire — and x_free it when complete.
// Freed areas destage; active areas are held back by the destage barrier.
//
// Build & run:   ./build/examples/journal_service

#include <cstdio>
#include <memory>
#include <vector>

#include "host/node.h"
#include "host/xcalls.h"
#include "sim/random.h"

using namespace xssd;

int main() {
  sim::Simulator sim;
  core::VillarsConfig config;
  host::StorageNode node(&sim, config, pcie::FabricConfig{}, "journal");
  if (!node.Init().ok()) return 1;

  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 8;
  constexpr size_t kBatchBytes = 4096;

  sim::Rng rng(1);
  int done_writers = 0;

  // Each writer: loop { x_alloc a batch area; fill it with 256-byte
  // journal blocks in random order; x_free }. Allocation order across
  // writers interleaves, exactly the "different database worker threads
  // request transaction log buffers this way but fill the areas in
  // parallel" pattern.
  std::function<void(int, int)> writer;
  // Writes block `index` of writer `id`'s area at `base` (blocks go in
  // `order`), then the next; x_frees the area after the last one.
  std::function<void(int, int, uint64_t,
                     std::shared_ptr<std::vector<size_t>>, size_t)>
      fill = [&](int id, int batch, uint64_t base,
                 std::shared_ptr<std::vector<size_t>> order, size_t index) {
        if (index == order->size()) {
          Status freed = node.client().XFree(base);
          if (!freed.ok()) {
            std::fprintf(stderr, "x_free failed: %s\n",
                         freed.ToString().c_str());
          }
          writer(id, batch + 1);
          return;
        }
        std::vector<uint8_t> block(256,
                                   static_cast<uint8_t>(id * 16 + batch));
        node.client().WriteAt(base + (*order)[index], block.data(),
                              block.size(),
                              [&fill, id, batch, base, order, index](Status) {
                                fill(id, batch, base, order, index + 1);
                              });
      };
  writer = [&](int id, int batch) {
    if (batch == kBatchesPerWriter) {
      ++done_writers;
      return;
    }
    Result<uint64_t> area = node.client().XAlloc(kBatchBytes);
    if (!area.ok()) {
      std::fprintf(stderr, "x_alloc failed: %s\n",
                   area.status().ToString().c_str());
      ++done_writers;
      return;
    }
    uint64_t base = *area;

    // Random fill order within the area.
    auto order = std::make_shared<std::vector<size_t>>();
    for (size_t off = 0; off < kBatchBytes; off += 256) {
      order->push_back(off);
    }
    for (size_t i = order->size(); i > 1; --i) {
      std::swap((*order)[i - 1], (*order)[rng.Uniform(i)]);
    }

    fill(id, batch, base, order, 0);
  };

  for (int id = 0; id < kWriters; ++id) writer(id, 0);
  sim.RunWhile([&]() { return done_writers == kWriters; });

  // Everything freed: the barrier lifted, the full journal destages.
  host::x_fsync(sim, node.client());
  uint64_t total = kWriters * kBatchesPerWriter * kBatchBytes;
  std::printf("journal: %d writers x %d batches x %zu B = %lu bytes\n",
              kWriters, kBatchesPerWriter, kBatchBytes, total);
  std::printf("credit counter: %lu (out-of-order fills coalesced into a "
              "gap-free stream)\n",
              node.device().cmb().local_credit());

  // Read the journal back off the conventional side.
  std::vector<uint8_t> journal(total);
  ssize_t n = host::x_pread(sim, node.client(), node.driver(),
                            journal.data(), journal.size());
  std::printf("replayed %zd journal bytes from flash; virtual time %.1f us\n",
              n, sim::ToUs(sim.Now()));
  return n == static_cast<ssize_t>(total) ? 0 : 1;
}
