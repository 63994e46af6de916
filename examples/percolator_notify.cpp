// Percolator-style notification service (paper §7.2): with replication
// off, "the CMB area acts as a low-latency append feature with precise
// crash semantics" — the shape of Google Percolator's observer pattern.
// Producers append small notification records through the fast side;
// an observer follows the destaged tail with x_pread and "triggers" on
// each complete record, surviving the fact that producers and observer
// share no memory — only the device.
//
// Build & run:   ./build/examples/percolator_notify

#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "db/log_record.h"
#include "host/node.h"
#include "host/xcalls.h"
#include "sim/random.h"

using namespace xssd;

int main() {
  sim::Simulator sim;
  core::VillarsConfig config;
  host::StorageNode node(&sim, config, pcie::FabricConfig{}, "percolator");
  if (!node.Init().ok()) return 1;

  constexpr int kProducers = 3;
  constexpr int kNotificationsPerProducer = 40;
  sim::Rng rng(5);

  // Producers: append self-describing notification records at random
  // intervals. db::LogRecord doubles as the notification envelope.
  int active_producers = kProducers;
  uint64_t produced = 0;
  uint64_t produced_bytes = 0;
  std::function<void(int, int)> produce = [&](int id, int remaining) {
    if (remaining == 0) {
      if (--active_producers == 0) {
        // End-of-stream flush: a filler run larger than the observer's
        // read unit guarantees every real record crosses a read boundary.
        std::vector<uint8_t> filler(512, 0xFF);
        node.client().Append(filler.data(), filler.size(), [](Status) {});
      }
      return;
    }
    db::LogRecord note;
    note.txn_id = ++produced;
    note.table_id = static_cast<uint32_t>(id);
    note.op = db::LogOp::kInsert;
    note.key = rng.Next() % 1000;
    note.payload.assign(24 + rng.Uniform(100),
                        static_cast<uint8_t>(id + 1));
    std::vector<uint8_t> wire;
    db::SerializeLogRecord(note, &wire);
    produced_bytes += wire.size();
    node.client().Append(wire.data(), wire.size(), [&, id,
                                                    remaining](Status s) {
      if (!s.ok()) {
        --active_producers;
        return;
      }
      sim.Schedule(sim::Us(5 + rng.Uniform(40)), [&produce, id, remaining]() {
        produce(id, remaining - 1);
      });
    });
  };
  for (int id = 0; id < kProducers; ++id) {
    produce(id, kNotificationsPerProducer);
  }

  // Observer: tail the destaged log, reassembling records across reads.
  uint64_t observed = 0;
  uint64_t observed_bytes = 0;
  std::vector<uint8_t> backlog;
  bool stop = false;
  std::function<void()> observe = [&]() {
    if (stop) return;
    node.client().ReadTail(
        &node.driver(), 256, [&](Status s, std::vector<uint8_t> chunk) {
          if (!s.ok()) {
            stop = true;
            return;
          }
          backlog.insert(backlog.end(), chunk.begin(), chunk.end());
          observed_bytes += chunk.size();
          // Trigger on every complete record; keep the torn tail.
          size_t offset = 0;
          while (true) {
            size_t before = offset;
            Result<db::LogRecord> record =
                db::ParseLogRecord(backlog, &offset);
            if (!record.ok()) {
              offset = before;
              break;
            }
            ++observed;
          }
          backlog.erase(backlog.begin(), backlog.begin() + offset);
          observe();
        });
  };
  observe();

  // Run until all producers finish and the observer caught up.
  const uint64_t expected = kProducers * kNotificationsPerProducer;
  sim.RunWhile([&]() { return active_producers == 0 && observed >= expected; });
  stop = true;
  sim.RunFor(sim::Ms(2));

  std::printf("producers appended %lu notifications; observer triggered on "
              "%lu (%lu bytes) via the destaged tail\n",
              produced, observed, observed_bytes);
  std::printf("virtual time: %.2f ms; destage pages: %lu (%lu partial)\n",
              sim::ToMs(sim.Now()),
              node.device().destage().stats().pages_written,
              node.device().destage().stats().partial_pages);
  return observed == expected ? 0 : 1;
}
