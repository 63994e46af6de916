// Multi-tenant X-SSD (paper §7.2): a hyperscaler packs two virtual
// databases onto one device. The CMB is segmented into independent
// partitions — each tenant gets its own PM ring, credit counter, and
// destage ring on the shared conventional side. The device is an ordinary
// VillarsDevice in an ordinary node: tenant A is partition 0 (the config's
// cmb/destage) and uses the node's client, tenant B is its one extra
// partition, and an unmodified client simply points at its partition's base
// address.
//
// Build & run:   ./build/examples/multi_tenant

#include <cstdio>

#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "host/node.h"

using namespace xssd;

int main() {
  sim::Simulator sim;

  // Two tenants: a big one with a roomy ring, a small one.
  core::VillarsConfig config;
  config.cmb.ring_bytes = 128 * 1024;
  config.destage.ring_start_lba = 0;
  config.destage.ring_lba_count = 1024;
  core::PartitionConfig small;
  small.cmb.ring_bytes = 64 * 1024;
  small.cmb.queue_bytes = 16 * 1024;
  small.destage.ring_start_lba = 1024;
  small.destage.ring_lba_count = 512;
  config.extra_partitions = {small};

  host::StorageNode node(&sim, config, pcie::FabricConfig{}, "mt-xssd");
  if (!node.Init().ok()) return 1;
  core::VillarsDevice& device = node.device();

  host::XLogClient& tenant_a = node.client();
  host::XLogClient tenant_b(&sim, &node.fabric(), device.partition_base(1));
  if (!tenant_b.Setup().ok()) return 1;

  std::printf("one device, %zu tenants: rings %lu KiB and %lu KiB\n",
              device.partition_count(), tenant_a.ring_bytes() / 1024,
              tenant_b.ring_bytes() / 1024);

  // Each tenant runs its own database with its own WAL.
  db::VillarsLogBackend backend_a(&tenant_a), backend_b(&tenant_b);
  db::LogManager log_a(&sim, &backend_a), log_b(&sim, &backend_b);
  db::Database db_a(&log_a), db_b(&log_b);
  db::TpccConfig tpcc;
  tpcc.warehouses = 4;
  db::TpccWorkload workload_a(&db_a, tpcc, 1), workload_b(&db_b, tpcc, 2);
  workload_a.Populate();
  workload_b.Populate();

  // Start both drivers on the same simulator: truly concurrent tenants.
  db::WorkloadDriver driver_a(&sim, &db_a, &workload_a, 4, 11);
  db::WorkloadDriver driver_b(&sim, &db_b, &workload_b, 2, 22);
  // Interleave manually: run A's workload while B's also runs by starting
  // both before pumping the shared simulator.
  db::WorkloadResult result_a, result_b;
  // WorkloadDriver::Run pumps the shared simulator; the second Run returns
  // immediately-ish since virtual time already advanced — so run tenant B
  // first for its warmup, then A (both sets of workers stay active).
  result_b = driver_b.Run(sim::Ms(20), sim::Ms(200));
  result_a = driver_a.Run(sim::Ms(20), sim::Ms(200));

  std::printf("tenant A: %8.0f txn/s, %7.1f us mean commit latency\n",
              result_a.txns_per_sec, result_a.latency_us.Mean());
  std::printf("tenant B: %8.0f txn/s, %7.1f us mean commit latency\n",
              result_b.txns_per_sec, result_b.latency_us.Mean());
  std::printf("credits: A=%lu B=%lu (independent counters)\n",
              device.cmb().local_credit(),
              device.partition(1).cmb().local_credit());
  std::printf("destaged: A=%lu B=%lu bytes into disjoint flash rings\n",
              device.destage().destaged(),
              device.partition(1).destage().destaged());
  return 0;
}
