// Log shipping: a primary and two secondary Villars devices over NTB.
// The primary's database appends its WAL; the devices replicate the
// stream; the secondary hosts read the shipped log from their own device
// with x_pread — the full right-hand side of the paper's Figure 1 —
// and finally a secondary is promoted to primary via the vendor admin
// command after the primary "fails".
//
// Build & run:   ./build/examples/log_shipping

#include <cstdio>
#include <cstring>
#include <string>

#include "host/node.h"
#include "host/xcalls.h"

using namespace xssd;

int main() {
  sim::Simulator sim;
  core::VillarsConfig config;

  host::StorageNode primary(&sim, config, pcie::FabricConfig{}, "primary");
  host::StorageNode sec_a(&sim, config, pcie::FabricConfig{}, "sec-a");
  host::StorageNode sec_b(&sim, config, pcie::FabricConfig{}, "sec-b");
  for (host::StorageNode* node : {&primary, &sec_a, &sec_b}) {
    Status status = node->Init();
    if (!status.ok()) {
      std::fprintf(stderr, "%s init failed: %s\n", node->name().c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }

  // Eager replication: the credit counter the primary's database reads
  // only advances when *every* secondary has persisted the bytes.
  host::ReplicationGroup group({&primary, &sec_a, &sec_b});
  Status status =
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8));
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("replication group up: primary + 2 secondaries (eager)\n");

  // Ship a WAL: x_pwrite on the primary, fsync waits for both secondaries.
  std::string wal;
  for (int i = 0; i < 50; ++i) {
    wal += "txn-" + std::to_string(i) + ":payment(w=3,d=7,amount=42.00);";
  }
  host::x_pwrite(sim, primary.client(), wal.data(), wal.size());
  if (host::x_fsync(sim, primary.client()) != 0) return 1;

  std::printf("primary fsync done: local credit %lu, shadows [%lu, %lu]\n",
              primary.device().cmb().local_credit(),
              primary.device().transport().shadow_counter(0),
              primary.device().transport().shadow_counter(1));

  // Secondary-side consumption (Figure 1 right, step 3): the standby
  // database reads the shipped log from its *own* device's destage ring.
  std::vector<char> shipped(wal.size());
  ssize_t n = host::x_pread(sim, sec_a.client(), sec_a.driver(),
                            shipped.data(), shipped.size());
  bool match = n == static_cast<ssize_t>(wal.size()) &&
               std::memcmp(shipped.data(), wal.data(), wal.size()) == 0;
  std::printf("sec-a replayed %zd bytes from its conventional side: %s\n", n,
              match ? "IDENTICAL to primary WAL" : "MISMATCH");
  if (!match) return 1;

  // "Failover": the primary goes away; promote sec-a by admin command
  // (paper §7.1 — promotion is the database's decision, done in software).
  primary.device().PowerFail([]() {});
  sim.RunFor(sim::Ms(5));
  status = host::AdminSync(sec_a, core::SetRoleCmd(core::Role::kPrimary, 0));
  std::printf("primary lost; sec-a promoted: %s (role now %u)\n",
              status.ToString().c_str(),
              static_cast<unsigned>(sec_a.device().transport().role()));

  // The new primary's client adopts the replicated tail, then keeps
  // taking log writes.
  if (!sec_a.client().ResumeAtDeviceTail().ok()) return 1;
  const char more[] = "txn-after-failover:new_order(w=1);";
  host::x_pwrite(sim, sec_a.client(), more, sizeof(more) - 1);
  if (host::x_fsync(sim, sec_a.client()) != 0) return 1;
  std::printf("new primary accepted %zu more bytes durably\n",
              sizeof(more) - 1);
  return 0;
}
