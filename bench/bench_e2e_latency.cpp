// Experiment F1: end-to-end confirmation latency vs transaction size.
//
// Sweeps the transaction payload from 256 B to 64 KiB on every chip and
// reports machine time (client session + network round trips) and total
// time including the human. The claim: latency is flat in transaction
// size -- the PAL hashes the payload once; everything else is constant --
// so the trusted path is as usable for a 64 KiB contract as for a
// one-line payment.
#include <cstdio>

#include "devices/human.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "tpm/chip_profile.h"

using namespace tp;

namespace {

struct Point {
  double machine_ms;
  double total_ms;
};

Point run_once(const std::string& chip, std::size_t payload_size) {
  sp::FleetConfig cfg;
  cfg.client_id = "bench";
  cfg.chip_mix = {chip};
  cfg.seed = bytes_of("f1:" + chip + ":" + std::to_string(payload_size));
  cfg.tpm_key_bits = 1024;
  cfg.client_key_bits = 1024;
  cfg.net.latency_mean_ms = 40;
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(7)), "checkout");
  world.client().set_user_agent(&agent);
  if (!world.client().enroll().ok()) std::abort();

  const SimTime start = world.platform().clock().now();
  auto outcome =
      world.client().submit_transaction("checkout", Bytes(payload_size, 0x5a));
  if (!outcome.ok() || !outcome.value().accepted) std::abort();
  const SimDuration total = world.platform().clock().now() - start;
  const SimDuration user = outcome.value().timing.user;
  return Point{(total - user).to_millis(), total.to_millis()};
}

}  // namespace

int main() {
  std::printf("=== F1: end-to-end confirmation latency vs payload size ===\n");
  std::printf("(machine = session + network, excl. human; total incl. human;"
              " virtual ms)\n\n");

  const std::size_t sizes[] = {256, 1024, 4096, 16384, 65536};
  for (const auto& chip : tpm::standard_chips()) {
    std::printf("--- %s ---\n", chip.name.c_str());
    std::printf("%12s  %12s  %12s\n", "payload (B)", "machine", "total");
    for (std::size_t size : sizes) {
      const Point p = run_once(chip.name, size);
      std::printf("%12zu  %12.1f  %12.1f\n", size, p.machine_ms, p.total_ms);
    }
    std::printf("\n");
  }

  std::printf(
      "Shape check: machine latency is essentially flat across a 256x\n"
      "payload range (the marginal cost is hashing), and the total is\n"
      "dominated by the human on every chip.\n");
  return 0;
}
