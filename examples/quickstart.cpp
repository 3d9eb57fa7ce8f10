// Quickstart: one client, one service provider, one confirmed
// transaction over the uni-directional trusted path. The world is a
// one-member sp::Fleet with its defaults (1,024-bit keys, TPM 1.2).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "pal/human_agent.h"
#include "sp/fleet.h"

using namespace tp;

int main() {
  // 1. Deploy the world: a client machine with TPM + DRTM, a Privacy CA
  //    that certified its AIK, and a service provider that trusts the CA
  //    and the published PAL measurement.
  sp::FleetConfig config;
  config.client_id = "alice-laptop";
  sp::Fleet world(config);

  // 2. A human sits at the machine, intending to pay Bob.
  devices::HumanParams human;
  pal::HumanAgent alice(devices::HumanModel(human, SimRng(2026)),
                        "pay 100 EUR to bob");
  world.client().set_user_agent(&alice);

  // 3. Enroll once: the PAL generates and seals the confirmation key and
  //    the SP verifies the TPM quote before trusting it.
  if (auto s = world.client().enroll(); !s.ok()) {
    std::fprintf(stderr, "enrollment failed: %s\n",
                 s.error().to_string().c_str());
    return 1;
  }
  std::printf("enrolled: key generated inside the PAL, quote verified\n");

  // 4. Submit the transaction; the PAL shows it on the trusted screen,
  //    Alice re-types the code, the SP verifies the signature.
  auto outcome = world.client().submit_transaction("pay 100 EUR to bob",
                                                   bytes_of("order #4711"));
  if (!outcome.ok()) {
    std::fprintf(stderr, "protocol error: %s\n",
                 outcome.error().to_string().c_str());
    return 1;
  }

  const auto& result = outcome.value();
  std::printf("transaction %s (%s)\n",
              result.accepted ? "ACCEPTED" : "REJECTED",
              result.reason.c_str());
  std::printf("session breakdown (virtual ms):\n");
  std::printf("  machine (suspend+SKINIT+TPM+resume): %8.1f\n",
              result.timing.machine().to_millis());
  std::printf("    of which TPM commands:             %8.1f\n",
              result.timing.tpm.to_millis());
  std::printf("  human (read screen, type code):      %8.1f\n",
              result.timing.user.to_millis());
  std::printf("  total:                               %8.1f\n",
              result.timing.total.to_millis());
  return result.accepted ? 0 : 1;
}
