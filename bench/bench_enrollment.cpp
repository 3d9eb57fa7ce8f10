// Experiment T3: enrollment protocol cost breakdown.
//
// The one-time setup cost, per chip and per key size: in-PAL keygen,
// TPM Seal, TPM Quote, network, and SP-side verification (the last one
// measured in real time, since the SP is a normal server and its cost is
// the scalability question).
#include <chrono>
#include <cstdio>

#include "core/trusted_path_pal.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "sp_frames.h"
#include "tpm/chip_profile.h"

using namespace tp;

namespace {

struct EnrollCost {
  double keygen_ms;      // virtual, in-PAL
  double seal_ms;        // virtual, TPM
  double quote_ms;       // virtual, TPM
  double session_ms;     // virtual, whole session (machine)
  double sp_verify_ms;   // REAL time of the SP handling EnrollComplete
};

EnrollCost run(const std::string& chip, std::uint32_t key_bits) {
  sp::FleetConfig cfg;
  cfg.client_id = "bench";
  cfg.chip_mix = {chip};
  cfg.seed = bytes_of("t3:" + chip + std::to_string(key_bits));
  cfg.tpm_key_bits = key_bits;
  cfg.client_key_bits = key_bits;
  sp::Fleet world(cfg);

  // Direct PAL session to read the span log.
  SimClock& clock = world.platform().clock();
  const std::size_t spans_before = clock.spans().size();
  auto challenge =
      test::begin_enrollment(world.sp(), core::EnrollBegin{"bench"});

  core::PalEnrollInput in;
  in.nonce = challenge.nonce;
  in.key_bits = key_bits;
  pal::SessionDriver driver(world.platform());
  auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
  if (!session.ok() || !session.value().status.ok()) std::abort();
  auto out = core::PalEnrollOutput::unmarshal(session.value().output);

  EnrollCost cost{};
  for (std::size_t i = spans_before; i < clock.spans().size(); ++i) {
    const auto& span = clock.spans()[i];
    if (span.label == "pal:keygen") cost.keygen_ms += span.duration.to_millis();
    if (span.label == "tpm:seal") cost.seal_ms += span.duration.to_millis();
    if (span.label == "tpm:quote") cost.quote_ms += span.duration.to_millis();
  }
  cost.session_ms = session.value().timing.machine().to_millis();

  core::EnrollComplete msg;
  msg.client_id = "bench";
  msg.confirmation_pubkey = out.value().pubkey;
  msg.quote = out.value().quote;
  msg.aik_certificate =
      world.ca().certify("bench", world.platform().tpm().aik_public())
          .serialize();

  const auto wall_start = std::chrono::steady_clock::now();
  const auto result = test::complete_enrollment(world.sp(), msg);
  const auto wall_end = std::chrono::steady_clock::now();
  if (!result.accepted) std::abort();
  cost.sp_verify_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  return cost;
}

}  // namespace

int main() {
  std::printf("=== T3: enrollment cost breakdown ===\n");
  std::printf("(client columns: virtual ms; SP verify: real ms on this host)\n\n");
  std::printf("%-20s  %6s  %8s  %8s  %8s  %10s  %10s\n", "chip", "bits",
              "keygen", "seal", "quote", "session", "SP verify");
  for (const auto& chip : tpm::standard_chips()) {
    for (std::uint32_t bits : {1024u, 2048u}) {
      const EnrollCost c = run(chip.name, bits);
      std::printf("%-20s  %6u  %8.1f  %8.1f  %8.1f  %10.1f  %10.3f\n",
                  chip.name.c_str(), bits, c.keygen_ms, c.seal_ms,
                  c.quote_ms, c.session_ms, c.sp_verify_ms);
    }
  }
  std::printf(
      "\nShape check: enrollment is seconds (keygen + Seal + Quote), paid\n"
      "once per platform; SP-side verification is a few RSA verifies --\n"
      "milliseconds of real CPU -- so enrollment does not threaten server\n"
      "scalability.\n");
  return 0;
}
