// Experiment T2: trusted-path session latency breakdown.
//
// Regenerates the paper's per-phase cost table for both protocol
// sessions (ENROLL once, CONFIRM per transaction) on every chip profile.
// Human time is reported separately from machine time: the paper's
// practicality argument is that machine overhead (around a second,
// TPM-dominated) disappears inside the human's own think/typing time.
#include <cstdio>

#include "core/trusted_path_pal.h"
#include "devices/human.h"
#include "pal/human_agent.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "tpm/chip_profile.h"

using namespace tp;

namespace {

struct Run {
  pal::SessionTiming enroll;
  pal::SessionTiming confirm;
};

Run run_sessions(const std::string& chip_name) {
  sp::FleetConfig cfg;
  cfg.client_id = "bench";
  cfg.chip_mix = {chip_name};
  cfg.seed = bytes_of("t2:" + chip_name);
  cfg.tpm_key_bits = 1024;
  cfg.client_key_bits = 1024;
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(1)),
                        "pay 100 EUR to bob");
  world.client().set_user_agent(&agent);

  Run run;
  // Enrollment: reconstruct timing from the clock spans via a direct PAL
  // run (the client API hides the session result internals).
  {
    core::PalEnrollInput in;
    in.nonce = Bytes(20, 1);
    in.key_bits = 1024;
    pal::SessionDriver driver(world.platform());
    auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
    run.enroll = session.value().timing;
  }
  // Confirmation via the full client path.
  {
    if (!world.client().enroll().ok()) std::abort();
    auto outcome = world.client().submit_transaction("pay 100 EUR to bob",
                                                     Bytes(512, 7));
    run.confirm = outcome.value().timing;
  }
  return run;
}

void print_row(const char* label, double broadcom, double atmel,
               double infineon, double stm) {
  std::printf("%-22s  %10.1f  %10.1f  %10.1f  %10.1f\n", label, broadcom,
              atmel, infineon, stm);
}

void print_table(const char* title,
                 const std::vector<pal::SessionTiming>& t) {
  std::printf("\n--- %s (virtual ms) ---\n", title);
  std::printf("%-22s  %10s  %10s  %10s  %10s\n", "phase", "Broadcom",
              "Atmel", "Infineon", "STMicro");
  auto ms = [](SimDuration d) { return d.to_millis(); };
  print_row("suspend OS", ms(t[0].suspend), ms(t[1].suspend),
            ms(t[2].suspend), ms(t[3].suspend));
  print_row("SKINIT (launch+hash)", ms(t[0].skinit), ms(t[1].skinit),
            ms(t[2].skinit), ms(t[3].skinit));
  print_row("PAL env setup", ms(t[0].pal_setup), ms(t[1].pal_setup),
            ms(t[2].pal_setup), ms(t[3].pal_setup));
  print_row("TPM commands", ms(t[0].tpm), ms(t[1].tpm), ms(t[2].tpm),
            ms(t[3].tpm));
  print_row("PAL compute", ms(t[0].pal_compute), ms(t[1].pal_compute),
            ms(t[2].pal_compute), ms(t[3].pal_compute));
  print_row("resume OS", ms(t[0].resume), ms(t[1].resume), ms(t[2].resume),
            ms(t[3].resume));
  print_row("MACHINE TOTAL", ms(t[0].machine()), ms(t[1].machine()),
            ms(t[2].machine()), ms(t[3].machine()));
  print_row("human (excluded)", ms(t[0].user), ms(t[1].user), ms(t[2].user),
            ms(t[3].user));
}

}  // namespace

int main() {
  std::printf("=== T2: trusted-path session latency breakdown ===\n");

  const char* chips[] = {"Broadcom BCM5752", "Atmel AT97SC3203",
                         "Infineon SLB9635", "STMicro ST19NP18"};
  std::vector<pal::SessionTiming> enroll, confirm;
  for (const char* chip : chips) {
    const Run run = run_sessions(chip);
    enroll.push_back(run.enroll);
    confirm.push_back(run.confirm);
  }

  print_table("ENROLL session (once per platform)", enroll);
  print_table("CONFIRM session (per transaction)", confirm);

  std::printf(
      "\nShape check: CONFIRM machine time is TPM-dominated (Unseal) and\n"
      "lands around 0.3-1.1 s depending on the chip -- well under the\n"
      "human's own response time. ENROLL additionally pays keygen + Seal +\n"
      "Quote and is the expensive (but one-time) session.\n");
  return 0;
}
