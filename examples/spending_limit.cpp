// Spending-limit scenario: the stateful PAL extension.
//
// A bank caps what can leave the account per period, enforced INSIDE the
// isolated environment: malware that owns the OS cannot raise the limit
// (it is sealed) and cannot roll the spent-counter back (monotonic
// counter check). Demonstrates both attacks failing.
#include <cstdio>

#include "pal/human_agent.h"
#include "sp/fleet.h"

using namespace tp;

namespace {

/// Prints one transfer's outcome; returns whether the SP accepted it.
bool report(const char* what,
            const Result<core::TrustedPathClient::LimitedOutcome>& r) {
  if (!r.ok()) {
    std::printf("%-38s -> error: %s\n", what, r.error().to_string().c_str());
    return false;
  }
  const auto& o = r.value();
  std::printf("%-38s -> %-8s  spent %llu/%llu cents%s\n", what,
              o.accepted ? "ACCEPTED" : "rejected",
              static_cast<unsigned long long>(o.spent_cents),
              static_cast<unsigned long long>(o.limit_cents),
              o.limit_exceeded ? "  [limit gate]" : "");
  return o.accepted;
}

}  // namespace

int main() {
  std::printf("=== spending limit enforced inside the PAL ===\n\n");

  sp::FleetConfig config;
  config.client_id = "saver";
  config.seed = bytes_of("spending-limit");
  sp::Fleet bank(config);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  hp.attention = 1.0;
  pal::HumanAgent user(devices::HumanModel(hp, SimRng(12)), "");
  bank.client().set_user_agent(&user);
  if (!bank.client().enroll().ok()) return 1;

  auto spend = [&](std::uint64_t cents, std::uint64_t limit) {
    const std::string summary =
        "transfer " + std::to_string(cents) + " cents";
    user.set_intended_summary(summary);
    return bank.client().submit_limited_transaction(summary, {}, cents,
                                                    limit);
  };

  // Three transfers fit under the cap; the over-limit, raised-limit and
  // rolled-back attempts must all fail.
  int accepted = 0;
  std::printf("limit initialized at 100.00 EUR (10000 cents)\n\n");
  accepted += report("transfer 40.00", spend(4000, 10000));
  accepted += report("transfer 40.00", spend(4000, 10000));
  accepted += report("transfer 40.00 (would exceed)", spend(4000, 10000));

  std::printf("\n-- malware tries to raise the limit to 1M EUR --\n");
  accepted +=
      report("transfer 40.00 (limit=1M in input)", spend(4000, 100000000));

  std::printf("\n-- malware rolls back the state file --\n");
  const Bytes current = bank.client().spending_state_blob();
  // Redo one small spend to advance the counter, then swap the old file.
  accepted += report("transfer 10.00", spend(1000, 10000));
  bank.client().set_spending_state_blob(current);
  accepted += report("transfer 10.00 (stale state)", spend(1000, 10000));

  std::printf(
      "\nThe cap binds regardless of what the compromised host rewrites:\n"
      "the limit lives in sealed state only the genuine PAL can open, and\n"
      "the TPM monotonic counter makes old state blobs detectably stale.\n");
  return accepted == 3 ? 0 : 1;
}
