// Ablation A1: batch confirmation -- machine cost per transaction vs
// batch size.
//
// Design question: the per-transaction machine cost of the trusted path
// is dominated by the fixed session overhead (suspend + SKINIT + Unseal).
// Confirming N transactions in one session pays that overhead once and
// adds only one signature per extra transaction. This harness quantifies
// the amortization on every chip, plus the user-side effect (one code
// entry instead of N).
#include <cstdio>
#include <vector>

#include "core/trusted_path_pal.h"
#include "devices/human.h"
#include "pal/human_agent.h"
#include "sp/deployment.h"
#include "tpm/chip_profile.h"

using namespace tp;

namespace {

struct Point {
  double machine_ms_per_tx;
  double user_ms_per_tx;
  bool all_accepted;
};

Point run_batch(const std::string& chip, std::size_t batch_size) {
  sp::DeploymentConfig cfg;
  cfg.client_id = "bench";
  cfg.chip_name = chip;
  cfg.seed = bytes_of("a1:" + chip + std::to_string(batch_size));
  cfg.tpm_key_bits = 1024;
  cfg.client_key_bits = 1024;
  sp::Deployment world(cfg);

  std::vector<core::TrustedPathClient::BatchTx> txs;
  std::vector<core::BatchItem> preview;
  for (std::size_t i = 0; i < batch_size; ++i) {
    const std::string summary = "pay " + std::to_string(i + 1) + " EUR";
    txs.emplace_back(summary, Bytes(256, 0x33));
    preview.push_back(core::BatchItem{summary, {}, {}});
  }

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(4)),
                        core::batch_summary(preview));
  world.client().set_user_agent(&agent);
  if (!world.client().enroll().ok()) std::abort();

  auto outcome = world.client().submit_batch(txs);
  if (!outcome.ok()) std::abort();
  const auto& t = outcome.value().timing;
  return Point{
      t.machine().to_millis() / static_cast<double>(batch_size),
      t.user.to_millis() / static_cast<double>(batch_size),
      outcome.value().accepted_count() == batch_size,
  };
}

}  // namespace

int main() {
  std::printf("=== A1 (ablation): batch confirmation amortization ===\n");
  std::printf("(virtual ms PER TRANSACTION; one session per batch)\n\n");

  const std::size_t sizes[] = {1, 2, 4, 8, 16};
  for (const auto& chip : tpm::standard_chips()) {
    std::printf("--- %s ---\n", chip.name.c_str());
    std::printf("%10s  %14s  %14s\n", "batch", "machine/tx", "human/tx");
    for (std::size_t size : sizes) {
      const Point p = run_batch(chip.name, size);
      if (!p.all_accepted) std::abort();
      std::printf("%10zu  %14.1f  %14.1f\n", size, p.machine_ms_per_tx,
                  p.user_ms_per_tx);
    }
    std::printf("\n");
  }

  std::printf(
      "Shape check: per-transaction machine cost falls roughly as 1/N\n"
      "(the session overhead amortizes; only the per-item signature\n"
      "remains), and the user's one code entry amortizes the same way --\n"
      "batching is how a deployment makes heavy-TPM chips practical.\n");
  return 0;
}
