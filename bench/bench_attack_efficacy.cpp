// Experiment F2: forged-transaction acceptance rate by defence.
//
// The paper's security headline, quantified: a transaction-generator
// adversary of sweeping strength attacks a service protected by
//   (a) nothing,
//   (b) captchas (at two distortion levels), and
//   (c) the uni-directional trusted path.
// Acceptance of a FORGED transaction = attacker win. For the trusted
// path, every mechanical strategy in the malware kit is run; the one
// human-dependent strategy (transaction substitution) is reported
// separately as the documented residual, swept over user attention.
// The symbolic renditions of the network-level strategies
// (host/adversary.h) run alongside as a cross-check: the model checker's
// core must defeat exactly what the real stack defeats.
//
// --json=PATH     also emit the table as JSON for the experiment suite
#include <cstdio>
#include <string>
#include <vector>

#include "captcha/captcha.h"
#include "host/adversary.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "sp_frames.h"

using namespace tp;

namespace {

constexpr int kTrials = 300;

// (a) No defence: an SP in pre-trusted-path mode executes any
// well-formed request the malware sends.
double no_defense_rate(std::uint64_t seed) {
  sp::SpConfig cfg;
  cfg.golden_pcr17 = core::golden_pcr17();
  cfg.ca_public = crypto::RsaPublicKey{crypto::BigInt(3), crypto::BigInt(3)};
  cfg.require_trusted_path = false;
  sp::ServiceProvider sp(cfg);
  SimRng rng(seed);
  int wins = 0;
  for (int i = 0; i < kTrials; ++i) {
    const core::TxSubmit submit{"victim", "forged #" + std::to_string(i),
                                rng.next_bytes(32)};
    const auto challenge = test::begin_transaction(sp, submit);
    core::TxConfirm confirm;
    confirm.client_id = "victim";
    confirm.tx_id = challenge.tx_id;
    confirm.verdict = core::Verdict::kConfirmed;
    confirm.signature = rng.next_bytes(64);  // garbage; nobody checks
    if (test::complete_transaction(sp, confirm).accepted) ++wins;
  }
  return static_cast<double>(wins) / kTrials;
}

// (b) Captcha: the bot wins iff it solves the captcha.
double captcha_rate(double attacker_strength, double distortion,
                    std::uint64_t seed) {
  captcha::CaptchaService service(bytes_of("f2"));
  captcha::OcrAttacker attacker(attacker_strength, SimRng(seed));
  int wins = 0;
  for (int i = 0; i < kTrials; ++i) {
    const auto challenge = service.issue(distortion);
    if (service.verify(challenge.id, attacker.attempt(challenge)).ok()) {
      ++wins;
    }
  }
  return static_cast<double>(wins) / kTrials;
}

// (c) Trusted path, mechanical attacks (no human involvement).
double trusted_path_rate(std::uint64_t seed) {
  sp::FleetConfig cfg;
  cfg.client_id = "victim";
  cfg.seed = bytes_of("f2-tp:" + std::to_string(seed));
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent benign(devices::HumanModel(hp, SimRng(seed)), "");
  world.client().set_user_agent(&benign);
  if (!world.client().enroll().ok()) std::abort();

  host::MalwareKit malware(world.platform(), world.endpoint(),
                           "victim", world.client().sealed_key_blob(),
                           SimRng(seed * 31 + 7));
  int wins = 0, attempts = 0;
  for (int i = 0; i < kTrials / 4; ++i) {
    const std::string tx = "forged payment #" + std::to_string(i);
    const Bytes payload = bytes_of("forged");
    if (malware.forge_signature(tx, payload).sp_accepted) ++wins;
    if (malware.confirm_without_signature(tx, payload).sp_accepted) ++wins;
    if (malware.inject_keystrokes(tx, payload).sp_accepted) ++wins;
    if (malware.run_tampered_pal(tx, payload).sp_accepted) ++wins;
    attempts += 4;
  }
  return static_cast<double>(wins) / attempts;
}

// (c') Trusted path residual: transaction substitution vs user attention.
double substitution_rate(double attention, std::uint64_t seed) {
  sp::FleetConfig cfg;
  cfg.client_id = "victim";
  cfg.seed = bytes_of("f2-sub:" + std::to_string(seed));
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent benign(devices::HumanModel(hp, SimRng(seed)), "");
  world.client().set_user_agent(&benign);
  if (!world.client().enroll().ok()) std::abort();

  host::MalwareKit malware(world.platform(), world.endpoint(),
                           "victim", world.client().sealed_key_blob(),
                           SimRng(seed * 131 + 5));
  devices::HumanParams victim_params;
  victim_params.typo_prob = 0.0;
  victim_params.attention = attention;
  int wins = 0;
  const int kSubTrials = 60;
  for (int i = 0; i < kSubTrials; ++i) {
    pal::HumanAgent victim(
        devices::HumanModel(victim_params, SimRng(seed + i)),
        "pay 10 EUR to bob");
    if (malware
            .substitute_transaction(victim, "pay 9999 to mallory",
                                    bytes_of("f"))
            .sp_accepted) {
      ++wins;
    }
  }
  return static_cast<double>(wins) / kSubTrials;
}

/// The same mechanical strategies against the SYMBOLIC protocol core:
/// every model::Action script must come back not-accepted on the sound
/// core, in lockstep with the real-stack rows above.
double model_rate() {
  int wins = 0;
  for (std::size_t i = 0; i < host::kAttackStrategyCount; ++i) {
    const auto strategy = static_cast<host::AttackStrategy>(i);
    if (host::run_attack_in_model(strategy).sp_accepted) ++wins;
  }
  return static_cast<double>(wins) / host::kAttackStrategyCount;
}

struct DefenceRow {
  std::string label;
  double rates[3] = {0, 0, 0};
};

void write_json(const std::string& path,
                const std::vector<DefenceRow>& defences,
                const std::vector<std::pair<double, double>>& residual) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"F2\",\n  \"defences\": [\n");
  for (std::size_t i = 0; i < defences.size(); ++i) {
    const DefenceRow& d = defences[i];
    std::fprintf(f,
                 "    {\"defence\": \"%s\", \"weak\": %.3f, \"strong\": %.3f, "
                 "\"outsourced\": %.3f}%s\n",
                 d.label.c_str(), d.rates[0], d.rates[1], d.rates[2],
                 i + 1 < defences.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"substitution_residual\": [\n");
  for (std::size_t i = 0; i < residual.size(); ++i) {
    std::fprintf(f, "    {\"attention\": %.1f, \"acceptance\": %.3f}%s\n",
                 residual[i].first, residual[i].second,
                 i + 1 < residual.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  std::printf("=== F2: forged-transaction acceptance rate by defence ===\n\n");

  std::printf("%-26s  %10s  %10s  %10s\n", "defence", "weak bot",
              "strong bot", "outsourced");
  const double strengths[] = {0.30, 0.65, 0.95};
  std::vector<DefenceRow> defences;

  DefenceRow none{"none", {}};
  for (std::size_t i = 0; i < 3; ++i) none.rates[i] = no_defense_rate(20 + i);
  defences.push_back(none);

  for (double distortion : {0.3, 0.7}) {
    char label[64];
    std::snprintf(label, sizeof label, "captcha (distortion %.1f)",
                  distortion);
    DefenceRow row{label, {}};
    for (std::size_t i = 0; i < 3; ++i) {
      row.rates[i] = captcha_rate(strengths[i], distortion, 40 + i);
    }
    defences.push_back(row);
  }

  DefenceRow tp{"trusted path (mechanical)", {}};
  for (std::size_t i = 0; i < 3; ++i) tp.rates[i] = trusted_path_rate(70 + i);
  defences.push_back(tp);

  // Attacker strength has no symbolic rendition -- the Dolev-Yao
  // attacker is already maximal -- so the model row is flat.
  DefenceRow model_row{"trusted path (model)", {}};
  const double symbolic = model_rate();
  for (std::size_t i = 0; i < 3; ++i) model_row.rates[i] = symbolic;
  defences.push_back(model_row);

  for (const DefenceRow& row : defences) {
    std::printf("%-26s", row.label.c_str());
    for (std::size_t i = 0; i < 3; ++i) std::printf("  %10.3f", row.rates[i]);
    std::printf("\n");
  }

  std::printf("\n--- trusted-path residual: substitution vs user attention ---\n");
  std::printf("%-26s  %10s\n", "user attention", "acceptance");
  std::vector<std::pair<double, double>> residual;
  for (double attention : {0.0, 0.5, 0.9, 1.0}) {
    residual.emplace_back(attention, substitution_rate(attention, 90));
    std::printf("%-26.1f  %10.3f\n", attention, residual.back().second);
  }

  if (!json_path.empty()) {
    write_json(json_path, defences, residual);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf(
      "\nShape check: captchas degrade from ~blocking weak OCR to useless\n"
      "against outsourced solving; the trusted path holds at 0.000 against\n"
      "every mechanical attacker regardless of strength. The only residual\n"
      "is the human who does not read the trusted screen.\n");
  return 0;
}
