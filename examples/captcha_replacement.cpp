// Captcha replacement: the paper's "immediate value" argument, live.
//
// A service wants proof that requests come from a human. It can deploy
// captchas -- and lose the arms race against solving services -- or
// require one trusted-path confirmation. This example pits both defences
// against the same bot fleet and the same (simulated) human population
// and prints the operator's dashboard.
#include <cstdio>

#include "captcha/captcha.h"
#include "host/adversary.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"

using namespace tp;

namespace {

constexpr int kBots = 200;
constexpr int kHumans = 200;

struct Dashboard {
  int humans_served = 0;
  int bots_blocked = 0;
  int bots_admitted = 0;
};

Dashboard run_captcha_defence(double distortion, double bot_strength) {
  Dashboard board;
  captcha::CaptchaService service(bytes_of("signup"));
  captcha::OcrAttacker bot(bot_strength, SimRng(7));
  devices::HumanParams hp;
  SimRng human_rng(13);

  for (int i = 0; i < kBots; ++i) {
    const auto challenge = service.issue(distortion);
    if (service.verify(challenge.id, bot.attempt(challenge)).ok()) {
      ++board.bots_admitted;
    } else {
      ++board.bots_blocked;
    }
  }
  const double p = captcha::human_solve_prob(hp.captcha_solve_prob,
                                             distortion);
  for (int i = 0; i < kHumans; ++i) {
    if (human_rng.chance(p)) ++board.humans_served;
  }
  return board;
}

Dashboard run_trusted_path_defence() {
  Dashboard board;

  sp::FleetConfig config;
  config.client_id = "visitor";
  config.seed = bytes_of("captcha-replacement");
  config.tpm_key_bits = 768;
  config.client_key_bits = 768;
  sp::Fleet world(config);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent visitor(devices::HumanModel(hp, SimRng(3)), "");
  world.client().set_user_agent(&visitor);
  if (!world.client().enroll().ok()) std::abort();

  // Humans: each request is a trusted-path confirmation.
  for (int i = 0; i < kHumans; ++i) {
    const std::string action = "signup request #" + std::to_string(i);
    visitor.set_intended_summary(action);
    auto outcome = world.client().submit_transaction(action, {});
    if (outcome.ok() && outcome.value().accepted) ++board.humans_served;
  }

  // Bots: the full malware kit, no human at the machine.
  host::MalwareKit bot(world.platform(), world.endpoint(), "visitor",
                       world.client().sealed_key_blob(), SimRng(99));
  for (int i = 0; i < kBots / 4; ++i) {
    const std::string action = "bot signup #" + std::to_string(i);
    for (const auto& outcome :
         {bot.forge_signature(action, {}),
          bot.confirm_without_signature(action, {}),
          bot.inject_keystrokes(action, {}),
          bot.run_tampered_pal(action, {})}) {
      if (outcome.sp_accepted) {
        ++board.bots_admitted;
      } else {
        ++board.bots_blocked;
      }
    }
  }
  return board;
}

void print(const char* label, const Dashboard& board) {
  std::printf("%-34s  humans served %3d/%d   bots blocked %3d/%d (%d got in)\n",
              label, board.humans_served, kHumans, board.bots_blocked,
              kBots, board.bots_admitted);
}

}  // namespace

int main() {
  std::printf("=== defending a signup endpoint: captcha vs trusted path ===\n\n");
  std::printf("bot fleet: OCR strength 0.9 (outsourced human solving)\n\n");

  print("captcha, mild distortion (0.2)", run_captcha_defence(0.2, 0.9));
  print("captcha, heavy distortion (0.8)", run_captcha_defence(0.8, 0.9));
  const Dashboard tp_board = run_trusted_path_defence();
  print("trusted path", tp_board);

  std::printf(
      "\nThe captcha operator must choose between admitting bots and\n"
      "locking out humans; the trusted path serves every human and\n"
      "admits zero bots, at a human cost comparable to one easy captcha\n"
      "(see bench_human_cost for the F4 numbers).\n");
  return tp_board.bots_admitted == 0 ? 0 : 1;
}
