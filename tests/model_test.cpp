// Model-checker suite (`ctest -L model`): exhaustive bounded-depth
// exploration of the protocol core under a Dolev-Yao attacker.
//
// The explorer drives the SAME pure decision functions the deployed
// ServiceProvider and client execute (proto/sp_core.h,
// proto/client_core.h) against a symbolic world where the network is
// the attacker. The suite asserts four things:
//   - the clean protocol is safe on EVERY interleaving the bounds
//     reach (exactly-once, no forged confirm, no unattested enroll);
//   - each defence layer failing ALONE is still safe -- the one-shot
//     challenge and the signature replay cache each cover for the
//     other (defence in depth, proved rather than asserted);
//   - seeded bugs are found, with minimal counterexample traces;
//   - a counterexample projects onto a net::FaultScript and replays
//     against the real client/SP/link stack, which (unbugged) absorbs
//     the attack -- closing the loop between model and implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>

#include "model/checker.h"
#include "model/trace.h"
#include "net/fault.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "sp/service_provider.h"

namespace tp {
namespace {

using model::ActionKind;
using model::CheckerConfig;
using model::CheckResult;
using model::Invariant;

std::string first_trace(const CheckResult& result) {
  if (result.violations.empty()) return "(no violations)";
  return std::string(model::invariant_name(result.violations.front().invariant)) +
         " violated by:\n" +
         model::format_trace(result.violations.front().trace);
}

// ------------------------------------------------------------ clean model

TEST(ModelChecker, CleanProtocolSafeOnEveryInterleaving) {
  CheckerConfig cfg;
  cfg.max_depth = 24;
  cfg.max_states = 0;  // the space to depth 24 is ~116k states: take it all
  const CheckResult result = model::check(cfg);
  EXPECT_TRUE(result.violations.empty()) << first_trace(result);
  // The acceptance bar for the exploration itself: deep enough to cover
  // a full enrollment plus a full confirmation plus attacker moves, and
  // broad enough that the dedup is doing real work. EVERY state within
  // the depth bound is visited (frontier exhausted), so this is a proof
  // up to depth 24, not a sample.
  EXPECT_TRUE(result.frontier_exhausted);
  EXPECT_GE(result.max_depth_reached, 10);
  EXPECT_GE(result.states, 100000u);
  std::cout << "[model] states=" << result.states
            << " transitions=" << result.transitions
            << " depth=" << result.max_depth_reached
            << " exhaustive=" << (result.frontier_exhausted ? "yes" : "no")
            << " fingerprint=0x" << std::hex << result.fingerprint << std::dec
            << std::endl;
}

TEST(ModelChecker, ExplorationIsDeterministic) {
  CheckerConfig cfg;
  cfg.max_depth = 9;
  cfg.max_states = 0;  // small enough depth to run unbounded
  const CheckResult a = model::check(cfg);
  const CheckResult b = model::check(cfg);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.max_depth_reached, b.max_depth_reached);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

// -------------------------------------------------------- defence in depth

TEST(ModelChecker, OneShotChallengeAloneStopsReplay) {
  // Replay cache disabled: the one-shot session (a challenge leaves
  // kChallengeSent on settle) must still make double-settlement
  // unreachable on every interleaving.
  CheckerConfig cfg;
  cfg.max_depth = 16;
  cfg.max_states = 0;
  cfg.bugs.skip_replay_screen = true;
  const CheckResult result = model::check(cfg);
  EXPECT_TRUE(result.violations.empty()) << first_trace(result);
  EXPECT_TRUE(result.frontier_exhausted);
  EXPECT_GE(result.max_depth_reached, 11);
}

TEST(ModelChecker, ReplayCacheAloneStopsReplay) {
  // Settle's state write dropped (sessions never leave kChallengeSent):
  // the signature replay cache must still refuse the second settlement.
  CheckerConfig cfg;
  cfg.max_depth = 16;
  cfg.max_states = 0;
  cfg.bugs.drop_settle_apply = true;
  const CheckResult result = model::check(cfg);
  EXPECT_TRUE(result.violations.empty()) << first_trace(result);
  EXPECT_TRUE(result.frontier_exhausted);
  EXPECT_GE(result.max_depth_reached, 11);
}

// ------------------------------------------------------------- seeded bugs

TEST(ModelChecker, SkippedVerificationFoundWithMinimalTrace) {
  // Crypto port rubber-stamps everything: the attacker enrolls with
  // garbage evidence. BFS guarantees the counterexample is minimal --
  // craft nothing but one begin and one garbage complete.
  CheckerConfig cfg;
  cfg.max_depth = 6;
  cfg.max_states = 200000;
  cfg.bugs.skip_crypto_verify = true;
  const CheckResult result = model::check(cfg);
  ASSERT_FALSE(result.violations.empty());
  const model::Violation& v = result.violations.front();
  EXPECT_EQ(v.invariant, Invariant::kNoUnattestedEnroll);
  ASSERT_EQ(v.trace.size(), 2u) << model::format_trace(v.trace);
  EXPECT_EQ(v.trace[0].kind, ActionKind::kDeliverToSp);
  EXPECT_EQ(v.trace[0].frame, model::kFrameEnrollBegin);
  EXPECT_EQ(v.trace[1].kind, ActionKind::kDeliverToSp);
  EXPECT_EQ(v.trace[1].frame, model::kFrameEnrollCompleteGarbage);
  std::cout << "[model] skip-verify counterexample:\n"
            << model::format_trace(v.trace);
}

TEST(ModelChecker, DoubleSettleNeedsBothLayersDown) {
  // Both layers off at once -- the state write dropped AND the replay
  // cache skipped -- and the duplicated confirm settles twice. The
  // minimal trace is the full honest handshake (9 steps) plus the
  // confirm delivered twice.
  CheckerConfig cfg;
  cfg.max_depth = 12;
  cfg.max_states = 600000;
  cfg.bugs.drop_settle_apply = true;
  cfg.bugs.skip_replay_screen = true;
  const CheckResult result = model::check(cfg);
  ASSERT_FALSE(result.violations.empty());
  const model::Violation& v = result.violations.front();
  EXPECT_EQ(v.invariant, Invariant::kTxExactlyOnce) << first_trace(result);
  ASSERT_EQ(v.trace.size(), 11u) << model::format_trace(v.trace);
  // The last two moves deliver the same TxConfirm frame twice.
  const model::Action& last = v.trace.back();
  const model::Action& prev = v.trace[v.trace.size() - 2];
  EXPECT_EQ(last.kind, ActionKind::kDeliverToSp);
  EXPECT_EQ(prev.kind, ActionKind::kDeliverToSp);
  EXPECT_EQ(last.frame, prev.frame);
  EXPECT_EQ(model::canonical_send_index(last.frame), 6);
  std::cout << "[model] double-settle counterexample:\n"
            << model::format_trace(v.trace);
}

// ------------------------------------------------- replay on the real stack

devices::HumanParams perfect_human() {
  devices::HumanParams p;
  p.typo_prob = 0.0;
  p.attention = 1.0;
  return p;
}

TEST(ModelChecker, CounterexampleReplaysAgainstRealStack) {
  // Project the double-settle counterexample onto a deterministic fault
  // script and replay it through the real client/SP/link. The deployed
  // stack has both layers intact, so the attack must be absorbed: the
  // duplicate is answered from the response cache and the accept is
  // counted exactly once.
  CheckerConfig cfg;
  cfg.max_depth = 12;
  cfg.max_states = 600000;
  cfg.bugs.drop_settle_apply = true;
  cfg.bugs.skip_replay_screen = true;
  const CheckResult result = model::check(cfg);
  ASSERT_FALSE(result.violations.empty());

  const model::FaultScriptMapping mapping =
      model::trace_to_fault_script(result.violations.front().trace);
  EXPECT_TRUE(mapping.exact);
  ASSERT_EQ(mapping.script.forced.size(), 1u);
  EXPECT_EQ(mapping.script.forced[0].send_index, 6u);  // the TxConfirm send
  EXPECT_EQ(mapping.script.forced[0].kind,
            static_cast<std::uint8_t>(net::FaultKind::kDuplicate));

  sp::FleetConfig world_cfg;
  world_cfg.client_id = "model-replay";
  world_cfg.seed = bytes_of("model-replay");
  world_cfg.tpm_key_bits = 768;
  world_cfg.client_key_bits = 768;
  world_cfg.net.fault.script = mapping.script;
  sp::Fleet world(world_cfg);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(21)), "");
  world.client().set_user_agent(&agent);

  ASSERT_TRUE(world.client().enroll().ok());
  const std::string summary = "pay 42 EUR";
  agent.set_intended_summary(summary);
  auto outcome = world.client().submit_transaction(summary, bytes_of("body"));
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_TRUE(outcome.value().accepted);
  // The scripted duplicate fired.
  EXPECT_EQ(world.link().faults()->injected(net::FaultKind::kDuplicate), 1u);
  EXPECT_EQ(world.sp().stats().tx_accepted, 1u);
  // A second transaction advances virtual time past the duplicate's
  // delivery, forcing the SP to face the replayed confirm -- which the
  // terminal-hold response cache answers without settling again.
  agent.set_intended_summary("pay 7 EUR");
  auto second = world.client().submit_transaction("pay 7 EUR", bytes_of("b2"));
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_TRUE(second.value().accepted);
  EXPECT_EQ(world.sp().stats().tx_accepted, 2u);
  EXPECT_GE(world.sp().replayed_results(), 1u);
}

}  // namespace
}  // namespace tp
