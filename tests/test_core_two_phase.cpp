#include "core/two_phase.hpp"

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "net/topologies.hpp"

namespace amac::core {
namespace {

using TPM = TwoPhaseMessage;

TEST(TwoPhaseMessage, EncodeDecodePhase1) {
  const TPM m{TPM::Phase::kOne, 42, 1, {}};
  const auto back = TPM::decode(m.encode());
  EXPECT_EQ(back.phase, TPM::Phase::kOne);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.value, 1);
}

TEST(TwoPhaseMessage, EncodeDecodePhase2Statuses) {
  for (const auto status : {TPM::Status::kBivalent, TPM::Status::kDecided}) {
    const TPM m{TPM::Phase::kTwo, 7, 0, status};
    const auto back = TPM::decode(m.encode());
    EXPECT_EQ(back.phase, TPM::Phase::kTwo);
    EXPECT_EQ(back.id, 7u);
    EXPECT_EQ(back.status, status);
    if (status == TPM::Status::kDecided) {
      EXPECT_EQ(back.value, 0);
    }
  }
}

TEST(TwoPhaseMessage, BoundedSize) {
  // Message holds one id and O(1) bytes of control: the model's
  // constant-ids restriction.
  const TPM m{TPM::Phase::kTwo, (1ULL << 40), 1, TPM::Status::kDecided};
  EXPECT_LE(m.encode().size(), 10u);
}

// ---- end-to-end properties (Theorem 4.1) --------------------------------

struct CaseSpec {
  std::size_t n;
  mac::Time fack;
  std::uint64_t seed;
};

class TwoPhaseSweep : public ::testing::TestWithParam<CaseSpec> {};

TEST_P(TwoPhaseSweep, SolvesConsensusUnderRandomSchedulers) {
  const auto [n, fack, seed] = GetParam();
  const auto g = net::make_clique(n);
  util::Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inputs = harness::inputs_random(n, rng);
    mac::UniformRandomScheduler sched(fack, rng());
    const auto outcome = harness::run_consensus(
        g, harness::two_phase_factory(inputs), sched, inputs, 100 * fack);
    ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
    // Theorem 4.1 with its constant: every node's phase-1 ack lands by
    // F_ack and every phase-2 message (own or witnessed) by 2*F_ack.
    EXPECT_LE(outcome.verdict.last_decision, 2 * fack);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoPhaseSweep,
    ::testing::Values(CaseSpec{1, 4, 1}, CaseSpec{2, 1, 2}, CaseSpec{2, 8, 3},
                      CaseSpec{3, 5, 4}, CaseSpec{5, 3, 5}, CaseSpec{8, 16, 6},
                      CaseSpec{16, 2, 7}, CaseSpec{32, 7, 8},
                      CaseSpec{64, 4, 9}));

TEST(TwoPhase, AllSameInputDecidesThatValue) {
  for (const mac::Value v : {0, 1}) {
    const auto g = net::make_clique(6);
    const auto inputs = harness::inputs_all(6, v);
    mac::UniformRandomScheduler sched(5, 77);
    const auto outcome = harness::run_consensus(
        g, harness::two_phase_factory(inputs), sched, inputs, 1000);
    ASSERT_TRUE(outcome.verdict.ok());
    EXPECT_EQ(*outcome.verdict.decision, v);
  }
}

TEST(TwoPhase, SynchronousSchedulerAllDecidedStatus) {
  // Under lock-step rounds with uniform input, everyone sets decided status
  // and decides at the second ack (t = 2 rounds).
  const auto g = net::make_clique(4);
  const auto inputs = harness::inputs_all(4, 0);
  mac::SynchronousScheduler sched(3);
  const auto outcome = harness::run_consensus(
      g, harness::two_phase_factory(inputs), sched, inputs, 1000);
  ASSERT_TRUE(outcome.verdict.ok());
  EXPECT_EQ(outcome.verdict.last_decision, 6u);  // 2 rounds x 3 ticks
  EXPECT_EQ(*outcome.verdict.decision, 0);
}

TEST(TwoPhase, MixedInputsSynchronousDefaultsToOne) {
  // In lock-step, everyone sees the other value in phase 1 -> all bivalent
  // -> default decision 1.
  const auto g = net::make_clique(4);
  const auto inputs = harness::inputs_alternating(4);
  mac::SynchronousScheduler sched(1);
  const auto outcome = harness::run_consensus(
      g, harness::two_phase_factory(inputs), sched, inputs, 1000);
  ASSERT_TRUE(outcome.verdict.ok());
  EXPECT_EQ(*outcome.verdict.decision, 1);
}

TEST(TwoPhase, FastZeroNodeForcesZeroDecision) {
  // Node 0 (value 0) completes both phases before anyone else's phase-1
  // ack: it sets decided(0) and everyone else must follow to 0.
  const auto g = net::make_clique(3);
  const std::vector<mac::Value> inputs{0, 1, 1};
  mac::ScriptedScheduler sched;
  // Node 0: phase-1 acked at t=1 (everyone receives at 1), phase-2 at t=2.
  sched.script(0, 0, 1, {{1, 1}, {2, 1}});
  sched.script(0, 1, 1, {{1, 1}, {2, 1}});
  // Nodes 1,2: phase-1 delivered late (t=5), so node 0 never sees value 1
  // before its ack.
  sched.script(1, 0, 5, {{0, 5}, {2, 5}});
  sched.script(2, 0, 5, {{0, 5}, {1, 5}});
  const auto outcome = harness::run_consensus(
      g, harness::two_phase_factory(inputs), sched, inputs, 1000);
  ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
  EXPECT_EQ(*outcome.verdict.decision, 0);
}

TEST(TwoPhase, WitnessRulePreventsPrematureDefault) {
  // The Theorem 4.1 proof's "first case": v hears u before v's phase-2
  // completes, so u joins v's witness set and v must wait for u's phase-2
  // decided(0) before deciding — even though v's own phase-2 finished.
  const auto g = net::make_clique(2);
  const std::vector<mac::Value> inputs{0, 1};
  mac::ScriptedScheduler sched;
  // u=0: p1 acked t=2; v receives u.p1 at t=1. u.p2 broadcast t=2, v
  // receives it at t=10, ack t=10.
  sched.script(0, 0, 2, {{1, 1}});
  sched.script(0, 1, 8, {{1, 8}});
  // v=1: p1 delivered to u at t=3 (after u's ack at 2 -> u stays
  // decided(0)); v's p1 ack t=3. v.p2 at t=3, delivered u t=4, ack t=4.
  sched.script(1, 0, 3, {{0, 3}});
  sched.script(1, 1, 1, {{0, 1}});
  const auto outcome = harness::run_consensus(
      g, harness::two_phase_factory(inputs), sched, inputs, 1000);
  ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
  // v saw u's phase-1 value 0 -> bivalent; witness u forces the wait until
  // t=10, then v decides 0 to match u.
  EXPECT_EQ(*outcome.verdict.decision, 0);
  EXPECT_EQ(outcome.verdict.last_decision, 10u);
}

// The documented pseudocode imprecision: a decided(0) phase-2 message that
// arrives before the receiver's phase-1 ack lands only in R1; Algorithm 1's
// line 23 checks only R2 and decides 1 against u's 0. Our default checks
// R1 as well. This schedule exhibits the difference.
mac::ScriptedScheduler literal_r2_schedule() {
  mac::ScriptedScheduler sched;
  // u=0 fast: p1 ack t=1 (v receives at 1); p2 at t=1, v receives at t=2,
  // ack t=2.
  sched.script(0, 0, 1, {{1, 1}});
  sched.script(0, 1, 1, {{1, 1}});
  // v=1 slow: p1 ack at t=5 (u receives v.p1 at t=4, after u's t=1 ack).
  sched.script(1, 0, 5, {{0, 4}});
  sched.script(1, 1, 1, {{0, 1}});
  return sched;
}

TEST(TwoPhase, LiteralR2CheckViolatesAgreementOnCraftedSchedule) {
  const auto g = net::make_clique(2);
  const std::vector<mac::Value> inputs{0, 1};
  auto sched = literal_r2_schedule();
  const auto outcome = harness::run_consensus(
      g, harness::two_phase_factory(inputs, /*literal_r2_check=*/true), sched,
      inputs, 1000);
  EXPECT_TRUE(outcome.verdict.termination);
  EXPECT_FALSE(outcome.verdict.agreement)
      << "literal line-23 reading should disagree here: "
      << outcome.verdict.summary();
}

TEST(TwoPhase, FixedCheckAgreesOnCraftedSchedule) {
  const auto g = net::make_clique(2);
  const std::vector<mac::Value> inputs{0, 1};
  auto sched = literal_r2_schedule();
  const auto outcome = harness::run_consensus(
      g, harness::two_phase_factory(inputs, /*literal_r2_check=*/false),
      sched, inputs, 1000);
  ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
  EXPECT_EQ(*outcome.verdict.decision, 0);
}

TEST(TwoPhase, DecisionTimeIndependentOfN) {
  // Theorem 4.1's point: O(F_ack), NOT O(n). Time must not grow with n.
  mac::Time t_small = 0;
  mac::Time t_large = 0;
  for (const std::size_t n : {4u, 64u}) {
    const auto g = net::make_clique(n);
    const auto inputs = harness::inputs_alternating(n);
    mac::SynchronousScheduler sched(6);
    const auto outcome = harness::run_consensus(
        g, harness::two_phase_factory(inputs), sched, inputs, 10000);
    ASSERT_TRUE(outcome.verdict.ok());
    (n == 4 ? t_small : t_large) = outcome.verdict.last_decision;
  }
  EXPECT_EQ(t_small, t_large);
}

TEST(TwoPhase, StatusObservable) {
  const auto g = net::make_clique(2);
  const auto inputs = harness::inputs_all(2, 1);
  mac::SynchronousScheduler sched(1);
  mac::Network net(g, harness::two_phase_factory(inputs), sched);
  net.run(mac::StopWhen::kAllDecided, 100);
  for (NodeId u = 0; u < 2; ++u) {
    const auto* p = dynamic_cast<const TwoPhaseConsensus*>(&net.process(u));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->status(), TPM::Status::kDecided);
  }
}

}  // namespace
}  // namespace amac::core
