// The adversarial fault family (DESIGN.md §13): equivocation, withholding
// and eclipse plans; the peer-misbehavior scorer; safety-aware oracle
// verdicts; and the ISSUE acceptance property — an equivocation schedule
// with defenses off forks a content-blind chain (deterministic, shrinkable,
// byte-stable repro), and the same schedule with the scorer enabled is
// contained to at-worst a liveness loss.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chain/node.hpp"
#include "core/chaos.hpp"
#include "core/experiment.hpp"
#include "core/fault.hpp"
#include "core/misbehavior.hpp"
#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------ plan canonical/JSON

/// A plan of the given type with EVERY knob moved off its default, so
/// canonical() has dead fields to reset on each type.
FaultPlan noisy_plan(FaultType type) {
  FaultPlan plan;
  plan.type = type;
  plan.targets = {3, 1};  // unsorted on purpose
  plan.inject_at = sim::sec(41);
  plan.recover_at = sim::sec(97);
  plan.params.delay_amount = sim::sec(7);
  plan.params.churn_down = sim::sec(4);
  plan.params.churn_up = sim::sec(6);
  plan.params.loss_probability = 0.37;
  plan.params.throttle_bytes_per_s = 12345.0;
  plan.params.gray_latency = sim::sec(3);
  plan.params.eclipse_victim = 0;
  plan.params.eclipse_delay = sim::ms(250);
  plan.params.eclipse_filter = 0.33;
  return plan;
}

std::string plan_json(const FaultPlan& plan) {
  FaultSchedule schedule;
  schedule.add(plan);
  return schedule_to_json(schedule);
}

TEST(AdversarialFaultPlans, CanonicalIsIdempotentForEveryType) {
  for (const FaultType type : kAllFaultTypes) {
    const FaultPlan once = canonical(noisy_plan(type));
    const FaultPlan twice = canonical(once);
    EXPECT_EQ(plan_json(twice), plan_json(once))
        << "canonical not idempotent for " << to_string(type);
  }
}

TEST(AdversarialFaultPlans, ScheduleJsonRoundTripsByteStablyForEveryType) {
  for (const FaultType type : kAllFaultTypes) {
    const std::string json = plan_json(noisy_plan(type));
    FaultSchedule parsed;
    ASSERT_NO_THROW(parsed = schedule_from_json(json))
        << to_string(type) << ": " << json;
    EXPECT_EQ(schedule_to_json(parsed), json)
        << "round trip not byte-stable for " << to_string(type);
  }
}

TEST(AdversarialFaultPlans, CanonicalResetsDeadEclipseKnobsOffEclipse) {
  // The eclipse knobs are dead fields on every other type: two loss plans
  // differing only in eclipse knobs must serialize identically.
  FaultPlan a = noisy_plan(FaultType::kLoss);
  FaultPlan b = a;
  b.params.eclipse_victim = 7;
  b.params.eclipse_delay = sim::sec(9);
  b.params.eclipse_filter = 0.77;
  EXPECT_EQ(plan_json(canonical(a)), plan_json(canonical(b)));
}

// ----------------------------------------- schedule arming (satellite 1)

class NullNode final : public chain::BlockchainNode {
 public:
  using BlockchainNode::BlockchainNode;

 protected:
  void start_protocol() override {}
  void on_app_message(const net::Envelope&) override {}
  void accept_transaction(const chain::Transaction&) override {}
};

TEST(AdversarialFaultPlans, ArmingSchedulesNamesTheOffendingPlan) {
  sim::Simulation simulation(3);
  net::Network network(simulation, net::LatencyConfig{});
  std::vector<std::unique_ptr<NullNode>> nodes;
  std::vector<chain::BlockchainNode*> pointers;
  for (net::NodeId id = 0; id < 4; ++id) {
    chain::NodeConfig config;
    config.id = id;
    config.n = 4;
    config.network_seed = 1;
    nodes.push_back(std::make_unique<NullNode>(simulation, network, config));
    pointers.push_back(nodes.back().get());
  }
  Observers observers(simulation, network, pointers);

  FaultPlan good;
  good.type = FaultType::kCrash;
  good.targets = {1};
  FaultPlan bad;  // eclipse victim must not itself be an attacker target
  bad.type = FaultType::kEclipse;
  bad.targets = {2};
  bad.params.eclipse_victim = 2;

  FaultSchedule schedule;
  schedule.add(good).add(bad);
  std::string error;
  try {
    observers.arm(schedule);
  } catch (const std::invalid_argument& exception) {
    error = exception.what();
  }
  EXPECT_NE(error.find("plan 1 of 2"), std::string::npos) << error;
  EXPECT_NE(error.find("victim"), std::string::npos) << error;
}

// --------------------------------------------------- misbehavior scorer

TEST(MisbehaviorScorer, DisabledScorerNeverRecordsOrDrops) {
  MisbehaviorScorer scorer;  // default config: disabled
  scorer.report(3, Offense::kEquivocation, sim::sec(1));
  EXPECT_EQ(scorer.reports(), 0u);
  EXPECT_EQ(scorer.score(3, sim::sec(2)), 0.0);
  EXPECT_FALSE(scorer.should_drop(3, sim::sec(2)));
}

TEST(MisbehaviorScorer, ThrottleDropsEveryOtherMessage) {
  MisbehaviorConfig config;
  config.enabled = true;
  MisbehaviorScorer scorer(config);
  // Two equivocations = score 20, above throttle (15), below ban (30).
  scorer.report(5, Offense::kEquivocation, sim::sec(1));
  scorer.report(5, Offense::kEquivocation, sim::sec(1));
  EXPECT_FALSE(scorer.banned(5));
  int dropped = 0;
  for (int i = 0; i < 10; ++i) {
    if (scorer.should_drop(5, sim::sec(2))) ++dropped;
  }
  EXPECT_EQ(dropped, 5);
  // An unoffending peer is untouched.
  EXPECT_FALSE(scorer.should_drop(6, sim::sec(2)));
}

TEST(MisbehaviorScorer, BanIsStickyAcrossDecay) {
  MisbehaviorConfig config;
  config.enabled = true;
  MisbehaviorScorer scorer(config);
  for (int i = 0; i < 3; ++i) {
    scorer.report(7, Offense::kEquivocation, sim::sec(1));
  }
  EXPECT_TRUE(scorer.banned(7));
  // Long after the score would have decayed to zero, the ban holds.
  EXPECT_TRUE(scorer.should_drop(7, sim::sec(100000)));
  EXPECT_TRUE(scorer.should_drop(7, sim::sec(100001)));
}

TEST(MisbehaviorScorer, ScoresDecayLinearly) {
  MisbehaviorConfig config;
  config.enabled = true;
  MisbehaviorScorer scorer(config);
  scorer.report(2, Offense::kEquivocation, sim::sec(0));  // score 10
  EXPECT_DOUBLE_EQ(scorer.score(2, sim::sec(0)), 10.0);
  // decay_per_s = 0.1: 50 s later the score has shed 5 points.
  EXPECT_DOUBLE_EQ(scorer.score(2, sim::sec(50)), 5.0);
  EXPECT_DOUBLE_EQ(scorer.score(2, sim::sec(1000)), 0.0);
}

// -------------------------------------------- adversarial chaos sampling

TEST(AdversarialChaos, AdversarialGenSamplesTheByzantineFamily) {
  const ChaosGenConfig gen = adversarial_gen_for(sim::sec(120));
  bool adversarial_seen = false;
  sim::Rng rng(2024);
  for (int trial = 0; trial < 40 && !adversarial_seen; ++trial) {
    const FaultSchedule schedule = generate_schedule(rng, gen);
    for (const FaultPlan& plan : schedule.plans) {
      EXPECT_EQ(validate(plan, gen.n), "");
      if (is_adversarial(plan.type)) adversarial_seen = true;
    }
  }
  EXPECT_TRUE(adversarial_seen)
      << "40 adversarial-gen schedules produced no adversarial plan";
}

TEST(AdversarialChaos, DefaultGenStaysByteIdenticalWithoutOptIn) {
  // Opt-in discipline: the default generator must not sample the new
  // types, so pre-existing campaign outputs are unchanged.
  const ChaosGenConfig gen = default_gen_for(sim::sec(120));
  for (const FaultType type : gen.types) {
    EXPECT_FALSE(is_adversarial(type)) << to_string(type);
  }
  sim::Rng a(7);
  sim::Rng b(7);
  EXPECT_EQ(schedule_to_json(generate_schedule(a, gen)),
            schedule_to_json(generate_schedule(b, default_gen_for(sim::sec(120)))));
}

TEST(AdversarialChaos, EclipsePlansRoundTripThroughRepros) {
  const ChaosGenConfig gen = adversarial_gen_for(sim::sec(120));
  sim::Rng rng(99);
  bool eclipse_seen = false;
  for (int trial = 0; trial < 200 && !eclipse_seen; ++trial) {
    const FaultSchedule schedule = generate_schedule(rng, gen);
    for (const FaultPlan& plan : schedule.plans) {
      if (plan.type == FaultType::kEclipse) eclipse_seen = true;
    }
    const std::string json = schedule_to_json(schedule);
    EXPECT_EQ(schedule_to_json(schedule_from_json(json)), json);
  }
  EXPECT_TRUE(eclipse_seen);
}

// ------------------------------------------------------ acceptance runs

ExperimentConfig adversarial_config(ChainKind chain, FaultType fault) {
  ExperimentConfig config;
  config.chain = chain;
  config.fault = fault;
  config.duration = sim::sec(120);
  config.inject_at = sim::sec(40);
  config.recover_at = sim::sec(80);
  config.capture_replicas = true;
  return config;
}

OracleReport audit(const ExperimentConfig& config) {
  return check_invariants(make_oracle_context(config),
                          run_experiment(config));
}

// The tentpole acceptance property, first half: a coalition of t
// equivocating replicas forks Solana's content-blind per-slot voting when
// no defense is armed — a deterministic *safety* violation between honest
// replicas, not merely a liveness dip.
TEST(AdversarialAcceptance, EquivocationForksSolanaWithoutDefenses) {
  const ExperimentConfig config =
      adversarial_config(ChainKind::kSolana, FaultType::kEquivocate);
  const OracleReport report = audit(config);
  const OracleFinding* fork = report.safety_violation();
  ASSERT_NE(fork, nullptr) << report.summary();
  EXPECT_EQ(fork->cls, OracleClass::kSafety);

  // Deterministic: the same config audits to the identical summary, and
  // the armed schedule serializes to the identical repro bytes.
  EXPECT_EQ(audit(config).summary(), report.summary());
  const std::string repro = schedule_to_json(resolved_schedule(config));
  EXPECT_EQ(schedule_to_json(resolved_schedule(config)), repro);
  EXPECT_EQ(schedule_to_json(schedule_from_json(repro)), repro);
}

// Second half: the same schedule with the misbehavior scorer enabled is
// contained — honest replicas detect the conflicting payloads, ban the
// equivocators, and keep their ledgers consistent. At worst the attack
// costs liveness; it can no longer cost safety.
TEST(AdversarialAcceptance, DefensesContainEquivocationToLivenessAtWorst) {
  ExperimentConfig config =
      adversarial_config(ChainKind::kSolana, FaultType::kEquivocate);
  config.chain_params["misbehavior_defense"] = 1.0;
  const OracleReport report = audit(config);
  EXPECT_EQ(report.safety_violation(), nullptr) << report.summary();
}

// The adversarial diagnostics reach the harvested chain metrics, and the
// oracle context knows which replicas were compromised.
TEST(AdversarialAcceptance, AdversarialMetricsAndContextAreWired) {
  const ExperimentConfig config =
      adversarial_config(ChainKind::kSolana, FaultType::kEquivocate);
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.chain_metrics.count("equivocations_sent"), 0u);
  EXPECT_GT(result.chain_metrics.at("equivocations_sent"), 0.0);

  const OracleContext context = make_oracle_context(config);
  EXPECT_FALSE(context.adversarial.empty());
  for (const net::NodeId id : context.adversarial) {
    EXPECT_GE(id, net::NodeId{5});  // paper defaults: entry nodes spared
  }
}

// Withholding and eclipse are liveness-family attacks: they may slow or
// stall the chain but must never fork honest ledgers.
TEST(AdversarialAcceptance, WithholdNeverBreaksSafety) {
  const OracleReport report = audit(
      adversarial_config(ChainKind::kSolana, FaultType::kWithhold));
  EXPECT_EQ(report.safety_violation(), nullptr) << report.summary();
}

TEST(AdversarialAcceptance, EclipseNeverBreaksSafety) {
  const OracleReport report = audit(
      adversarial_config(ChainKind::kRedbelly, FaultType::kEclipse));
  EXPECT_EQ(report.safety_violation(), nullptr) << report.summary();
}

// Anchored chains resist the same coalition: Redbelly's decision log pins
// one canonical superblock per consensus instance, so equivocation there
// is at worst a liveness problem even with defenses off. This asymmetry
// is the sensitivity-to-attack radar's cross-chain story.
TEST(AdversarialAcceptance, AnchoredRedbellyResistsEquivocation) {
  const OracleReport report = audit(
      adversarial_config(ChainKind::kRedbelly, FaultType::kEquivocate));
  EXPECT_EQ(report.safety_violation(), nullptr) << report.summary();
}

// The fork repro shrinks: ddmin against the same-oracle-match rule finds a
// minimal schedule still violating the same safety oracle, and the
// minimized schedule's JSON is byte-stable through parse/serialize.
TEST(AdversarialAcceptance, EquivocationScheduleShrinksToMinimalRepro) {
  ExperimentConfig base =
      adversarial_config(ChainKind::kSolana, FaultType::kEquivocate);
  const FaultSchedule schedule = resolved_schedule(base);
  ASSERT_EQ(schedule.plans.size(), 1u);

  const ScheduleEvaluator evaluate =
      [&base](const FaultSchedule& candidate) {
        ExperimentConfig config = base;
        config.fault = FaultType::kNone;
        config.extra_faults = candidate;
        return audit(config);
      };
  ShrinkOptions options;
  options.max_runs = 30;
  const auto shrunk = shrink_schedule(schedule, evaluate, options);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_LE(shrunk->schedule.plans.size(), schedule.plans.size());
  ASSERT_FALSE(shrunk->schedule.plans.empty());
  EXPECT_EQ(shrunk->schedule.plans[0].type, FaultType::kEquivocate);

  const std::string repro = schedule_to_json(shrunk->schedule);
  EXPECT_EQ(schedule_to_json(schedule_from_json(repro)), repro);
}

}  // namespace
}  // namespace stabl::core
