// Invariant oracle layer (core/oracle.hpp): synthetic violations for every
// oracle, the exemption downgrade logic, the no-false-positive sweep over
// the paper's full scripted matrix, and the seeded self-test — a toy chain
// that deliberately forks its ledger must be caught by the agreement
// oracle and shrunk to a tiny repro.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chain/hash.hpp"
#include "chain/node.hpp"
#include "core/chaos.hpp"
#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "core/throughput.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------- synthetic scaffolding

BlockSummary block(std::uint64_t height, double at_s,
                   std::vector<chain::TxId> txs) {
  BlockSummary summary;
  summary.height = height;
  summary.committed_at_s = at_s;
  summary.txs = std::move(txs);
  return summary;
}

/// A healthy two-replica result: identical ledgers, all ids submitted,
/// steady throughput for the whole run.
ExperimentResult healthy_result() {
  ExperimentResult result;
  for (net::NodeId id = 0; id < 2; ++id) {
    ReplicaSnapshot replica;
    replica.id = id;
    replica.blocks = {block(0, 1.0, {1, 2}), block(1, 2.0, {3}),
                      block(2, 3.0, {4, 5})};
    result.replicas.push_back(std::move(replica));
  }
  result.submitted_ids = {1, 2, 3, 4, 5};
  result.submitted = 5;
  result.committed = 5;
  result.live_at_end = true;
  result.throughput.assign(60, 10.0);
  return result;
}

OracleContext context_with(FaultSchedule schedule,
                           ChainKind chain = ChainKind::kRedbelly) {
  OracleContext context;
  context.chain = chain;
  context.schedule = std::move(schedule);
  context.duration = sim::sec(60);
  context.primary_fault = FaultType::kNone;
  return context;
}

FaultPlan window_plan(FaultType type, sim::Time inject, sim::Time recover,
                      std::vector<net::NodeId> targets = {5}) {
  FaultPlan plan;
  plan.type = type;
  plan.targets = std::move(targets);
  plan.inject_at = inject;
  plan.recover_at = recover;
  return plan;
}

const OracleFinding* find_oracle(const OracleReport& report,
                                 const std::string& name) {
  for (const OracleFinding& finding : report.findings) {
    if (finding.oracle == name) return &finding;
  }
  return nullptr;
}

// ------------------------------------------------------- per-oracle tests

TEST(OracleSafety, HealthyResultPassesEverything) {
  const OracleReport report =
      check_invariants(context_with({}), healthy_result());
  EXPECT_EQ(report.verdict, OracleVerdict::kPass) << report.summary();
  EXPECT_EQ(report.summary(), "all oracles passed");
  EXPECT_EQ(report.violation(), nullptr);
}

TEST(OracleSafety, AgreementCatchesALedgerFork) {
  ExperimentResult result = healthy_result();
  result.replicas[1].blocks[1] = block(1, 2.0, {30});  // fork at height 1
  result.submitted_ids.push_back(30);
  const OracleReport report =
      check_invariants(context_with({}), result);
  EXPECT_TRUE(report.violated());
  ASSERT_NE(report.violation(), nullptr);
  EXPECT_EQ(report.violation()->oracle, "agreement");
  EXPECT_NE(report.violation()->detail.find("height 1"), std::string::npos)
      << report.violation()->detail;
}

TEST(OracleSafety, AgreementComparesOnlyTheCommonPrefix) {
  ExperimentResult result = healthy_result();
  result.replicas[1].blocks.pop_back();  // replica 1 is merely behind
  const OracleReport report = check_invariants(context_with({}), result);
  EXPECT_FALSE(report.violated()) << report.summary();
}

TEST(OracleSafety, DuplicateCommitIsCaught) {
  ExperimentResult result = healthy_result();
  result.replicas[0].blocks[2] = block(2, 3.0, {4, 1});  // 1 again
  const OracleReport report = check_invariants(context_with({}), result);
  ASSERT_NE(find_oracle(report, "no-duplicate-commit"), nullptr);
  EXPECT_EQ(find_oracle(report, "no-duplicate-commit")->verdict,
            OracleVerdict::kViolation);
}

TEST(OracleSafety, NonConsecutiveHeightsAreCaught) {
  ExperimentResult result = healthy_result();
  result.replicas[0].blocks[2].height = 7;
  const OracleReport report = check_invariants(context_with({}), result);
  ASSERT_NE(find_oracle(report, "monotone"), nullptr);
  EXPECT_EQ(find_oracle(report, "monotone")->verdict,
            OracleVerdict::kViolation);
}

TEST(OracleSafety, BackwardsCommitTimeIsCaught) {
  ExperimentResult result = healthy_result();
  result.replicas[0].blocks[2].committed_at_s = 0.5;
  const OracleReport report = check_invariants(context_with({}), result);
  ASSERT_NE(find_oracle(report, "monotone"), nullptr);
  EXPECT_EQ(find_oracle(report, "monotone")->verdict,
            OracleVerdict::kViolation);
}

TEST(OracleSafety, InventedTransactionIsCaught) {
  ExperimentResult result = healthy_result();
  result.replicas[0].blocks[1].txs.push_back(999);  // never submitted
  const OracleReport report = check_invariants(context_with({}), result);
  ASSERT_NE(find_oracle(report, "committed-subset"), nullptr);
  EXPECT_EQ(find_oracle(report, "committed-subset")->verdict,
            OracleVerdict::kViolation);
}

TEST(OracleSafety, SkippedWithAnExplanationWithoutSnapshots) {
  ExperimentResult result = healthy_result();
  result.replicas.clear();
  const OracleReport report = check_invariants(context_with({}), result);
  EXPECT_EQ(report.verdict, OracleVerdict::kPass);
  ASSERT_NE(find_oracle(report, "safety"), nullptr);
  EXPECT_NE(find_oracle(report, "safety")->detail.find("capture_replicas"),
            std::string::npos);
}

TEST(OracleLiveness, FaultFreeRunMustStayLive) {
  ExperimentResult result = healthy_result();
  result.live_at_end = false;
  const OracleReport report = check_invariants(context_with({}), result);
  ASSERT_NE(report.violation(), nullptr);
  EXPECT_EQ(report.violation()->oracle, "recovery-resume");
}

TEST(OracleLiveness, NoCommitsAfterRecoveryIsAViolation) {
  ExperimentResult result = healthy_result();
  // Dead from the fault onwards: bins 20.. are silent.
  for (std::size_t t = 20; t < result.throughput.size(); ++t) {
    result.throughput[t] = 0.0;
  }
  result.live_at_end = false;
  FaultSchedule schedule;
  schedule.add(window_plan(FaultType::kPartition, sim::sec(20), sim::sec(30)));
  const OracleReport report =
      check_invariants(context_with(schedule), result);
  ASSERT_NE(report.violation(), nullptr);
  EXPECT_EQ(report.violation()->oracle, "recovery-resume");
}

TEST(OracleLiveness, CrashSchedulesNeverRequireResumption) {
  ExperimentResult result = healthy_result();
  for (std::size_t t = 20; t < result.throughput.size(); ++t) {
    result.throughput[t] = 0.0;
  }
  result.live_at_end = false;
  FaultSchedule schedule;
  schedule.add(window_plan(FaultType::kCrash, sim::sec(20), sim::sec(0)));
  schedule.add(window_plan(FaultType::kLoss, sim::sec(20), sim::sec(30), {6}));
  const OracleReport report =
      check_invariants(context_with(schedule), result);
  EXPECT_FALSE(report.violated()) << report.summary();
}

TEST(OracleLiveness, ShortObservationWindowIsInconclusive) {
  ExperimentResult result = healthy_result();
  for (std::size_t t = 20; t < result.throughput.size(); ++t) {
    result.throughput[t] = 0.0;
  }
  FaultSchedule schedule;
  // Recovers 5 s before the end: too little signal to judge.
  schedule.add(window_plan(FaultType::kPartition, sim::sec(40), sim::sec(55)));
  const OracleReport report =
      check_invariants(context_with(schedule), result);
  EXPECT_FALSE(report.violated()) << report.summary();
  EXPECT_NE(find_oracle(report, "recovery-resume")->detail.find(
                "inconclusive"),
            std::string::npos);
}

TEST(OracleLiveness, ExemptionDowngradesWithEvidence) {
  ExperimentResult result = healthy_result();
  for (std::size_t t = 20; t < result.throughput.size(); ++t) {
    result.throughput[t] = 0.0;
  }
  result.live_at_end = false;
  result.chain_metrics["panicked"] = 4.0;
  FaultSchedule schedule;
  schedule.add(window_plan(FaultType::kDelay, sim::sec(20), sim::sec(30)));
  const OracleReport report = check_invariants(
      context_with(schedule, ChainKind::kSolana), result);
  EXPECT_FALSE(report.violated()) << report.summary();
  EXPECT_EQ(report.verdict, OracleVerdict::kExpectedLoss);
  EXPECT_EQ(find_oracle(report, "recovery-resume")->verdict,
            OracleVerdict::kExpectedLoss);
}

TEST(OracleLiveness, ExemptionRequiresItsEvidenceMetric) {
  ExperimentResult result = healthy_result();
  for (std::size_t t = 20; t < result.throughput.size(); ++t) {
    result.throughput[t] = 0.0;
  }
  result.live_at_end = false;  // liveness lost but NO panic recorded
  FaultSchedule schedule;
  schedule.add(window_plan(FaultType::kDelay, sim::sec(20), sim::sec(30)));
  const OracleReport report = check_invariants(
      context_with(schedule, ChainKind::kSolana), result);
  EXPECT_TRUE(report.violated()) << "a Solana liveness loss without a "
                                    "panic must stay a violation";
}

TEST(OracleLiveness, ExemptionIsChainSpecific) {
  ExperimentResult result = healthy_result();
  for (std::size_t t = 20; t < result.throughput.size(); ++t) {
    result.throughput[t] = 0.0;
  }
  result.live_at_end = false;
  result.chain_metrics["panicked"] = 4.0;
  FaultSchedule schedule;
  schedule.add(window_plan(FaultType::kDelay, sim::sec(20), sim::sec(30)));
  const OracleReport report = check_invariants(
      context_with(schedule, ChainKind::kRedbelly), result);
  EXPECT_TRUE(report.violated());
}

TEST(OracleLiveness, SafetyViolationsAreNeverExempted) {
  ExperimentResult result = healthy_result();
  result.replicas[1].blocks[1] = block(1, 2.0, {30});
  result.submitted_ids.push_back(30);
  result.chain_metrics["panicked"] = 4.0;
  FaultSchedule schedule;
  schedule.add(window_plan(FaultType::kDelay, sim::sec(20), sim::sec(30)));
  const OracleReport report = check_invariants(
      context_with(schedule, ChainKind::kSolana), result);
  EXPECT_TRUE(report.violated());
  EXPECT_EQ(report.violation()->oracle, "agreement");
}

TEST(OracleConsistency, RecoverySecondsMustMatchTheSeries) {
  ExperimentResult result = healthy_result();
  result.recovery_seconds = 17.0;  // series actually recovers immediately
  OracleContext context = context_with({});
  context.primary_fault = FaultType::kTransient;
  context.primary_recover_at = sim::sec(30);
  context.recovery_threshold_tps = 5.0;
  const OracleReport report = check_invariants(context, result);
  ASSERT_NE(report.violation(), nullptr);
  EXPECT_EQ(report.violation()->oracle, "recovery-consistency");

  result.recovery_seconds = recovery_seconds(result.throughput, 30.0, 5.0);
  EXPECT_FALSE(check_invariants(context, result).violated());
}

// --------------------------------- scripted-matrix no-false-positive sweep

// Every (chain, scripted fault) cell of the paper's canonical matrix
// (seed 42, 400 s, fault at 133 s, recovery at 266 s) must satisfy the
// oracles. The chains that lose liveness by design (Solana panics,
// Avalanche throttles itself to death) must come out as expected-loss —
// evidence-backed — never as violations, and never as safety failures.
// One case per chain, so ctest can run the five chains side by side.
class OracleScriptedMatrix : public ::testing::TestWithParam<ChainKind> {};

TEST_P(OracleScriptedMatrix, NoFalsePositivesAcrossAllFaults) {
  const ChainKind chain = GetParam();
  const FaultType kScripted[] = {
      FaultType::kCrash,  FaultType::kTransient, FaultType::kPartition,
      FaultType::kSecureClient, FaultType::kDelay, FaultType::kChurn,
      FaultType::kLoss,   FaultType::kThrottle,  FaultType::kGray};
  for (const FaultType fault : kScripted) {
    ExperimentConfig config;
    config.chain = chain;
    config.fault = fault;
    config.seed = 42;
    config.duration = sim::sec(400);
    config.inject_at = sim::sec(133);
    config.recover_at = sim::sec(266);
    config.capture_replicas = true;
    if (fault == FaultType::kSecureClient) {
      config.client_fanout = 4;
      config.vcpus = 8.0;
    }
    const ExperimentResult result = run_experiment(config);
    const OracleReport report =
        check_invariants(make_oracle_context(config), result);
    EXPECT_FALSE(report.violated())
        << to_string(chain) << " x " << to_string(fault) << ": "
        << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllChains, OracleScriptedMatrix, ::testing::ValuesIn(kAllChains),
    [](const ::testing::TestParamInfo<ChainKind>& info) {
      return to_string(info.param);
    });

// ------------------------------------------------- seeded toy-chain fork

/// A deliberately broken toy protocol: node 0 is a fixed leader that
/// decides a block each second and broadcasts it; followers commit
/// whatever the leader sends. The bug: a follower that has not heard from
/// the leader for 3 s starts deciding blocks ALONE — a split brain that
/// forks the ledger as soon as a partition separates it from the leader.
class ForkingToyNode final : public chain::BlockchainNode {
 public:
  ForkingToyNode(sim::Simulation& simulation, net::Network& network,
                 chain::NodeConfig config,
                 std::vector<chain::TxId>* submitted)
      : BlockchainNode(simulation, network, std::move(config)),
        submitted_(submitted) {}

 protected:
  void start_protocol() override {
    last_heard_ = now();
    tick();
  }

  void on_app_message(const net::Envelope& envelope) override {
    const auto* batch = dynamic_cast<const chain::TxBatchPayload*>(
        envelope.payload.get());
    if (batch == nullptr) return;
    last_heard_ = now();
    commit_block(batch->txs, /*proposer=*/0);
  }

 private:
  void tick() {
    set_timer(sim::sec(1), [this] { tick(); });
    if (node_id() == 0) {
      std::vector<chain::Transaction> txs{make_tx()};
      commit_block(txs, node_id());
      broadcast(std::make_shared<const chain::TxBatchPayload>(txs), 256);
    } else if (now() - last_heard_ > sim::sec(3)) {
      // Split brain: decide without the leader.
      commit_block({make_tx()}, node_id());
    }
  }

  chain::Transaction make_tx() {
    chain::Transaction tx;
    tx.id = (static_cast<chain::TxId>(node_id()) << 32) | seq_;
    tx.from = static_cast<chain::AccountId>(node_id());
    tx.to = 1000;
    tx.amount = 1;
    tx.nonce = seq_;
    ++seq_;
    submitted_->push_back(tx.id);
    return tx;
  }

  std::vector<chain::TxId>* submitted_;
  sim::Time last_heard_{0};
  std::uint64_t seq_ = 0;
};

/// Run the toy chain under a candidate schedule and audit it — the
/// evaluator the shrinker re-runs candidates through.
OracleReport run_toy_chain(const FaultSchedule& schedule) {
  constexpr std::size_t kNodes = 6;
  const sim::Duration duration = sim::sec(60);
  sim::Simulation simulation(7);
  net::Network network(simulation, net::LatencyConfig{});
  std::vector<chain::TxId> submitted;
  std::vector<std::unique_ptr<ForkingToyNode>> nodes;
  std::vector<chain::BlockchainNode*> node_ptrs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    chain::NodeConfig node_config;
    node_config.id = static_cast<net::NodeId>(i);
    node_config.n = kNodes;
    node_config.network_seed = chain::mix64(7);
    nodes.push_back(std::make_unique<ForkingToyNode>(
        simulation, network, node_config, &submitted));
    node_ptrs.push_back(nodes.back().get());
    nodes.back()->start();
  }
  Observers observers(simulation, network, node_ptrs);
  observers.arm(schedule);
  simulation.run_until(duration);

  ExperimentResult result;
  result.replicas = snapshot_replicas(node_ptrs);
  result.submitted_ids = submitted;
  result.submitted = submitted.size();
  result.committed = nodes.front()->ledger().tx_count();
  result.live_at_end = true;
  result.throughput = ThroughputSeries(nodes.front()->ledger(), duration)
                          .bins();
  OracleContext context;
  context.chain = ChainKind::kRedbelly;  // no exemptions apply to the toy
  context.schedule = schedule;
  context.duration = duration;
  return check_invariants(context, result);
}

TEST(OracleSelfTest, ToyForkIsCaughtAndShrunkToATinyRepro) {
  // A noisy 4-plan schedule; only the partition (isolating followers 4 and
  // 5 from the leader) actually provokes the split brain.
  FaultSchedule schedule;
  schedule.add(window_plan(FaultType::kPartition, sim::sec(10), sim::sec(40),
                           {4, 5}));
  schedule.add(window_plan(FaultType::kGray, sim::sec(5), sim::sec(20), {3}));
  schedule.add(window_plan(FaultType::kLoss, sim::sec(15), sim::sec(25),
                           {2}));
  schedule.add(window_plan(FaultType::kThrottle, sim::sec(30), sim::sec(50),
                           {1}));

  const OracleReport direct = run_toy_chain(schedule);
  ASSERT_TRUE(direct.violated()) << direct.summary();
  EXPECT_EQ(direct.violation()->oracle, "agreement");

  const std::optional<ShrinkResult> shrunk =
      shrink_schedule(schedule, run_toy_chain);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->oracle, "agreement");
  EXPECT_LE(shrunk->schedule.plans.size(), 2u)
      << schedule_to_json(shrunk->schedule);
  EXPECT_EQ(shrunk->initial_plans, 4u);

  // The minimized schedule is a real repro: replaying it (including after
  // a JSON round-trip) still trips the same oracle.
  const FaultSchedule replayed =
      schedule_from_json(schedule_to_json(shrunk->schedule));
  const OracleReport replay = run_toy_chain(replayed);
  ASSERT_TRUE(replay.violated()) << replay.summary();
  EXPECT_EQ(replay.violation()->oracle, "agreement");
}

TEST(OracleSelfTest, HealthyToyChainPassesAllOracles) {
  const OracleReport report = run_toy_chain({});
  EXPECT_EQ(report.verdict, OracleVerdict::kPass) << report.summary();
}

}  // namespace
}  // namespace stabl::core
