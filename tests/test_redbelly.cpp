// Redbelly protocol model tests: leaderless progress, superblocks,
// crash-insensitivity, quorum loss, recovery, determinism.
#include "chains/redbelly/redbelly.hpp"

#include <gtest/gtest.h>

#include "chain_test_util.hpp"

namespace stabl::redbelly {
namespace {

using testing::Harness;

void build(Harness& harness, std::size_t n = 10,
           RedbellyConfig config = {}) {
  chain::NodeConfig node_config;
  node_config.n = n;
  node_config.network_seed = 77;
  harness.nodes =
      make_cluster(harness.simulation, harness.network, node_config, config);
}

TEST(Redbelly, BaselineCommitsWorkload) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(30));
  harness.start_all();
  harness.simulation.run_until(sim::sec(35));
  // ~30s * 200tps, everything should land.
  EXPECT_GT(harness.total_client_committed(), 5500u);
  EXPECT_EQ(harness.total_client_committed(),
            harness.nodes[0]->ledger().tx_count());
}

TEST(Redbelly, ReplicasStayIdentical) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(20));
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  testing::expect_prefix_consistent(harness);
  testing::expect_no_double_execution(harness);
  // All replicas alive & connected: same height too.
  for (const auto& node : harness.nodes) {
    EXPECT_EQ(node->ledger().tx_count(),
              harness.nodes[0]->ledger().tx_count());
  }
}

TEST(Redbelly, SuperblockMergesAllProposals) {
  // Transactions submitted to different nodes land in the same superblock
  // round rather than serializing one proposer at a time.
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(20));
  harness.start_all();
  harness.simulation.run_until(sim::sec(25));
  std::size_t multi_proposer_blocks = 0;
  for (const auto& block : harness.nodes[0]->ledger().blocks()) {
    std::set<chain::AccountId> senders;
    for (const auto& tx : block.txs) senders.insert(tx.from);
    if (senders.size() >= 4) ++multi_proposer_blocks;
  }
  EXPECT_GT(multi_proposer_blocks, 5u);
}

TEST(Redbelly, ToleratesTCrashesWithoutSlowdown) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  for (net::NodeId id = 5; id < 8; ++id) harness.nodes[id]->kill();  // f=t=3
  harness.simulation.run_until(sim::sec(45));
  // Leaderless DBFT: commits keep flowing at full rate.
  EXPECT_GT(harness.total_client_committed(), 7400u);
  testing::expect_prefix_consistent(harness);
}

TEST(Redbelly, HaltsBeyondThresholdThenRecovers) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(60));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  for (net::NodeId id = 5; id < 9; ++id) harness.nodes[id]->kill();  // f=t+1
  harness.simulation.run_until(sim::sec(30));
  const std::uint64_t during = harness.nodes[0]->ledger().tx_count();
  EXPECT_LT(during, 2600u) << "quorum lost: no commits during the outage";
  for (net::NodeId id = 5; id < 9; ++id) harness.nodes[id]->start();
  harness.simulation.run_until(sim::sec(60));
  // Active recovery + superblock: the backlog clears.
  EXPECT_GT(harness.nodes[0]->ledger().tx_count(), 9000u);
  testing::expect_prefix_consistent(harness);
}

TEST(Redbelly, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Harness harness(seed);
    build(harness);
    harness.add_clients(5, 40.0, sim::sec(15));
    harness.start_all();
    harness.simulation.run_until(sim::sec(20));
    std::vector<std::uint64_t> summary;
    for (const auto& block : harness.nodes[0]->ledger().blocks()) {
      std::uint64_t h = block.round;
      for (const auto& tx : block.txs) h = chain::hash_combine(h, tx.id);
      summary.push_back(h);
    }
    return summary;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Redbelly, RestartedNodeCatchesUp) {
  Harness harness;
  build(harness);
  harness.add_clients(5, 40.0, sim::sec(40));
  harness.start_all();
  harness.simulation.run_until(sim::sec(10));
  harness.nodes[9]->kill();  // f=1 < t: chain keeps going
  harness.simulation.run_until(sim::sec(25));
  const auto reference = harness.nodes[0]->ledger().tx_count();
  EXPECT_GT(reference, 2000u);
  harness.nodes[9]->start();
  harness.simulation.run_until(sim::sec(40));
  EXPECT_GE(harness.nodes[9]->ledger().tx_count(), reference);
  testing::expect_prefix_consistent(harness);
}

// Drives a lone node of a 4-node cluster (t = 1, quorum 3) through round 0
// with hand-delivered proposals and echoes, and returns the transaction
// ids of the superblock it commits. Proposers 1 and 2 each offer one
// transaction; echoer 1 first reports {0, 1, 2}, and when
// `echoer_restarts` it echoes again with {0} only — what a node that
// restarted within the round and lost the proposals it had seen sends.
std::vector<chain::TxId> superblock_after_echoes(bool echoer_restarts) {
  Harness harness;
  chain::NodeConfig node_config;
  node_config.n = 4;
  node_config.network_seed = 77;
  RedbellyNode node(harness.simulation, harness.network, node_config,
                    RedbellyConfig{}, std::make_shared<DecisionLog>());
  node.start();
  // The round opens after round_pacing (+ jitter <= 200 ms); the node
  // echoes proposal_window (400 ms) later.
  harness.simulation.run_until(sim::ms(750));
  EXPECT_EQ(node.current_round(), 0u);
  const auto deliver = [&](net::NodeId from, net::PayloadPtr payload) {
    node.deliver(net::Envelope{from, 0, 256, std::move(payload)});
  };
  const auto tx = [](chain::TxId id, chain::AccountId from) {
    chain::Transaction t;
    t.id = id;
    t.from = from;
    t.to = 1000 + from;
    t.amount = 1;
    return t;
  };
  deliver(1, std::make_shared<const ProposalPayload>(
                 0, 1, std::vector<chain::Transaction>{tx(101, 1)}));
  deliver(2, std::make_shared<const ProposalPayload>(
                 0, 2, std::vector<chain::Transaction>{tx(202, 2)}));
  deliver(1, std::make_shared<const EchoPayload>(
                 0, std::vector<net::NodeId>{0, 1, 2}));
  if (echoer_restarts) {
    deliver(1, std::make_shared<const EchoPayload>(
                   0, std::vector<net::NodeId>{0}));
  }
  deliver(2, std::make_shared<const EchoPayload>(
                 0, std::vector<net::NodeId>{0, 1}));
  // Echoes from 1 and 2 plus the node's own {0, 1, 2} make a quorum.
  harness.simulation.run_until(sim::ms(1500));
  std::vector<chain::TxId> ids;
  if (node.ledger().blocks().empty()) return ids;
  for (const auto& t : node.ledger().blocks()[0].txs) ids.push_back(t.id);
  return ids;
}

TEST(Redbelly, SecondEchoFromSameEchoerReplacesTheFirst) {
  // Proposer 2 is echoed by the node itself and by echoer 1's first echo:
  // t + 1 = 2 echoes, so it makes the superblock...
  EXPECT_EQ(superblock_after_echoes(/*echoer_restarts=*/false),
            (std::vector<chain::TxId>{101, 202}));
  // ...unless echoer 1's second echo replaced the first. Then only the
  // node's own echo lists proposer 2, and merging the two echoes (or
  // counting both) would wrongly keep it in.
  EXPECT_EQ(superblock_after_echoes(/*echoer_restarts=*/true),
            (std::vector<chain::TxId>{101}));
}

TEST(DecisionLogTest, FirstCandidateWins) {
  DecisionLog log;
  DecisionLog::Decision first;
  first.proposers = {1, 2};
  DecisionLog::Decision second;
  second.proposers = {3};
  const auto& canonical = log.decide(7, first);
  EXPECT_EQ(canonical.proposers, (std::vector<net::NodeId>{1, 2}));
  const auto& replay = log.decide(7, second);
  EXPECT_EQ(replay.proposers, (std::vector<net::NodeId>{1, 2}));
  EXPECT_NE(log.get(7), nullptr);
  EXPECT_EQ(log.get(8), nullptr);
}

}  // namespace
}  // namespace stabl::redbelly
