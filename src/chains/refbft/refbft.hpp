// RefBFT — a deliberately minimal round-robin BFT reference chain.
//
// Not one of the paper's five systems: RefBFT exists to prove the chain
// plugin seam. It registers itself through chain::Registry exactly like
// the paper chains do, but lives in its own library that only the tests
// link, so production binaries keep the paper's five-chain matrix. The
// protocol is the textbook skeleton the real chains elaborate: rotating
// leader proposes a mempool batch, replicas vote, a BFT quorum
// (n - floor((n-1)/3)) commits, and a flat round timeout with a timeout
// quorum advances past dead leaders. No reputation, no lockout, no
// execution model — the smallest thing that stays live under f = t
// crashes and recovers from partitions via state sync.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "chain/node.hpp"
#include "chain/quorum.hpp"

namespace stabl::refbft {

struct ProposalPayload;

struct RefBftConfig {
  /// Leader pacing: delay between entering a round and proposing.
  sim::Duration block_interval = sim::ms(250);
  /// Flat round timeout; a quorum of timeouts advances the round.
  sim::Duration round_timeout = sim::ms(800);
  std::size_t max_block_txs = 200;
};

class RefBftNode final : public chain::BlockchainNode {
 public:
  RefBftNode(sim::Simulation& simulation, net::Network& network,
             chain::NodeConfig node_config, RefBftConfig config);

  [[nodiscard]] std::uint64_t current_round() const { return round_; }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    return {{"round", static_cast<double>(round_)},
            {"timed_out_rounds", static_cast<double>(timed_out_rounds_)}};
  }

 protected:
  void start_protocol() override;
  void stop_protocol() override;
  void on_app_message(const net::Envelope& envelope) override;
  void on_transaction(const chain::Transaction& tx) override;
  void on_peer_up(net::NodeId peer) override;
  void on_synced() override;
  [[nodiscard]] net::PayloadPtr equivocate_payload(
      const net::PayloadPtr& payload) override;
  [[nodiscard]] bool withholdable(const net::Payload& payload) const override;

 private:
  void enter_round(std::uint64_t round);
  void propose();
  void on_round_timeout();
  void maybe_vote();
  void try_commit();
  void jump_to_round(std::uint64_t round, net::NodeId peer_hint);
  [[nodiscard]] std::int64_t tip_round() const;

  RefBftConfig config_;

  // Volatile per-round state; cleared on restart.
  std::uint64_t round_ = 0;
  bool voted_ = false;
  // The round's first proposal as its leader sent it; null until one
  // arrives.
  std::shared_ptr<const ProposalPayload> proposal_;
  // voter -> content digest the voter claims for this round's proposal.
  // Plain quorum counting ignores the digest (votes are content-blind,
  // which is what an equivocating leader exploits); with the misbehavior
  // defense on, only votes matching our own digest count towards commit.
  chain::QuorumSet<std::uint64_t> votes_;
  chain::QuorumSet<> timeouts_;
  sim::TimerId round_timer_ = sim::kInvalidTimer;
  sim::TimerId propose_timer_ = sim::kInvalidTimer;
  std::uint64_t timed_out_rounds_ = 0;
};

std::vector<std::unique_ptr<chain::BlockchainNode>> make_cluster(
    sim::Simulation& simulation, net::Network& network,
    chain::NodeConfig node_config_template, RefBftConfig config = {});

/// No-op that anchors this chain's ChainRegistrar: a binary that wants
/// RefBFT in its registry calls this (or anything else in this library)
/// so the static-archive linker keeps the registration object's
/// translation unit. Production binaries never call it, so they never see
/// the chain.
void ensure_registered();

}  // namespace stabl::refbft
