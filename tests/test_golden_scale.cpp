// Golden-file gates at n = 100 with the peer-misbehavior defense on.
//
// Each cell runs a chain at a hundred nodes under an equivocation attack
// (t compromised nodes double-propose and double-vote) with the defense
// binding votes to content digests, and compares the serialized
// baseline/altered report plus the altered run's chain counters
// byte-for-byte against tests/golden/. This pins the vote tallies, quorum
// thresholds, digest comparisons and superblock assembly of the chains
// whose bookkeeping is cost-sensitive in n: any change to iteration
// order, counting or RNG draw order shows up as a diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/serialize.hpp"

namespace stabl::core {
namespace {

/// One golden cell, serialized on one line: the baseline/altered report
/// followed by the altered run's chain counters (equivocations sent,
/// misbehavior reports, bans, drops, ...), which the report omits.
std::string run_cell(ChainKind chain) {
  ExperimentConfig config;
  config.chain = chain;
  config.n = 100;
  config.seed = 42;
  config.duration = sim::sec(8);
  config.fault = FaultType::kEquivocate;
  config.inject_at = sim::sec(2);
  config.recover_at = sim::sec(6);
  // t = 33 compromised nodes, entry nodes first: their proposals carry
  // client transactions, so they have content to equivocate on.
  for (net::NodeId id = 0; id < 33; ++id) config.fault_targets.push_back(id);
  config.chain_params["misbehavior_defense"] = 1.0;
  const SensitivityRun run = run_sensitivity(config);
  std::string out = "{\"report\":" + to_json(config.chain, config.fault, run) +
                    ",\"chain_metrics\":{";
  bool first = true;
  for (const auto& [key, value] : run.altered.chain_metrics) {
    char field[128];
    std::snprintf(field, sizeof field, "%s\"%s\":%.3f", first ? "" : ",",
                  key.c_str(), value);
    out += field;
    first = false;
  }
  return out + "}}";
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(STABL_TEST_GOLDEN_DIR) + "/" + name);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  return golden;
}

TEST(GoldenScale, RedbellyEquivocateDefenseN100MatchesGoldenBytes) {
  const std::string golden = read_golden("redbelly_n100_equivocate.json");
  ASSERT_FALSE(golden.empty()) << "missing golden report";
  EXPECT_EQ(run_cell(ChainKind::kRedbelly), golden);
}

TEST(GoldenScale, AptosEquivocateDefenseN100MatchesGoldenBytes) {
  const std::string golden = read_golden("aptos_n100_equivocate.json");
  ASSERT_FALSE(golden.empty()) << "missing golden report";
  EXPECT_EQ(run_cell(ChainKind::kAptos), golden);
}

TEST(GoldenScale, SolanaEquivocateDefenseN100MatchesGoldenBytes) {
  const std::string golden = read_golden("solana_n100_equivocate.json");
  ASSERT_FALSE(golden.empty()) << "missing golden report";
  EXPECT_EQ(run_cell(ChainKind::kSolana), golden);
}

}  // namespace
}  // namespace stabl::core
