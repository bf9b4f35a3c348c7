// Dense quorum primitive: presence, counting, ascending iteration across
// word boundaries, value semantics, clear(), and the BFT threshold.
#include "chain/quorum.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace stabl::chain {
namespace {

TEST(QuorumSet, DuplicateInsertsCountOnce) {
  QuorumSet<> votes(10);
  EXPECT_TRUE(votes.insert(3));
  EXPECT_FALSE(votes.insert(3));
  EXPECT_TRUE(votes.insert(7));
  EXPECT_FALSE(votes.insert(7));
  EXPECT_EQ(votes.size(), 2u);
  EXPECT_TRUE(votes.contains(3));
  EXPECT_FALSE(votes.contains(4));
}

TEST(QuorumSet, IdsOutsideTheClusterAreNotVoters) {
  QuorumSet<> votes(4);
  EXPECT_FALSE(votes.insert(4));
  EXPECT_FALSE(votes.insert(1000));
  EXPECT_FALSE(votes.contains(4));
  EXPECT_TRUE(votes.empty());
}

TEST(QuorumSet, IteratesAscendingAcrossWordBoundaries) {
  QuorumSet<> votes(200);
  // Inserted out of order, straddling the 64- and 128-bit boundaries.
  for (const net::NodeId id : {130u, 64u, 0u, 63u, 199u, 127u, 65u, 128u}) {
    votes.insert(id);
  }
  const std::vector<net::NodeId> seen(votes.begin(), votes.end());
  EXPECT_EQ(seen, (std::vector<net::NodeId>{0, 63, 64, 65, 127, 128, 130,
                                            199}));
}

TEST(QuorumSet, EmptySetsIterateNothing) {
  const QuorumSet<> none(0);
  EXPECT_EQ(none.begin(), none.end());
  const QuorumSet<> sparse(300);
  EXPECT_EQ(sparse.begin(), sparse.end());
}

TEST(QuorumSet, ClearForgetsEveryVote) {
  QuorumSet<> votes(100);
  for (net::NodeId id = 0; id < 100; id += 3) votes.insert(id);
  votes.clear();
  EXPECT_EQ(votes.size(), 0u);
  EXPECT_EQ(votes.begin(), votes.end());
  EXPECT_FALSE(votes.contains(99));
  EXPECT_TRUE(votes.insert(99));
  EXPECT_EQ(votes.size(), 1u);
}

TEST(QuorumSet, EmplaceKeepsFirstValueAssignReplacesIt) {
  QuorumSet<std::uint64_t> votes(8);
  EXPECT_TRUE(votes.emplace(2, 11));
  EXPECT_FALSE(votes.emplace(2, 22));
  EXPECT_EQ(votes.at(2), 11u);
  EXPECT_FALSE(votes.assign(2, 33));
  EXPECT_EQ(votes.at(2), 33u);
  EXPECT_TRUE(votes.assign(5, 44));
  EXPECT_EQ(votes.size(), 2u);
  ASSERT_NE(votes.find(5), nullptr);
  EXPECT_EQ(*votes.find(5), 44u);
  EXPECT_EQ(votes.find(6), nullptr);
}

TEST(QuorumSet, ClearReleasesHeldPayloads) {
  auto payload = std::make_shared<const int>(7);
  QuorumSet<std::shared_ptr<const int>> held(4);
  held.assign(1, payload);
  EXPECT_EQ(payload.use_count(), 2);
  held.clear();
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(held.find(1), nullptr);
}

TEST(QuorumSet, BftThreshold) {
  EXPECT_EQ(bft_quorum(4), 3u);
  EXPECT_EQ(bft_quorum(10), 7u);
  EXPECT_EQ(bft_quorum(100), 67u);
  EXPECT_EQ(bft_quorum(250), 167u);
  QuorumSet<> votes(10);
  EXPECT_EQ(votes.quorum(), 7u);
  for (net::NodeId id = 0; id < 6; ++id) votes.insert(id);
  EXPECT_FALSE(votes.has_quorum());
  votes.insert(9);
  EXPECT_TRUE(votes.has_quorum());
}

}  // namespace
}  // namespace stabl::chain
