// Dense vote/quorum bookkeeping shared by the chain models.
//
// Every protocol model tallies "which replicas said X this round": echoes,
// votes, timeouts, proposals held per proposer. Replica ids are dense
// (0..n-1), so a presence bitset plus a count replaces the per-round
// std::set/std::map the models used to build for each message: O(1)
// insert and lookup, no allocation after construction, O(n/64) clear.
// Iteration visits voters in ascending NodeId order — the order the
// ordered containers it replaced produced — so everything derived from a
// tally (superblock contents, reports, golden files) stays byte-identical.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace stabl::chain {

/// Quorum of n replicas tolerating t = floor((n-1)/3) Byzantine ones:
/// n - t, the smallest count whose any two instances intersect in a
/// correct replica.
constexpr std::size_t bft_quorum(std::size_t n) { return n - (n - 1) / 3; }

/// Value type of a QuorumSet that only records who voted.
struct NoValue {};

/// The set of replicas (ids 0..n-1) that voted, with an optional value per
/// voter (what the voter claimed: a digest, a leader, a payload).
template <typename Value = NoValue>
class QuorumSet {
  static constexpr bool kHasValue = !std::is_same_v<Value, NoValue>;

 public:
  explicit QuorumSet(std::size_t n = 0) : n_(n), words_((n + 63) / 64, 0) {
    if constexpr (kHasValue) values_.resize(n);
  }

  /// Number of distinct voters.
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// The BFT quorum threshold for this set's n (see bft_quorum()).
  [[nodiscard]] std::size_t quorum() const { return bft_quorum(n_); }
  [[nodiscard]] bool has_quorum() const { return count_ >= quorum(); }

  [[nodiscard]] bool contains(net::NodeId voter) const {
    return voter < n_ && (words_[voter / 64] >> (voter % 64) & 1u) != 0;
  }

  /// Record `voter`. Returns true when it had not voted yet. Ids outside
  /// 0..n-1 are not replicas and are never recorded.
  bool insert(net::NodeId voter) {
    if (voter >= n_) return false;
    std::uint64_t& word = words_[voter / 64];
    const std::uint64_t bit = std::uint64_t{1} << (voter % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++count_;
    return true;
  }

  /// Record `voter` with `value`, keeping an earlier value if the voter
  /// already voted (std::map::emplace semantics).
  bool emplace(net::NodeId voter, Value value)
    requires kHasValue
  {
    if (!insert(voter)) return false;
    values_[voter] = std::move(value);
    return true;
  }

  /// Record `voter` with `value`, replacing an earlier value
  /// (std::map::insert_or_assign semantics). Returns true when the voter
  /// is new.
  bool assign(net::NodeId voter, Value value)
    requires kHasValue
  {
    if (voter >= n_) return false;
    const bool added = insert(voter);
    values_[voter] = std::move(value);
    return added;
  }

  /// The voter's value, or nullptr when it has not voted.
  [[nodiscard]] const Value* find(net::NodeId voter) const
    requires kHasValue
  {
    return contains(voter) ? &values_[voter] : nullptr;
  }

  /// The value of a voter known to be present.
  [[nodiscard]] const Value& at(net::NodeId voter) const
    requires kHasValue
  {
    assert(contains(voter));
    return values_[voter];
  }

  /// Forget every vote. Values holding resources (payload pointers) are
  /// released; plain values are left in place, unreachable until
  /// overwritten.
  void clear() {
    if constexpr (kHasValue && !std::is_trivially_destructible_v<Value>) {
      for (const net::NodeId voter : *this) values_[voter] = Value{};
    }
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// Forward iterator over voters in ascending NodeId order.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = net::NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const net::NodeId*;
    using reference = net::NodeId;

    iterator() = default;
    iterator(const std::vector<std::uint64_t>* words, std::size_t index)
        : words_(words), index_(index) {
      if (index_ < words_->size()) {
        pending_ = (*words_)[index_];
        settle();
      }
    }

    net::NodeId operator*() const {
      return static_cast<net::NodeId>(
          index_ * 64 + static_cast<std::size_t>(std::countr_zero(pending_)));
    }
    iterator& operator++() {
      pending_ &= pending_ - 1;  // drop the lowest set bit
      settle();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& other) const {
      return index_ == other.index_ && pending_ == other.pending_;
    }

   private:
    // Advance to the next word with a set bit (or to the end position).
    void settle() {
      while (pending_ == 0 && ++index_ < words_->size()) {
        pending_ = (*words_)[index_];
      }
      if (pending_ == 0) index_ = words_->size();
    }

    const std::vector<std::uint64_t>* words_ = nullptr;
    std::size_t index_ = 0;
    std::uint64_t pending_ = 0;
  };

  [[nodiscard]] iterator begin() const { return iterator(&words_, 0); }
  [[nodiscard]] iterator end() const {
    return iterator(&words_, words_.size());
  }

 private:
  std::size_t n_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<Value> values_;  // indexed by NodeId; empty without a Value
};

}  // namespace stabl::chain
