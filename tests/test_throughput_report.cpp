// Tests for the throughput series, recovery detection, text reports and
// the Fig. 7 radar aggregation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "chain/ledger.hpp"
#include "core/radar.hpp"
#include "core/report.hpp"
#include "core/throughput.hpp"

namespace stabl::core {
namespace {

chain::Ledger ledger_with_commits(
    const std::vector<std::pair<double, int>>& commits) {
  chain::Ledger ledger;
  std::uint64_t height = 0;
  chain::TxId next_id = 1;
  for (const auto& [at_s, count] : commits) {
    chain::Block block;
    block.height = height++;
    block.committed_at = sim::seconds(at_s);
    for (int i = 0; i < count; ++i) {
      chain::Transaction tx;
      tx.id = next_id++;
      block.txs.push_back(tx);
    }
    ledger.append(block);
  }
  return ledger;
}

TEST(ThroughputSeries, BinsCommitsPerSecond) {
  const auto ledger =
      ledger_with_commits({{0.5, 10}, {0.9, 5}, {2.1, 7}, {9.9, 3}});
  ThroughputSeries series(ledger, sim::sec(10));
  ASSERT_EQ(series.bins().size(), 10u);
  EXPECT_DOUBLE_EQ(series.bins()[0], 15.0);
  EXPECT_DOUBLE_EQ(series.bins()[1], 0.0);
  EXPECT_DOUBLE_EQ(series.bins()[2], 7.0);
  EXPECT_DOUBLE_EQ(series.bins()[9], 3.0);
}

TEST(ThroughputSeries, IgnoresCommitsPastDuration) {
  const auto ledger = ledger_with_commits({{1.0, 5}, {11.0, 100}});
  ThroughputSeries series(ledger, sim::sec(10));
  double total = 0;
  for (const double bin : series.bins()) total += bin;
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(ThroughputSeries, Averages) {
  const auto ledger = ledger_with_commits({{0.5, 10}, {1.5, 20}, {3.5, 30}});
  ThroughputSeries series(ledger, sim::sec(4));
  EXPECT_DOUBLE_EQ(series.average(0, 2), 15.0);
  EXPECT_DOUBLE_EQ(series.overall_average(), 15.0);
  EXPECT_DOUBLE_EQ(series.peak(), 30.0);
}

TEST(ThroughputSeries, AverageIncludesFinalPartialBin) {
  // Regression: truncating a fractional to_s dropped the final partial
  // bin. Bin t covers [t, t+1), so averaging over [10.0, 10.5) must see
  // the commits that landed in bin 10.
  const auto ledger = ledger_with_commits({{10.2, 40}});
  ThroughputSeries series(ledger, sim::sec(20));
  EXPECT_DOUBLE_EQ(series.average(10.0, 10.5), 40.0);
  EXPECT_DOUBLE_EQ(series.average(9.5, 10.5), 20.0);
  // Integral bounds are unchanged by the ceil.
  EXPECT_DOUBLE_EQ(series.average(10.0, 11.0), 40.0);
  EXPECT_DOUBLE_EQ(series.average(11.0, 12.0), 0.0);
}

TEST(RecoveryDetector, FractionalClearingIsNotReportedEarly) {
  // Regression: flooring after_s let the scan start one bin before the
  // fault actually cleared, reporting recovery up to ~1 s early (even
  // negative). Commits run from t=9 on; the fault clears at 9.5: recovery
  // is at the t=10 bin boundary, 0.5 s after the clearing — not -0.5.
  std::vector<std::pair<double, int>> commits;
  for (int t = 9; t < 30; ++t) commits.push_back({t + 0.5, 50});
  ThroughputSeries series(ledger_with_commits(commits), sim::sec(30));
  EXPECT_DOUBLE_EQ(recovery_seconds(series, 9.5, 25.0), 0.5);
  // An integral after_s anchors exactly on its own bin as before.
  EXPECT_DOUBLE_EQ(recovery_seconds(series, 9.0, 25.0), 0.0);
}

TEST(RecoveryDetector, FindsSustainedRecovery) {
  // Dead from t=10 to t=20, then back to 50 tps.
  std::vector<std::pair<double, int>> commits;
  for (int t = 0; t < 10; ++t) commits.push_back({t + 0.5, 50});
  for (int t = 20; t < 40; ++t) commits.push_back({t + 0.5, 50});
  ThroughputSeries series(ledger_with_commits(commits), sim::sec(40));
  EXPECT_DOUBLE_EQ(recovery_seconds(series, 10.0, 25.0), 10.0);
  EXPECT_DOUBLE_EQ(recovery_seconds(series, 20.0, 25.0), 0.0);
}

TEST(RecoveryDetector, NeverRecoversIsNegative) {
  std::vector<std::pair<double, int>> commits;
  for (int t = 0; t < 10; ++t) commits.push_back({t + 0.5, 50});
  ThroughputSeries series(ledger_with_commits(commits), sim::sec(40));
  EXPECT_LT(recovery_seconds(series, 10.0, 25.0), 0.0);
}

TEST(RecoveryDetector, WindowRejectsSmallBursts) {
  // A burst too small to average out to the threshold over the window does
  // not count as recovery.
  std::vector<std::pair<double, int>> commits;
  commits.push_back({15.5, 120});  // lone burst, then silence
  ThroughputSeries series(ledger_with_commits(commits), sim::sec(40));
  EXPECT_LT(recovery_seconds(series, 10.0, 50.0, 5.0), 0.0);
}

TEST(RecoveryDetector, AnchorsOnCommitCarryingBin) {
  // The window must start at an actual commit, not at empty seconds that
  // happen to precede a backlog peak.
  std::vector<std::pair<double, int>> commits;
  for (int t = 20; t < 40; ++t) commits.push_back({t + 0.5, 200});
  ThroughputSeries series(ledger_with_commits(commits), sim::sec(40));
  EXPECT_DOUBLE_EQ(recovery_seconds(series, 10.0, 50.0, 5.0), 10.0);
}

TEST(Table, RendersAlignedMarkdown) {
  Table table({"a", "longer"});
  table.add_row({"x", "1"});
  table.add_row({"yy", "2"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| a  | longer |"), std::string::npos);
  EXPECT_NE(text.find("| yy | 2      |"), std::string::npos);
}

TEST(Table, NumFormatsInfinity) {
  EXPECT_EQ(Table::num(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
}

TEST(Table, NumPrintsEveryDigitOfLargeValues) {
  // A repro or metrics dump must read back to the value it printed.
  EXPECT_EQ(std::strtod(Table::num(1e300, 2).c_str(), nullptr), 1e300);
  EXPECT_EQ(Table::num(std::numeric_limits<double>::max(), 6).size(),
            309u + 7u);  // 309 integer digits, '.', 6 decimals
}

TEST(RenderTimeseries, ProducesOneRowPerBucket) {
  std::vector<double> series(40, 100.0);
  const std::string text = render_timeseries(series, 10.0);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("100.0 tps"), std::string::npos);
}

TEST(RenderEcdfPair, MarksBothCurves) {
  Ecdf base({1.0, 2.0, 3.0});
  Ecdf alt({4.0, 8.0, 12.0});
  const std::string text = render_ecdf_pair(base, alt);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find("baseline"), std::string::npos);
}

TEST(Radar, StoresAndRendersScores) {
  RadarSummary radar;
  SensitivityScore score;
  score.value = 12.34;
  radar.record(ChainKind::kSolana, FaultType::kCrash, score);
  SensitivityScore dead;
  dead.infinite = true;
  dead.value = std::numeric_limits<double>::infinity();
  radar.record(ChainKind::kSolana, FaultType::kTransient, dead);
  ASSERT_NE(radar.get(ChainKind::kSolana, FaultType::kCrash), nullptr);
  EXPECT_EQ(radar.get(ChainKind::kSolana, FaultType::kPartition), nullptr);
  const std::string table = radar.to_table();
  EXPECT_NE(table.find("12.34"), std::string::npos);
  EXPECT_NE(table.find("inf"), std::string::npos);
  EXPECT_NE(table.find("solana"), std::string::npos);
}

TEST(CsvJoin, JoinsWithCommas) {
  EXPECT_EQ(csv_join({"a", "b", "c"}), "a,b,c");
  EXPECT_EQ(csv_join({}), "");
}

}  // namespace
}  // namespace stabl::core
