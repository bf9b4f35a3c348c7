// Tests for the parallel campaign engine: the work-stealing-free thread
// pool, the run_grid fan-out every campaign runner shares, the paper_cell
// rule they all build cells with, byte-identical serial-vs-parallel
// campaign output, seed-sweep aggregation, worst-seed gating, and
// EventQueue bookkeeping when a simulation is constructed per worker
// thread.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/attribution.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "sim/event_queue.hpp"
#include "sim/lifecycle.hpp"
#include "sim/trace.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleJobIsSerialOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no lock needed: serial by construction
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no indexes to run"; });
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("cell failed");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives the failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ClampsZeroJobsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.jobs(), 1u);
  std::atomic<int> ran{0};
  pool.parallel_for(3, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

// --------------------------------------------------------------- run_grid

TEST(RunGrid, SlotsComeBackInCellOrderAtAnyJobs) {
  const std::vector<int> cells{0, 1, 2, 3, 4, 5, 6, 7};
  for (const unsigned jobs : {1u, 4u}) {
    std::mutex mutex;
    std::vector<int> finished;
    std::atomic<bool> later_finished{false};
    const GridResult<int> grid = run_grid(
        cells, jobs, "test", false, [&](const int& cell) {
          // With several lanes, cell 0 is held until a later cell has
          // finished, so completion order differs from cell order.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (cell == 0 && jobs > 1 && !later_finished.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          {
            std::lock_guard<std::mutex> lock(mutex);
            finished.push_back(cell);
          }
          if (cell != 0) later_finished.store(true);
          return cell * 10;
        });
    EXPECT_EQ(grid.slots, (std::vector<int>{0, 10, 20, 30, 40, 50, 60, 70}))
        << "jobs " << jobs;
    EXPECT_EQ(grid.wall_ms.size(), cells.size());
    ASSERT_EQ(finished.size(), cells.size());
    if (jobs == 1) {
      EXPECT_EQ(finished, cells);
    } else {
      EXPECT_NE(finished.front(), 0) << "a later cell finishes first";
    }
  }
}

TEST(RunGrid, RethrowsTheFirstException) {
  const std::vector<int> cells{0, 1, 2, 3, 4, 5, 6, 7};
  const auto fn = [](const int& cell) {
    if (cell == 3 || cell == 5) {
      throw std::runtime_error("cell " + std::to_string(cell));
    }
    return cell;
  };
  try {
    run_grid(cells, 1, "test", false, fn);
    FAIL() << "run_grid must rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "cell 3");
  }
  EXPECT_THROW(run_grid(cells, 4, "test", false, fn), std::runtime_error);
}

TEST(RunGrid, OnDoneOncePerCellNeverConcurrently) {
  std::vector<std::size_t> cells(64);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  std::vector<int> calls(cells.size(), 0);
  std::atomic<int> inside{0};
  const GridResult<std::size_t> grid = run_grid(
      cells, 4, "test", false, [](const std::size_t& cell) { return cell; },
      [&](const std::size_t& cell, const std::size_t& result) {
        EXPECT_EQ(inside.fetch_add(1), 0) << "on_done must be serialized";
        EXPECT_EQ(result, cell);
        ++calls[cell];
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        inside.fetch_sub(1);
      });
  EXPECT_EQ(grid.slots, cells);
  for (const int count : calls) EXPECT_EQ(count, 1);
}

TEST(RunGrid, NeverStartsMoreLanesThanCells) {
  // grid_lanes is what run_grid sizes its pool with; checking it directly
  // proves the cap without starting a thread per requested lane.
  EXPECT_EQ(grid_lanes(3, 1'000'000), 3u);
  EXPECT_EQ(grid_lanes(100, 4), 4u);
  EXPECT_EQ(grid_lanes(0, 8), 1u);
  EXPECT_EQ(grid_lanes(5, 0), 1u);
  const std::vector<int> cells{1, 2};
  EXPECT_EQ(run_grid(cells, kMaxJobs, "test", false,
                     [](const int& cell) { return cell * 10; })
                .slots,
            (std::vector<int>{10, 20}));
}

// ------------------------------------------------------------ paper_cell

TEST(PaperCell, SecureClientGetsSection7GeometryAndDetachedObservers) {
  sim::TraceSink sink;
  MetricsRegistry registry;
  sim::LifecycleRecorder recorder;
  ExperimentConfig base;
  base.trace = &sink;
  base.metrics = &registry;
  base.lifecycle = &recorder;

  const ExperimentConfig secure =
      paper_cell(base, ChainKind::kAptos, FaultType::kSecureClient, 7);
  EXPECT_EQ(secure.chain, ChainKind::kAptos);
  EXPECT_EQ(secure.fault, FaultType::kSecureClient);
  EXPECT_EQ(secure.seed, 7u);
  EXPECT_EQ(secure.client_fanout, 4);
  EXPECT_EQ(secure.vcpus, 8.0);
  EXPECT_EQ(secure.trace, nullptr);
  EXPECT_EQ(secure.metrics, nullptr);
  EXPECT_EQ(secure.lifecycle, nullptr);

  const ExperimentConfig crash =
      paper_cell(base, ChainKind::kAptos, FaultType::kCrash, 7);
  EXPECT_EQ(crash.client_fanout, base.client_fanout);
  EXPECT_EQ(crash.vcpus, base.vcpus);
  EXPECT_EQ(crash.trace, nullptr);
}

// Campaign, mitigation (unmitigated twin) and attribution (altered twin)
// must all run paper_cell's config for the same (chain, secure-client,
// seed): their reports match a direct run of that config, and the
// observers attached to the shared template never see an event.
TEST(PaperCell, EveryRunnerRunsTheSameSecureClientCell) {
  sim::TraceSink sink;
  MetricsRegistry registry;
  ExperimentConfig base;
  base.duration = sim::sec(30);
  base.inject_at = sim::sec(10);
  base.recover_at = sim::sec(20);
  base.trace = &sink;
  base.metrics = &registry;
  const ChainKind chain = ChainKind::kRedbelly;
  const FaultType fault = FaultType::kSecureClient;

  const ExperimentConfig cell = paper_cell(base, chain, fault, base.seed);
  const SensitivityRun expected = run_sensitivity(cell);
  const std::string expected_json = to_json(chain, fault, expected);

  // The §7 geometry is what makes the cell: the one-node client differs.
  ExperimentConfig one_node = cell;
  one_node.client_fanout = 1;
  one_node.vcpus = 4.0;
  EXPECT_NE(run_experiment(one_node).mean_latency_s,
            expected.altered.mean_latency_s);

  CampaignConfig campaign;
  campaign.chains = {chain};
  campaign.faults = {fault};
  campaign.base = base;
  const CampaignResult campaign_result = run_campaign(campaign);
  ASSERT_NE(campaign_result.get(chain, fault), nullptr);
  EXPECT_EQ(to_json(chain, fault, *campaign_result.get(chain, fault)),
            expected_json);

  MitigationConfig mitigation;
  mitigation.chains = {chain};
  mitigation.faults = {fault};
  mitigation.base = base;
  mitigation.layers = {false, false, false};
  const MitigationResult mitigation_result =
      run_mitigation_campaign(mitigation);
  ASSERT_EQ(mitigation_result.pairs.size(), 1u);
  EXPECT_EQ(to_json(chain, fault, mitigation_result.pairs[0].unmitigated),
            expected_json);

  AttributionConfig attribution;
  attribution.chains = {chain};
  attribution.faults = {fault};
  attribution.base = base;
  const AttributionReport report = run_attribution(attribution);
  ASSERT_EQ(report.cells.size(), 1u);
  const AttributionCell& attributed = report.cells[0];
  EXPECT_EQ(attributed.seed, cell.seed);
  EXPECT_EQ(format_score(attributed.score), format_score(expected.score));
  EXPECT_EQ(attributed.altered_live_at_end, expected.altered.live_at_end);
  EXPECT_EQ(attributed.measured_latency_delta_s,
            expected.altered.mean_latency_s - expected.baseline.mean_latency_s);

  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(registry.sample_times().empty());
}

// ------------------------------------------- EventQueue per worker thread
// Each worker constructs its own simulation state; the queue's cancel
// bookkeeping (eager removal from the indexed heap, slot recycling
// through the free list) must stay consistent with no sharing between
// threads.

TEST(EventQueuePerThread, CancelBookkeepingStaysConsistentPerThread) {
  ThreadPool pool(4);
  pool.parallel_for(8, [](std::size_t lane) {
    sim::EventQueue queue;
    std::vector<sim::TimerId> ids;
    const int n = 300 + static_cast<int>(lane);
    for (int i = 0; i < n; ++i) {
      ids.push_back(queue.schedule(sim::ms(i % 50), [] {}));
    }
    std::size_t live = ids.size();
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      queue.cancel(ids[i]);
      --live;
    }
    ASSERT_EQ(queue.size(), live);
    EXPECT_FALSE(queue.empty());
    sim::Time at{};
    sim::Time last{-1};
    std::size_t popped = 0;
    while (!queue.empty()) {
      ASSERT_GE(queue.next_time(), last);
      last = queue.next_time();
      queue.pop(at)();
      ++popped;
      ASSERT_EQ(queue.size(), live - popped);
    }
    EXPECT_EQ(popped, live);
    EXPECT_EQ(queue.size(), 0u);
  });
}

// ------------------------------------------------- campaign determinism

CampaignConfig tiny_campaign() {
  CampaignConfig config;
  config.chains = {ChainKind::kRedbelly};
  config.faults = {FaultType::kNone, FaultType::kCrash};
  config.base.duration = sim::sec(30);
  config.base.inject_at = sim::sec(10);
  config.base.recover_at = sim::sec(20);
  config.num_seeds = 2;
  return config;
}

TEST(CampaignParallel, ParallelOutputByteIdenticalToSerial) {
  CampaignConfig serial = tiny_campaign();
  serial.jobs = 1;
  CampaignConfig parallel = tiny_campaign();
  parallel.jobs = 4;
  const CampaignResult a = run_campaign(serial);
  const CampaignResult b = run_campaign(parallel);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.radar.to_table(), b.radar.to_table());
  EXPECT_EQ(a.radar.sweep_table(), b.radar.sweep_table());
}

TEST(CampaignParallel, CallbackSerializedAndCalledPerCellSeed) {
  CampaignConfig config = tiny_campaign();
  config.jobs = 4;
  std::atomic<int> concurrent{0};
  std::atomic<int> calls{0};
  config.on_cell_done = [&](ChainKind, FaultType, std::uint64_t,
                            const SensitivityRun&) {
    EXPECT_EQ(concurrent.fetch_add(1), 0) << "callback must be serialized";
    calls.fetch_add(1);
    concurrent.fetch_sub(1);
  };
  run_campaign(config);
  EXPECT_EQ(calls.load(), 4);  // 1 chain x 2 faults x 2 seeds
}

// ------------------------------------------------------------ seed sweep

TEST(CampaignSweep, AggregatesAcrossSeeds) {
  const CampaignResult result = run_campaign(tiny_campaign());
  EXPECT_EQ(result.seeds, (std::vector<std::uint64_t>{42, 43}));
  const SeedSweepStats* stats =
      result.sweep(ChainKind::kRedbelly, FaultType::kCrash);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->seeds, 2u);
  EXPECT_EQ(stats->finite, 2u) << "Redbelly survives f = t crashes";
  EXPECT_EQ(stats->liveness_losses, 0u);
  EXPECT_LE(stats->min, stats->mean);
  EXPECT_LE(stats->mean, stats->max);
  EXPECT_GE(stats->stddev, 0.0);
  const auto& runs =
      result.seed_runs.at({ChainKind::kRedbelly, FaultType::kCrash});
  ASSERT_EQ(runs.size(), 2u);
  // The representative run is the first seed's.
  const SensitivityRun* rep =
      result.get(ChainKind::kRedbelly, FaultType::kCrash);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->score.value, runs.front().score.value);
}

TEST(CampaignSweep, ExplicitSeedListWinsOverNumSeeds) {
  CampaignConfig config;
  config.seeds = {7, 99, 3};
  config.num_seeds = 10;
  EXPECT_EQ(seed_list(config.seeds, config.num_seeds, config.base.seed),
            (std::vector<std::uint64_t>{7, 99, 3}));
  config.seeds.clear();
  config.num_seeds = 3;
  config.base.seed = 5;
  EXPECT_EQ(seed_list(config.seeds, config.num_seeds, config.base.seed),
            (std::vector<std::uint64_t>{5, 6, 7}));
}

TEST(AggregateSeedSweep, StatsOverFiniteScoresOnly) {
  SensitivityRun finite1;
  finite1.score.value = 2.0;
  SensitivityRun finite2;
  finite2.score.value = 6.0;
  SensitivityRun dead;
  dead.score.infinite = true;
  dead.score.value = std::numeric_limits<double>::infinity();
  const SeedSweepStats stats =
      aggregate_seed_sweep({finite1, dead, finite2});
  EXPECT_EQ(stats.seeds, 3u);
  EXPECT_EQ(stats.finite, 2u);
  EXPECT_EQ(stats.liveness_losses, 1u);
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
  EXPECT_DOUBLE_EQ(stats.min, 2.0);
  EXPECT_DOUBLE_EQ(stats.max, 6.0);
  EXPECT_NEAR(stats.stddev, 2.828427, 1e-5);  // sample stddev of {2, 6}
}

// ---------------------------------------------------- worst-seed gating

CampaignResult hand_built_result(double min_score, double max_score,
                                 std::size_t losses) {
  CampaignResult result;
  const CampaignResult::CellKey key{ChainKind::kRedbelly,
                                    FaultType::kCrash};
  SensitivityRun rep;
  rep.score.value = min_score;
  rep.altered.live_at_end = true;
  result.runs.emplace(key, rep);
  SeedSweepStats stats;
  stats.seeds = 3;
  stats.finite = 3 - losses;
  stats.liveness_losses = losses;
  stats.mean = (min_score + max_score) / 2.0;
  stats.min = min_score;
  stats.max = max_score;
  result.sweeps.emplace(key, stats);
  return result;
}

TEST(CampaignGateCheck, GatesOnWorstSeed) {
  CampaignGate gate;
  gate.max_score[FaultType::kCrash] = 4.0;
  // Representative (first-seed) score 1.0 passes, but the worst seed
  // scored 9.0: the gate must flag the cell.
  const auto violations =
      check_gate(hand_built_result(1.0, 9.0, 0), gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("exceeds gate"), std::string::npos);
  EXPECT_NE(violations[0].find("worst of 3 seeds"), std::string::npos);
  // All seeds within the bound: no violation.
  EXPECT_TRUE(check_gate(hand_built_result(1.0, 3.5, 0), gate).empty());
}

TEST(CampaignGateCheck, AnySeedLivenessLossIsFlagged) {
  CampaignGate gate;
  gate.max_score[FaultType::kCrash] = 1e9;
  const auto violations =
      check_gate(hand_built_result(1.0, 2.0, 1), gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("unexpected liveness loss"),
            std::string::npos);
  EXPECT_NE(violations[0].find("1/3 seeds"), std::string::npos);
}

TEST(CampaignGateCheck, ExpectedInfiniteRequiresEverySeedDead) {
  CampaignGate gate;
  gate.expected_infinite = {{ChainKind::kRedbelly, FaultType::kCrash}};
  // One seed survived: violation.
  const auto violations =
      check_gate(hand_built_result(1.0, 2.0, 2), gate);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("expected liveness loss"),
            std::string::npos);
  // Every seed dead: passes.
  EXPECT_TRUE(check_gate(hand_built_result(0.0, 0.0, 3), gate).empty());
}

}  // namespace
}  // namespace stabl::core
