// Self-tests of the benchmark's traced-run seams: the timed chains must be
// invisible to everything but the benchmark's own clocks.
#include <gtest/gtest.h>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "sim/lifecycle.hpp"

namespace stablbench {
namespace {

// Queued at static initialisation, before any test queries the registry.
const bool kTimedChainsQueued = (register_timed_chains(), true);

TEST(TimedChains, LeaveExistingIdsUnchanged) {
  ASSERT_TRUE(kTimedChainsQueued);
  const chain::Registry& registry = core::chain_registry();
  const char* const paper[] = {"algorand", "aptos", "avalanche", "redbelly",
                               "solana"};
  for (chain::ChainId id = 0; id < 5; ++id) {
    EXPECT_EQ(registry.traits(id).name, paper[id]);
    EXPECT_EQ(registry.traits(id + 5).name,
              std::string("nversion_") + paper[id]);
    const chain::ChainId timed = registry.id_of(std::string("timed_") + paper[id]);
    EXPECT_GE(timed, 10u);
    EXPECT_EQ(core::chain_kind(timed), timed_chain(core::chain_kind(id)));
    EXPECT_EQ(registry.traits(timed).tier, 2);
    EXPECT_EQ(registry.traits(timed).meta_of, paper[id]);
    EXPECT_EQ(registry.traits(timed).default_params,
              registry.traits(id).default_params);
    EXPECT_EQ(registry.traits(timed).loss_exemptions.size(),
              registry.traits(id).loss_exemptions.size());
    EXPECT_EQ(registry.traits(timed).fault_tolerance(10),
              registry.traits(id).fault_tolerance(10));
  }
}

core::ExperimentConfig transient_cell(core::ChainKind chain) {
  core::ExperimentConfig config;
  config.chain = chain;
  config.seed = 7;
  config.duration = sim::sec(30);
  config.fault = core::FaultType::kTransient;
  config.inject_at = sim::sec(10);
  config.recover_at = sim::sec(20);
  return config;
}

TEST(TimedChains, ProxiedCellEqualsPlainCell) {
  for (const core::ChainKind chain : core::kAllChains) {
    const core::ExperimentConfig config = transient_cell(chain);
    const core::ExperimentResult plain = core::run_experiment(config);
    CellProbe probe;
    const core::ExperimentResult timed = run_timed(config, probe);
    EXPECT_EQ(experiment_text(plain), experiment_text(timed))
        << core::to_string(chain);
    EXPECT_GT(probe.msgs_in, 0u);
    EXPECT_LE(probe.msgs_in, timed.net_stats.delivered);
    EXPECT_GT(probe.deliver_s, 0.0);
    EXPECT_EQ(probe.proxies.size(), config.n);
  }
}

TEST(TimedChains, TracedReplayEqualsPlainCell) {
  // The traced replay also carries a metrics registry with a host-clock
  // probe and a lifecycle recorder; neither may perturb the run.
  core::ExperimentConfig config = transient_cell(core::ChainKind::kSolana);
  config.resilience.enabled = true;
  const core::ExperimentResult plain = core::run_experiment(config);
  core::MetricsRegistry registry;
  registry.add_gauge("bench_host_clock_s", [] { return host_now_s(); });
  sim::LifecycleRecorder recorder;
  core::ExperimentConfig traced = config;
  traced.metrics = &registry;
  traced.lifecycle = &recorder;
  CellProbe probe;
  const core::ExperimentResult timed = run_timed(traced, probe);
  EXPECT_EQ(experiment_text(plain), experiment_text(timed));
  EXPECT_FALSE(recorder.records().empty());
  EXPECT_EQ(registry.sample_times().size(), 30u);
}

TEST(TimedChains, CollectorCountsEveryClusterBuilt) {
  ProbeCollector collector;
  core::ExperimentConfig config = transient_cell(core::ChainKind::kRedbelly);
  config.chain = timed_chain(config.chain);
  {
    const ProbeCollector::Scope scope(collector);
    core::run_sensitivity(config);
  }
  EXPECT_EQ(collector.size(), 2u);  // baseline and altered
  core::run_experiment(config);    // outside the scope: not counted
  EXPECT_EQ(collector.size(), 2u);
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(make_workload("no_such_workload", 1), std::invalid_argument);
  for (const std::string& name : workload_names()) {
    EXPECT_GT(make_workload(name, 1)->unit_sims(), 0u) << name;
  }
}

TEST(Digests, DistinguishResults) {
  core::ExperimentResult a;
  core::ExperimentResult b;
  EXPECT_EQ(digest_hex(experiment_text(a)), digest_hex(experiment_text(b)));
  b.latencies.push_back(1.0);
  EXPECT_NE(digest_hex(experiment_text(a)), digest_hex(experiment_text(b)));
  EXPECT_EQ(digest_hex("").size(), 16u);
}

}  // namespace
}  // namespace stablbench
