// Production traffic model (core/traffic.hpp): preset layering, strict
// validation, deterministic population assignment, scenario round trips,
// and the property the layer exists for — hot-key contention measurably
// degrading the chains whose execution/ordering model it stresses.
#include "core/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------------ names and presets

TEST(Traffic, ShapeNamesRoundTripThroughParseAndToString) {
  for (const std::string& name : workload_shape_names()) {
    EXPECT_EQ(to_string(parse_workload_shape(name)), name);
    EXPECT_FALSE(workload_shape_description(name).empty()) << name;
  }
}

TEST(Traffic, UnknownShapeErrorListsTheValidNames) {
  try {
    (void)parse_workload_shape("spiky");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("spiky"), std::string::npos) << what;
    EXPECT_NE(what.find("constant, bursty, ramp, diurnal, flash"),
              std::string::npos)
        << what;
  }
}

TEST(Traffic, UnknownPresetErrorListsTheValidNames) {
  try {
    (void)traffic_preset("flash_sale");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("exchange_burst, nft_mint, dex_sustained"),
              std::string::npos)
        << what;
  }
}

TEST(Traffic, EveryPresetIsValidAndDescribed) {
  for (const std::string& name : traffic_preset_names()) {
    TrafficSpec spec = traffic_preset(name);
    EXPECT_EQ(validate_traffic(spec), "") << name;
    EXPECT_FALSE(traffic_preset_description(name).empty()) << name;
    // Each preset departs from the legacy population on at least one axis.
    EXPECT_TRUE(resolve_traffic(spec).active()) << name;
  }
}

TEST(Traffic, PresetFillsDefaultsButExplicitKnobsWin) {
  TrafficSpec spec;
  spec.preset = "exchange_burst";
  spec.hot_fraction = 0.5;  // explicit: must survive the preset
  apply_traffic_preset(spec);
  EXPECT_EQ(spec.shape, "flash");           // filled from the preset
  EXPECT_EQ(spec.accounts_per_client, 32);  // filled from the preset
  EXPECT_DOUBLE_EQ(spec.hot_fraction, 0.5);
  EXPECT_EQ(spec.fault_phase, "burst");
}

// ------------------------------------------------------------- validation

TEST(Traffic, ValidationRejectsOutOfRangeKnobsWithTheFieldName) {
  TrafficSpec spec;
  spec.hot_fraction = 1.5;
  EXPECT_NE(validate_traffic(spec).find("\"traffic.hot_fraction\""),
            std::string::npos);
  spec = TrafficSpec{};
  spec.accounts_per_client = 0;
  EXPECT_NE(validate_traffic(spec).find("\"traffic.accounts_per_client\""),
            std::string::npos);
  spec = TrafficSpec{};
  spec.shape = "spiky";
  const std::string what = validate_traffic(spec);
  EXPECT_NE(what.find("\"traffic.shape\""), std::string::npos);
  EXPECT_NE(what.find("constant, bursty, ramp, diurnal, flash"),
            std::string::npos);
  spec = TrafficSpec{};
  spec.preset = "mystery";
  EXPECT_NE(validate_traffic(spec).find(
                "exchange_burst, nft_mint, dex_sustained"),
            std::string::npos);
  spec = TrafficSpec{};
  spec.fault_phase = "lull";
  EXPECT_NE(validate_traffic(spec).find("steady or burst"),
            std::string::npos);
}

// Each client allocates per-account arrays and its profile counts accounts
// in 32 bits, so the population per client is bounded.
TEST(Traffic, ValidationBoundsAccountsPerClient) {
  TrafficSpec spec;
  spec.accounts_per_client = kMaxAccountsPerClient;
  EXPECT_EQ(validate_traffic(spec), "");
  spec.accounts_per_client = kMaxAccountsPerClient + 1;
  EXPECT_NE(validate_traffic(spec).find(
                "\"traffic.accounts_per_client\" must be <= 1000000"),
            std::string::npos);
  spec.accounts_per_client = 9'000'000'000'000'000;
  EXPECT_NE(validate_traffic(spec), "");
}

// ------------------------------------------------- population determinism

TEST(Traffic, ClientPlansAreDeterministicAndDisjoint) {
  TrafficConfig config;
  config.accounts_per_client = 8;
  config.zipf_exponent = 1.2;
  config.regions = 3;
  TrafficModel model(config);
  const ClientTrafficPlan first = make_client_plan(config, model, 0, 42);
  const ClientTrafficPlan again = make_client_plan(config, model, 0, 42);
  EXPECT_EQ(first.accounts, again.accounts);
  EXPECT_EQ(first.zipf_cdf, again.zipf_cdf);
  EXPECT_EQ(first.rng_seed, again.rng_seed);

  const ClientTrafficPlan second = make_client_plan(config, model, 1, 42);
  EXPECT_NE(first.rng_seed, second.rng_seed);
  EXPECT_EQ(first.region, 0u);
  EXPECT_EQ(second.region, 1u);
  EXPECT_EQ(make_client_plan(config, model, 3, 42).region, 0u);  // 3 % 3
  // Account ranges never overlap between clients.
  for (const chain::AccountId account : first.accounts) {
    EXPECT_EQ(std::count(second.accounts.begin(), second.accounts.end(),
                         account),
              0);
  }
  ASSERT_EQ(first.accounts.size(), 8u);
  ASSERT_EQ(first.zipf_cdf.size(), 8u);
  // The CDF is monotone and normalized; the head is the whale.
  EXPECT_TRUE(std::is_sorted(first.zipf_cdf.begin(), first.zipf_cdf.end()));
  EXPECT_DOUBLE_EQ(first.zipf_cdf.back(), 1.0);
  EXPECT_GT(first.zipf_cdf.front(), 1.0 / 8.0);
}

TEST(Traffic, ZipfPickCoversTheWholeSupport) {
  TrafficConfig config;
  config.accounts_per_client = 4;
  config.zipf_exponent = 1.0;
  TrafficModel model(config);
  const ClientTrafficPlan plan = make_client_plan(config, model, 0, 7);
  EXPECT_EQ(zipf_pick(plan.zipf_cdf, 0.0), 0u);
  EXPECT_EQ(zipf_pick(plan.zipf_cdf, plan.zipf_cdf[0] - 1e-12), 0u);
  EXPECT_EQ(zipf_pick(plan.zipf_cdf, plan.zipf_cdf[0] + 1e-12), 1u);
  EXPECT_EQ(zipf_pick(plan.zipf_cdf, 0.999999999), 3u);
}

TEST(Traffic, HotNoncesAreGloballySequenced) {
  TrafficConfig config;
  config.hot_fraction = 0.3;
  TrafficModel model(config);
  EXPECT_EQ(model.next_hot_nonce(), 0u);
  EXPECT_EQ(model.next_hot_nonce(), 1u);
  EXPECT_EQ(model.next_hot_nonce(), 2u);
  EXPECT_EQ(model.hot_submitted(), 3u);
}

// --------------------------------------------------- scenario round trips

TEST(Traffic, ScenarioWithTrafficRoundTripsByteStably) {
  ScenarioSpec spec;
  spec.chain = "aptos";
  spec.fault = "crash";
  spec.has_traffic = true;
  spec.traffic.preset = "nft_mint";
  spec.traffic.hot_fraction = 0.4;
  const std::string json = scenario_to_json(spec);
  EXPECT_EQ(scenario_from_json(json), spec);
  EXPECT_EQ(scenario_to_json(scenario_from_json(json)), json);
}

TEST(Traffic, TrafficFreeScenarioDumpsNoTrafficObject) {
  const ScenarioSpec spec;
  EXPECT_EQ(scenario_to_json(spec).find("\"traffic\""), std::string::npos);
}

TEST(Traffic, ScenarioRejectsUnknownAndDuplicateTrafficKeys) {
  try {
    (void)scenario_from_json(R"({"traffic": {"hot": 0.3}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("traffic.hot"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(
      (void)scenario_from_json(
          R"({"traffic": {"regions": 2, "regions": 3}})"),
      std::invalid_argument);
}

TEST(Traffic, ScenarioValidationRejectsBadTrafficValues) {
  try {
    (void)scenario_from_json(R"({"traffic": {"preset": "flash_sale"}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("exchange_burst, nft_mint, dex_sustained"),
              std::string::npos)
        << error.what();
  }
}

// ------------------------------------------------------------- resolution

TEST(Traffic, ResolveAppliesPresetShapeAndBurstPhaseWindows) {
  ScenarioSpec spec;
  spec.fault = "crash";
  spec.has_traffic = true;
  spec.traffic.preset = "exchange_burst";
  const ResolvedScenario resolved = resolve_scenario(spec);
  EXPECT_EQ(resolved.config.workload.shape, WorkloadShape::kFlash);
  EXPECT_TRUE(resolved.config.traffic.active());
  EXPECT_EQ(resolved.config.traffic.accounts_per_client, 32u);
  EXPECT_EQ(resolved.config.traffic.regions, 3u);
  // fault_phase "burst": the crash lands centred inside the flash crowd
  // (150 s + 50 s window), not at the historical 133 s / 266 s thirds.
  EXPECT_EQ(resolved.config.inject_at, sim::Duration(sim::sec(150) + sim::sec(50) / 4));
  EXPECT_EQ(resolved.config.recover_at,
            sim::Duration(sim::sec(150) + (3 * sim::sec(50)) / 4));
}

TEST(Traffic, ResolveWithoutTrafficKeepsTheLegacyConfig) {
  ScenarioSpec spec;
  spec.fault = "crash";
  const ResolvedScenario resolved = resolve_scenario(spec);
  EXPECT_FALSE(resolved.config.traffic.active());
  EXPECT_EQ(resolved.config.inject_at, sim::sec(133));
  EXPECT_EQ(resolved.config.recover_at, sim::sec(266));
}

// -------------------------------------------- measured hot-key contention

// Block-STM's optimistic parallelism collapses on a contended key: every
// hot transaction in a block past the first costs a conflict re-execution.
// The sweep must show the counter firing and the throughput/latency cost
// growing with the hot fraction — and the counter absent when contention
// is off (elide-when-zero keeps legacy reports byte-identical).
TEST(Traffic, HotKeyContentionDegradesAptosBlockStm) {
  auto run_with = [](double hot_fraction) {
    ExperimentConfig config;
    config.chain = ChainKind::kAptos;
    config.duration = sim::sec(60);
    config.traffic.accounts_per_client = 4;
    config.traffic.hot_fraction = hot_fraction;
    return run_experiment(config);
  };
  const ExperimentResult cold = run_with(0.0);
  const ExperimentResult hot = run_with(0.6);
  EXPECT_EQ(cold.chain_metrics.count("stm_conflict_reexecs"), 0u);
  ASSERT_EQ(hot.chain_metrics.count("stm_conflict_reexecs"), 1u);
  EXPECT_GT(hot.chain_metrics.at("stm_conflict_reexecs"), 1000.0);
  EXPECT_GT(hot.mean_latency_s, cold.mean_latency_s * 1.05);
  EXPECT_LE(hot.committed, cold.committed);
  std::printf("[aptos hot-key] hot=0.0 committed=%llu mean=%.3fs | "
              "hot=0.6 committed=%llu mean=%.3fs reexecs=%.0f\n",
              static_cast<unsigned long long>(cold.committed),
              cold.mean_latency_s,
              static_cast<unsigned long long>(hot.committed),
              hot.mean_latency_s,
              hot.chain_metrics.at("stm_conflict_reexecs"));
}

// Avalanche gossips transactions out of an unordered pool, so the shared
// hot wallet's globally-sequenced nonces arrive at proposers with gaps:
// lower nonces seeded at other entry nodes haven't gossiped over yet, and
// everything behind the gap is unproposable. The stall counter must fire
// and throughput must drop against the contention-free twin.
TEST(Traffic, HotKeyContentionStallsAvalancheNonceOrdering) {
  auto run_with = [](double hot_fraction) {
    ExperimentConfig config;
    config.chain = ChainKind::kAvalanche;
    config.duration = sim::sec(60);
    config.traffic.accounts_per_client = 4;
    config.traffic.hot_fraction = hot_fraction;
    return run_experiment(config);
  };
  const ExperimentResult cold = run_with(0.0);
  const ExperimentResult hot = run_with(0.5);
  EXPECT_EQ(cold.chain_metrics.count("hot_nonce_stalls"), 0u);
  ASSERT_EQ(hot.chain_metrics.count("hot_nonce_stalls"), 1u);
  EXPECT_GT(hot.chain_metrics.at("hot_nonce_stalls"), 100.0);
  EXPECT_LT(hot.committed, cold.committed);
  std::printf("[avalanche hot-key] hot=0.0 committed=%llu mean=%.3fs | "
              "hot=0.5 committed=%llu mean=%.3fs stalls=%.0f\n",
              static_cast<unsigned long long>(cold.committed),
              cold.mean_latency_s,
              static_cast<unsigned long long>(hot.committed),
              hot.mean_latency_s,
              hot.chain_metrics.at("hot_nonce_stalls"));
}

// Regions map onto extra client->cluster link latency: a spread population
// keeps committing, and its observed commit latency rises with distance.
TEST(Traffic, RegionSpreadRaisesObservedLatency) {
  auto run_with = [](std::size_t regions, double spread_ms) {
    ExperimentConfig config;
    config.chain = ChainKind::kRedbelly;
    config.duration = sim::sec(60);
    config.traffic.accounts_per_client = 2;  // activates the population
    config.traffic.regions = regions;
    config.traffic.region_spread = sim::ms(spread_ms);
    return run_experiment(config);
  };
  const ExperimentResult near = run_with(1, 0.0);
  const ExperimentResult spread = run_with(3, 400.0);
  EXPECT_GT(near.committed, 10000u);
  EXPECT_GT(spread.committed, 10000u);
  EXPECT_GT(spread.mean_latency_s, near.mean_latency_s + 0.1);
}

// The region loop stops at the client count: regions past it get no
// clients, so a region count of 9e15 sets up as fast as one per client.
TEST(Traffic, RegionCountBeyondTheClientsFinishes) {
  ScenarioSpec spec;
  spec.duration_s = 30;
  spec.has_traffic = true;
  spec.traffic.accounts_per_client = 2;
  spec.traffic.regions = 9'000'000'000'000'000;
  const ExperimentConfig config = resolve_scenario(spec).config;
  EXPECT_EQ(config.traffic.regions, 9'000'000'000'000'000u);
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.committed, 0u);
}

}  // namespace
}  // namespace stabl::core
