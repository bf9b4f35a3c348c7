// Declarative scenarios (core/scenario.hpp): strict parsing, byte-stable
// round-trips, and the property the layer exists for — a dumped spec,
// re-parsed and resolved, reproduces the flag-configured run's report
// byte for byte.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"

namespace stabl {
namespace {

std::string error_of(const std::string& json) {
  try {
    (void)core::scenario_from_json(json);
    return "";
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
}

// ------------------------------------------------------------ round trip

TEST(Scenario, DefaultSpecRoundTripsByteStably) {
  const core::ScenarioSpec spec;
  const std::string json = core::scenario_to_json(spec);
  EXPECT_EQ(core::scenario_from_json(json), spec);
  EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(json)), json);
}

TEST(Scenario, EmptyObjectIsTheDefaultRedbellyBaseline) {
  const core::ScenarioSpec spec = core::scenario_from_json("{}");
  EXPECT_EQ(spec, core::ScenarioSpec{});
  EXPECT_EQ(spec.chain, "redbelly");
  EXPECT_EQ(spec.duration_s, 400);
}

TEST(Scenario, MissingKeysKeepTheirDefaults) {
  const core::ScenarioSpec spec = core::scenario_from_json(
      R"({"chain": "solana", "fault": "transient", "duration_s": 120})");
  EXPECT_EQ(spec.chain, "solana");
  EXPECT_EQ(spec.fault, "transient");
  EXPECT_EQ(spec.duration_s, 120);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.workload, "constant");
  EXPECT_FALSE(spec.resilient);
}

TEST(Scenario, NonDefaultSpecRoundTripsByteStably) {
  core::ScenarioSpec spec;
  spec.name = "fig6 avalanche partition, tuned";
  spec.chain = "avalanche";
  spec.chain_params = {{"cpu_target", 0.8}, {"throttling", 0.0}};
  spec.fault = "partition";
  spec.fault_targets = {0, 1, 2};
  spec.extra_faults = {"loss", "gray"};
  spec.loss_probability = 0.3;
  spec.duration_s = 90;
  spec.num_seeds = 3;
  spec.workload = "bursty";
  spec.resilient = true;
  spec.trace = "out.trace.json";
  const std::string json = core::scenario_to_json(spec);
  EXPECT_EQ(core::scenario_from_json(json), spec);
  EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(json)), json);
}

// -------------------------------------------------------------- rejection

TEST(Scenario, UnknownKeysAreRejected) {
  const std::string what = error_of(R"({"chian": "redbelly"})");
  EXPECT_NE(what.find("unknown key \"chian\""), std::string::npos) << what;
}

TEST(Scenario, DuplicateKeysAreRejected) {
  const std::string what =
      error_of(R"({"seed": 1, "seed": 2})");
  EXPECT_NE(what.find("duplicate key \"seed\""), std::string::npos) << what;
}

TEST(Scenario, TrailingGarbageIsRejected) {
  EXPECT_THROW((void)core::scenario_from_json("{} trailing"),
               std::invalid_argument);
}

TEST(Scenario, NonIntegralIntegersAreRejected) {
  const std::string what = error_of(R"({"duration_s": 60.5})");
  EXPECT_NE(what.find("\"duration_s\" must be an integer"),
            std::string::npos)
      << what;
}

TEST(Scenario, OutOfRangeValuesAreRejected) {
  EXPECT_NE(error_of(R"({"duration_s": 10})")
                .find("\"duration_s\" must be >= 30"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"num_seeds": 0})").find("must be >= 1"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"loss_probability": 1.5})").find("(0, 1]"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"seed": -3})").find("\"seed\" must be >= 0"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"workload": "spiky"})")
                .find("constant, bursty, ramp, diurnal or flash"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"shrink": true})")
                .find("\"shrink\" needs \"chaos_trials\" > 0"),
            std::string::npos);
}

TEST(Scenario, NonFiniteNumbersAreRejected) {
  for (const char* number : {"nan", "inf", "-inf", "infinity", "1e999"}) {
    const std::string json =
        std::string(R"({"vcpus": )") + number + "}";
    EXPECT_NE(error_of(json).find("\"vcpus\" must be a finite number"),
              std::string::npos)
        << json;
  }
  // An integer key already refused these; a params value did not.
  EXPECT_NE(error_of(R"({"duration_s": inf})").find("must be an integer"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"chain_params": {"cpu_target": nan}})")
                .find("\"chain_params.cpu_target\" must be a finite"),
            std::string::npos);
}

TEST(Scenario, DurationsThatDoNotFitSimDurationAreRejected) {
  // 1e999 overflows to inf; 1e13 s is finite but 1e19 us overflows the
  // int64 microseconds sim::seconds() would convert it to.
  EXPECT_NE(error_of(R"({"commit_timeout_s": 1e999})").find("finite"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"commit_timeout_s": 1e13})")
                .find("out of range for a simulated duration"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"duration_s": 9000000000000000})")
                .find("\"duration_s\" is out of range"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"traffic": {"region_spread_ms": 1e16}})")
                .find("\"region_spread_ms\" is out of range"),
            std::string::npos);
  EXPECT_NO_THROW((void)core::scenario_from_json(
      R"({"commit_timeout_s": 100000, "duration_s": 100000})"));
}

TEST(Scenario, FaultTargetsMustFitANodeId) {
  EXPECT_NE(error_of(R"({"fault_targets": [4294967296]})")
                .find("ids must be < 2^32"),
            std::string::npos);
}

// ------------------------------------------------------ set_scenario_key

TEST(Scenario, SetScenarioKeyMatchesTheFileReader) {
  core::ScenarioSpec flags;
  core::set_scenario_key(flags, "chain", "solana");
  core::set_scenario_key(flags, "fault", "eclipse");
  core::set_scenario_key(flags, "eclipse_victim", "8");
  core::set_scenario_key(flags, "eclipse_delay_s", "0.25");
  core::set_scenario_key(flags, "fault_targets", "5,6");
  core::set_scenario_key(flags, "extra_faults", "loss");
  core::set_scenario_key(flags, "extra_faults", "gray");
  core::set_scenario_key(flags, "chain_params", "misbehavior_ban=30");
  core::set_scenario_key(flags, "seed", "7");
  core::set_scenario_key(flags, "resilient", "true");
  core::set_scenario_key(flags, "traffic.preset", "nft_mint");
  const core::ScenarioSpec file = core::scenario_from_json(R"({
    "chain": "solana", "fault": "eclipse", "eclipse_victim": 8,
    "eclipse_delay_s": 0.25, "fault_targets": [5, 6],
    "extra_faults": ["loss", "gray"],
    "chain_params": {"misbehavior_ban": 30}, "seed": 7,
    "resilient": true, "traffic": {"preset": "nft_mint"}})");
  EXPECT_EQ(flags, file);
  EXPECT_EQ(core::scenario_to_json(flags), core::scenario_to_json(file));
}

TEST(Scenario, SetScenarioKeyParsesTheWholeToken) {
  const auto error_setting = [](const char* key, const char* text) {
    core::ScenarioSpec spec;
    try {
      core::set_scenario_key(spec, key, text);
      return std::string();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
  };
  EXPECT_NE(error_setting("seed", "12abc"), "");
  EXPECT_NE(error_setting("matching", "abc"), "");
  EXPECT_NE(error_setting("fault_targets", "0,x"), "");
  EXPECT_NE(error_setting("fault_targets", "0,,1"), "");
  EXPECT_NE(error_setting("fault_targets", ""), "");
  EXPECT_NE(error_setting("loss_probability", "nan"), "");
  EXPECT_NE(error_setting("commit_timeout_s", "1e999"), "");
  EXPECT_NE(error_setting("duration_s", "60.5"), "");
  EXPECT_NE(error_setting("resilient", "yes"), "");
  EXPECT_NE(error_setting("chain_params", "cpu_target="), "");
  EXPECT_NE(error_setting("chain_params", "=1"), "");
  EXPECT_NE(error_setting("chain_params", R"(a=1, "b": 2)"), "");
  EXPECT_NE(error_setting("trace", "a\"b"), "");
  EXPECT_NE(error_setting("traffic", "{}"), "");
  EXPECT_NE(error_setting("traffic.hot", "0.3").find("traffic.hot"),
            std::string::npos);
  EXPECT_NE(error_setting("chian", "redbelly").find("unknown key"),
            std::string::npos);
  EXPECT_EQ(error_setting("seed", "12"), "");
  EXPECT_EQ(error_setting("duration_s", "60.0"), "");
}

TEST(Scenario, ParseTextHelpersAreStrict) {
  EXPECT_EQ(core::parse_integer_text("12", "--trials"), 12);
  EXPECT_DOUBLE_EQ(core::parse_number_text("0.5", "--max-idle"), 0.5);
  EXPECT_THROW((void)core::parse_integer_text("12abc", "--trials"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_integer_text("1.5", "--trials"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_integer_text("", "--trials"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_number_text("inf", "--max-idle"),
               std::invalid_argument);
}

// --------------------------------------------------------------- resolve

TEST(Scenario, ResolvePerformsTheHistoricalFlagPostprocessing) {
  core::ScenarioSpec spec;
  spec.fault = "partition";
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  // 400 s keeps the paper's 133 s / 266 s fault window.
  EXPECT_EQ(resolved.config.duration, sim::sec(400));
  EXPECT_EQ(resolved.config.inject_at, sim::sec(133));
  EXPECT_EQ(resolved.config.recover_at, sim::sec(266));
  EXPECT_EQ(resolved.config.chain, core::ChainKind::kRedbelly);
  EXPECT_EQ(resolved.config.fault, core::FaultType::kPartition);

  // The §7 secure-client geometry: fanout 4, 8-vCPU VMs — unless the
  // scenario pinned a fanout itself.
  spec.fault = "secure-client";
  EXPECT_EQ(core::resolve_scenario(spec).config.client_fanout, 4);
  EXPECT_DOUBLE_EQ(core::resolve_scenario(spec).config.vcpus, 8.0);
  spec.fanout = 2;
  EXPECT_EQ(core::resolve_scenario(spec).config.client_fanout, 2);

  // Extra plans share the primary window and knob values.
  spec = core::ScenarioSpec{};
  spec.fault = "partition";
  spec.extra_faults = {"loss"};
  spec.loss_probability = 0.3;
  const core::ResolvedScenario composed = core::resolve_scenario(spec);
  ASSERT_EQ(composed.config.extra_faults.plans.size(), 1u);
  const core::FaultPlan& plan = composed.config.extra_faults.plans[0];
  EXPECT_EQ(plan.type, core::FaultType::kLoss);
  EXPECT_EQ(plan.inject_at, sim::sec(133));
  EXPECT_EQ(plan.recover_at, sim::sec(266));
  EXPECT_DOUBLE_EQ(plan.params.loss_probability, 0.3);
}

TEST(Scenario, ComposedPlansShareTheBurstPhaseWindow) {
  // The exchange_burst preset moves the primary window into the flash
  // crowd (162.5 s - 187.5 s); composed plans must land in that same
  // window, not the 133 s / 266 s thirds it replaced.
  core::ScenarioSpec spec;
  spec.fault = "partition";
  spec.extra_faults = {"loss"};
  spec.has_traffic = true;
  spec.traffic.preset = "exchange_burst";
  const core::ExperimentConfig config = core::resolve_scenario(spec).config;
  EXPECT_EQ(config.inject_at, sim::ms(162500));
  EXPECT_EQ(config.recover_at, sim::ms(187500));
  ASSERT_EQ(config.extra_faults.plans.size(), 1u);
  EXPECT_EQ(config.extra_faults.plans[0].inject_at, config.inject_at);
  EXPECT_EQ(config.extra_faults.plans[0].recover_at, config.recover_at);
  const core::FaultSchedule schedule = core::resolved_schedule(config);
  ASSERT_EQ(schedule.plans.size(), 2u);
  EXPECT_EQ(schedule.plans[1].inject_at, schedule.plans[0].inject_at);
  EXPECT_EQ(schedule.plans[1].recover_at, schedule.plans[0].recover_at);
}

TEST(Scenario, ResolveRejectsUnknownNamesAndParameters) {
  core::ScenarioSpec spec;
  spec.chain = "cardano";
  try {
    (void)core::resolve_scenario(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cardano"), std::string::npos);
  }
  spec.chain = "avalanche";
  spec.chain_params = {{"beta", 8.0}};  // real knob, but not a registered one
  EXPECT_THROW((void)core::resolve_scenario(spec), std::invalid_argument);
  spec.chain_params.clear();
  spec.fault = "meteor";
  EXPECT_THROW((void)core::resolve_scenario(spec), std::invalid_argument);
}

// ------------------------------------------------- report byte identity

TEST(Scenario, DumpedSpecReproducesTheFlagRunReportBytes) {
  // The flag path: what stabl_cli historically built from
  // `--chain redbelly --fault crash --duration 60`.
  core::ExperimentConfig flag_config;
  flag_config.chain = core::ChainKind::kRedbelly;
  flag_config.fault = core::FaultType::kCrash;
  flag_config.duration = sim::sec(60);
  flag_config.inject_at = sim::sec(20);
  flag_config.recover_at = sim::sec(40);
  const core::SensitivityRun flag_run = core::run_sensitivity(flag_config);

  // The scenario path: the equivalent spec, dumped, re-parsed, resolved.
  core::ScenarioSpec spec;
  spec.fault = "crash";
  spec.duration_s = 60;
  const core::ScenarioSpec reloaded =
      core::scenario_from_json(core::scenario_to_json(spec));
  const core::SensitivityRun scenario_run =
      core::run_sensitivity(core::resolve_scenario(reloaded).config);

  EXPECT_EQ(
      core::to_json(core::ChainKind::kRedbelly, core::FaultType::kCrash,
                    flag_run),
      core::to_json(core::ChainKind::kRedbelly, core::FaultType::kCrash,
                    scenario_run));
}

}  // namespace
}  // namespace stabl
