// Golden scenario dumps and a seeded mutation harness for the harness's
// JSON readers (core/json.hpp): scenarios, chaos repros, metric dumps and
// traces.
//
// tests/golden/scenario_dumps/ holds scenario_to_json(scenario_from_json(f))
// for every examples/scenarios/*.json, plus all_keys.json: a spec with every
// key set to a non-default value. The files come from this test's own dump
// code (write_dumps below, run with STABL_WRITE_SCENARIO_DUMPS=<dir>) built
// against the hand-written writer the key table replaced, so the
// table-driven writer must reproduce them byte for byte.
//
// The mutation harness feeds the reader byte flips, deletions, insertions,
// duplicated keys and truncations of the checked-in specs. Every mutant
// must either parse and round-trip its own dump byte-identically, or throw
// std::invalid_argument; a parsed mutant must also resolve or throw
// std::invalid_argument. The same mutator and rule run over chaos repros
// (schedule_to_json of plain and adversarial generator output), metric
// dumps (MetricsRegistry::to_json) and traces (trace_to_json, which must
// validate or throw). The mutants are drawn from a fixed seed, so a
// failure names a reproducible input. The ReaderRegression cases pin
// inputs the chaos, metrics and trace readers once accepted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "core/trace.hpp"
#include "sim/trace.hpp"

namespace stabl {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A spec with every key, traffic keys included, set to a valid
/// non-default value.
core::ScenarioSpec all_keys_spec() {
  core::ScenarioSpec spec;
  spec.name = "every key set";
  spec.chain = "avalanche";
  spec.chain_params = {{"cpu_target", 0.8}, {"throttling", 0.0}};
  spec.fault = "partition";
  spec.fault_targets = {6, 7};
  spec.extra_faults = {"loss", "eclipse"};
  spec.loss_probability = 0.35;
  spec.throttle_bytes_per_s = 12345.5;
  spec.gray_delay_s = 1.25;
  spec.eclipse_victim = 8;
  spec.eclipse_delay_s = 0.125;
  spec.eclipse_filter = 0.3;
  spec.duration_s = 90;
  spec.seed = 1234567;
  spec.num_seeds = 3;
  spec.jobs = 2;
  spec.workload = "bursty";
  spec.has_traffic = true;
  spec.traffic.preset = "nft_mint";
  spec.traffic.shape = "diurnal";
  spec.traffic.accounts_per_client = 16;
  spec.traffic.zipf_exponent = 1.1;
  spec.traffic.hot_fraction = 0.25;
  spec.traffic.regions = 3;
  spec.traffic.region_spread_ms = 55.5;
  spec.traffic.diurnal_amplitude = 0.4;
  spec.traffic.diurnal_period_s = 80.0;
  spec.traffic.flash_at_s = 30.0;
  spec.traffic.flash_duration_s = 20.0;
  spec.traffic.flash_factor = 3.5;
  spec.traffic.fault_phase = "burst";
  spec.fanout = 2;
  spec.matching = 1;
  spec.vcpus = 6.5;
  spec.resilient = true;
  spec.commit_timeout_s = 7.5;
  spec.hedge = true;
  spec.hedge_percentile = 0.9;
  spec.hedge_min_delay_s = 0.5;
  spec.hedge_max_delay_s = 4.0;
  spec.endpoint_scoring = true;
  spec.chaos_trials = 4;
  spec.shrink = true;
  spec.chaos_adversarial = true;
  spec.trace = "run.trace.json";
  spec.metrics = "run.metrics.csv";
  return spec;
}

std::vector<fs::path> checked_in_specs() {
  std::vector<fs::path> specs;
  for (const auto& entry : fs::directory_iterator(STABL_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

/// Golden file name -> dump, for every checked-in spec and all_keys.
std::map<std::string, std::string> dumps() {
  std::map<std::string, std::string> out;
  for (const fs::path& path : checked_in_specs()) {
    out[path.filename().string()] =
        core::scenario_to_json(core::scenario_from_json(read_file(path)));
  }
  out["all_keys.json"] = core::scenario_to_json(all_keys_spec());
  return out;
}

const fs::path kDumpDir = fs::path(STABL_TEST_GOLDEN_DIR) / "scenario_dumps";

// --------------------------------------------------------------- goldens

TEST(ScenarioGolden, WriterReproducesEveryDumpByteForByte) {
  const std::map<std::string, std::string> expected = dumps();
  if (const char* dir = std::getenv("STABL_WRITE_SCENARIO_DUMPS")) {
    for (const auto& [name, dump] : expected) {
      std::ofstream(fs::path(dir) / name, std::ios::binary) << dump;
    }
    GTEST_SKIP() << "wrote " << expected.size() << " dumps to " << dir;
  }
  std::size_t goldens = 0;
  for (const auto& entry : fs::directory_iterator(kDumpDir)) {
    ++goldens;
    EXPECT_EQ(expected.count(entry.path().filename().string()), 1u)
        << "stale golden " << entry.path();
  }
  EXPECT_EQ(goldens, expected.size());
  for (const auto& [name, dump] : expected) {
    EXPECT_EQ(dump, read_file(kDumpDir / name)) << name;
  }
}

TEST(ScenarioGolden, AllKeysSpecSetsEveryKeyAndRoundTrips) {
  // Line by line against the defaults (traffic object forced on so its
  // keys are present): only the "traffic" opener may agree.
  core::ScenarioSpec defaults;
  defaults.has_traffic = true;
  std::istringstream ours(core::scenario_to_json(all_keys_spec()));
  std::istringstream theirs(core::scenario_to_json(defaults));
  std::string line;
  std::string default_line;
  std::size_t keys = 0;
  while (std::getline(ours, line)) {
    ASSERT_TRUE(std::getline(theirs, default_line));
    if (line.find("\": ") == std::string::npos) continue;
    if (line.find("\"traffic\": {") != std::string::npos) continue;
    ++keys;
    EXPECT_NE(line, default_line);
  }
  EXPECT_EQ(keys, 32u + 13u);  // every top-level key but traffic, and
                               // every traffic key
  const std::string json = core::scenario_to_json(all_keys_spec());
  EXPECT_EQ(core::scenario_from_json(json), all_keys_spec());
  EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(json)), json);
}

// ------------------------------------------------------ mutation harness

/// Mutant sources: the checked-in files as written and their dumps.
std::vector<std::string> corpus() {
  std::vector<std::string> inputs;
  for (const fs::path& path : checked_in_specs()) {
    inputs.push_back(read_file(path));
  }
  for (const auto& [name, dump] : dumps()) inputs.push_back(dump);
  return inputs;
}

/// Fragments worth splicing in: JSON structure, non-finite and oversized
/// numbers, stray quotes and escapes.
const std::vector<std::string> kSplices = {
    "\"",      "\\",           ",",         ":",        "{",
    "}",       "[",            "]",         "-",        ".",
    "e",       "0",            "9",         "nan",      "inf",
    "-inf",    "infinity",     "1e999",     "-1e999",   "1e-999",
    "0x1p4",   "4294967296",   "9e15",      "9e16",     "1e12",
    "true",    "false",        "null",      "\"\"",     "[]",
    "{}",      "\"seed\": 1, ", "\"traffic\": {}, ",   "\"x\": 1, ",
    "\n",      std::string(1, '\0'),        "\xff"};

/// Compact documents (chaos repros, metric dumps, traces) have no
/// one-member lines: repeat one `"key":value` member in place instead.
template <class Pick>
void duplicate_compact_member(std::string& out, const Pick& pick) {
  std::vector<std::size_t> starts;
  for (std::size_t pos = 0; pos + 1 < out.size(); ++pos) {
    if ((out[pos] == '{' || out[pos] == ',') && out[pos + 1] == '"') {
      starts.push_back(pos + 1);
    }
  }
  if (starts.empty()) return;
  const std::size_t start = starts[pick(starts.size())];
  // The member ends at the first ',' or closing bracket outside any
  // string or nested value.
  std::size_t end = start;
  int depth = 0;
  bool in_string = false;
  for (; end < out.size(); ++end) {
    const char c = out[end];
    if (in_string) {
      in_string = c != '"';
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if ((c == ']' || c == '}') && depth-- == 0) {
      break;
    } else if (c == ',' && depth == 0) {
      break;
    }
  }
  out.insert(start, out.substr(start, end - start) + ",");
}

std::string mutate(const std::string& input, std::mt19937_64& rng) {
  std::string out = input;
  const auto pick = [&rng](std::size_t bound) {
    return bound == 0 ? std::size_t{0}
                      : static_cast<std::size_t>(rng() % bound);
  };
  switch (rng() % 5) {
    case 0:  // byte flip
      if (!out.empty()) {
        out[pick(out.size())] = static_cast<char>(rng() & 0xff);
      }
      break;
    case 1: {  // deletion of 1-8 bytes
      const std::size_t at = pick(out.size());
      out.erase(at, 1 + pick(8));
      break;
    }
    case 2:  // insertion
      out.insert(pick(out.size() + 1), kSplices[pick(kSplices.size())]);
      break;
    case 3: {  // duplicated key: repeat one "key": value line
      std::vector<std::size_t> starts;
      for (std::size_t pos = out.find("\n  \""); pos != std::string::npos;
           pos = out.find("\n  \"", pos + 1)) {
        starts.push_back(pos + 1);
      }
      if (starts.empty()) {
        duplicate_compact_member(out, pick);
        break;
      }
      const std::size_t start = starts[pick(starts.size())];
      std::size_t end = out.find('\n', start);
      if (end == std::string::npos) end = out.size();
      std::string line = out.substr(start, end - start);
      if (line.empty() || line.back() != ',') line += ',';
      out.insert(start, line + "\n");
      break;
    }
    default:  // truncation
      out.resize(pick(out.size()));
      break;
  }
  return out;
}

TEST(ScenarioMutation, EveryMutantRoundTripsOrIsRejected) {
  std::mt19937_64 rng(0x5eed5ca1eULL);
  const std::vector<std::string> inputs = corpus();
  ASSERT_FALSE(inputs.empty());
  constexpr int kMutantsPerInput = 1000;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string& input : inputs) {
    for (int m = 0; m < kMutantsPerInput; ++m) {
      std::string mutant = mutate(input, rng);
      // Stack a second mutation on a third of the mutants.
      if (rng() % 3 == 0) mutant = mutate(mutant, rng);
      core::ScenarioSpec spec;
      try {
        spec = core::scenario_from_json(mutant);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      }
      ++parsed;
      const std::string dump = core::scenario_to_json(spec);
      try {
        EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(dump)),
                  dump)
            << "mutant:\n" << mutant;
      } catch (const std::invalid_argument& error) {
        ADD_FAILURE() << "dump of an accepted mutant does not parse: "
                      << error.what() << "\nmutant:\n" << mutant;
      }
      try {
        (void)core::resolve_scenario(spec);
      } catch (const std::invalid_argument&) {
        // Unknown chain/fault names and parameters resolve to errors.
      }
    }
  }
  // Both outcomes must actually occur, or the mutations are too weak (or
  // too destructive) to exercise the reader.
  EXPECT_GT(parsed, inputs.size() * 10);
  EXPECT_GT(rejected, inputs.size() * 10);
}

// ------------------------------------- chaos, metrics and trace readers

/// Chaos repros: plain and adversarial generator output.
std::vector<std::string> schedule_corpus() {
  sim::Rng rng(0xc4a05);
  const core::ChaosGenConfig plain = core::default_gen_for(sim::sec(400));
  const core::ChaosGenConfig adversarial =
      core::adversarial_gen_for(sim::sec(400));
  std::vector<std::string> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(
        core::schedule_to_json(core::generate_schedule(rng, plain)));
    inputs.push_back(
        core::schedule_to_json(core::generate_schedule(rng, adversarial)));
  }
  return inputs;
}

/// Every byte the harness writers escape, so a name holding it must read
/// back to the same bytes.
const std::string kEscaped = "quote\" backslash\\ tab\t newline\n cr\r";

/// A registry whose series name, histogram name and note need escapes.
core::MetricsRegistry escaped_registry() {
  core::MetricsRegistry registry;
  registry.add_gauge("series " + kEscaped, [] { return 1.0; });
  registry.sample(1.0);
  registry.histogram("histogram " + kEscaped, {1.0}).observe(0.5);
  registry.note("note " + kEscaped);
  registry.detach_probes();
  return registry;
}

/// Metric dumps: a hand-built registry (non-finite samples, notes), the
/// registry of a short real run and a registry whose names need escapes.
std::vector<std::string> metrics_corpus() {
  core::MetricsRegistry registry;
  double depth = 0.0;
  registry.add_gauge("mempool_depth", [&] { return depth; });
  registry.add_counter("votes", [&] { return depth * 3.0 + 0.125; });
  for (const double value : {1.5, 3.0, 1e300, -2.25}) {
    depth = value;
    registry.sample(value);
  }
  core::Histogram& latency =
      registry.histogram("commit_latency_s", {0.5, 1.0, 2.0});
  for (const double value : {0.25, 1.75, 9.0}) latency.observe(value);
  registry.histogram("empty", {});
  registry.note("workload floor bound");
  registry.detach_probes();

  core::MetricsRegistry run;
  core::ExperimentConfig config;
  core::apply_run_window(config, 30);
  config.metrics = &run;
  (void)core::run_experiment(config);
  return {registry.to_json(), core::MetricsRegistry{}.to_json(), run.to_json(),
          escaped_registry().to_json()};
}

std::string trace_document() {
  sim::TraceSink sink;
  core::name_cluster_tracks(sink, 2, 1);
  sink.begin(0, sim::seconds(1.0), "round", "consensus", "\"round\":1");
  sink.instant(1, sim::seconds(1.2), "commit", "chain",
               "\"height\":3,\"ok\":true,\"tags\":[1,\"a\",null]");
  sink.end(0, sim::seconds(1.4), "round");
  sink.counter(sim::seconds(2.0), "depth", 1.25);
  sink.async_begin(2, sim::seconds(0.1), 9, "txn", "txn", "\"nonce\":0");
  sink.async_end(2, sim::seconds(2.1), 9, "txn", "txn");
  sink.instant(core::kFaultsTrack, sim::seconds(1.0), "inject", "fault");
  return core::trace_to_json(sink);
}

/// A trace whose event name needs escapes.
std::string escaped_trace_document() {
  sim::TraceSink sink;
  sink.instant(0, sim::seconds(1.0), "event " + kEscaped, "chain");
  return core::trace_to_json(sink);
}

/// The scenario rule for any reader: every mutant of every input either
/// throws std::invalid_argument or reads to a dump (read_dump's result)
/// that reads back to itself.
template <class ReadDump>
void expect_mutants_round_trip_or_throw(
    const std::vector<std::string>& inputs, std::uint64_t seed,
    ReadDump read_dump) {
  std::mt19937_64 rng(seed);
  ASSERT_FALSE(inputs.empty());
  constexpr int kMutantsPerInput = 1000;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string& input : inputs) {
    ASSERT_EQ(read_dump(input), input) << "corpus input is not a dump";
    for (int m = 0; m < kMutantsPerInput; ++m) {
      std::string mutant = mutate(input, rng);
      if (rng() % 3 == 0) mutant = mutate(mutant, rng);
      std::string dump;
      try {
        dump = read_dump(mutant);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      }
      ++parsed;
      try {
        EXPECT_EQ(read_dump(dump), dump) << "mutant:\n" << mutant;
      } catch (const std::invalid_argument& error) {
        ADD_FAILURE() << "dump of an accepted mutant does not parse: "
                      << error.what() << "\nmutant:\n" << mutant;
      }
    }
  }
  // Compact documents are mostly structure, so far fewer of their mutants
  // parse than a pretty-printed spec's; both outcomes must still occur.
  EXPECT_GT(parsed, inputs.size());
  EXPECT_GT(rejected, inputs.size() * 10);
}

TEST(ReaderMutation, ScheduleMutantsRoundTripOrAreRejected) {
  expect_mutants_round_trip_or_throw(
      schedule_corpus(), 0xc4a05ca1eULL, [](const std::string& json) {
        const core::FaultSchedule schedule = core::schedule_from_json(json);
        for (const core::FaultPlan& plan : schedule.plans) {
          (void)core::validate(plan, 10);
        }
        return core::schedule_to_json(schedule);
      });
}

TEST(ReaderMutation, MetricsMutantsRoundTripOrAreRejected) {
  expect_mutants_round_trip_or_throw(
      metrics_corpus(), 0x3e791c5ULL, [](const std::string& json) {
        const core::MetricsRegistry registry = core::metrics_from_json(json);
        (void)registry.to_csv();
        (void)registry.histograms_csv();
        return registry.to_json();
      });
}

TEST(ReaderMutation, TraceMutantsValidateOrAreRejected) {
  expect_mutants_round_trip_or_throw(
      {trace_document(), escaped_trace_document()}, 0x7ace5ULL,
      [](const std::string& json) {
        (void)core::validate_trace_json(json);
        return json;
      });
}

// --------------------------------------------------- reader regressions

void expect_rejected(const std::function<void()>& read) {
  EXPECT_THROW(read(), std::invalid_argument);
}

void expect_schedule_rejected(const std::string& plan_fields) {
  SCOPED_TRACE(plan_fields);
  expect_rejected([&] {
    (void)core::schedule_from_json("{\"plans\":[{" + plan_fields + "}]}");
  });
}

const std::string kCrashPlan = "\"type\":\"crash\",\"inject_at_s\":30.000";

TEST(ReaderRegression, ScheduleTargetAboveTheNodeIdRange) {
  expect_schedule_rejected(kCrashPlan + ",\"targets\":[4294967296]");
}

TEST(ReaderRegression, ScheduleNegativeTarget) {
  expect_schedule_rejected(kCrashPlan + ",\"targets\":[-1]");
}

TEST(ReaderRegression, ScheduleFractionalTarget) {
  expect_schedule_rejected(kCrashPlan + ",\"targets\":[1.5]");
}

TEST(ReaderRegression, ScheduleNanLossProbability) {
  expect_schedule_rejected(
      "\"type\":\"loss\",\"targets\":[5],\"inject_at_s\":30.000,"
      "\"recover_at_s\":60.000,\"loss_probability\":nan");
}

TEST(ReaderRegression, ScheduleInjectTimeOverflow) {
  expect_schedule_rejected(
      "\"type\":\"crash\",\"targets\":[5],\"inject_at_s\":1e999");
}

TEST(ReaderRegression, ScheduleDuplicateTypeKey) {
  expect_schedule_rejected(kCrashPlan +
                           ",\"targets\":[5],\"type\":\"partition\"");
}

TEST(ReaderRegression, ScheduleEclipseVictimAboveTheNodeIdRange) {
  expect_schedule_rejected(
      "\"type\":\"eclipse\",\"targets\":[5],\"inject_at_s\":30.000,"
      "\"recover_at_s\":60.000,\"eclipse_victim\":4294967297,"
      "\"eclipse_ms\":500,\"eclipse_filter\":0.20");
}

TEST(ReaderRegression, MetricsNegativeCount) {
  expect_rejected([] {
    (void)core::metrics_from_json(
        "{\"times_s\":[],\"series\":[],\"histograms\":[{\"name\":\"h\","
        "\"bounds\":[1.000000],\"counts\":[-1,0],\"sum\":0.000000}]}");
  });
}

TEST(ReaderRegression, MetricsSeriesShorterThanItsTimes) {
  // to_csv reads one sample per series per sample time.
  expect_rejected([] {
    (void)core::metrics_from_json(
        "{\"times_s\":[1.000,2.000],\"series\":[{\"name\":\"s\","
        "\"samples\":[1.000000]}],\"histograms\":[]}");
  });
}

TEST(ReaderRegression, MetricsHistogramCountsDoNotMatchItsBounds) {
  // observe() indexes counts by bucket: one per bound plus overflow.
  expect_rejected([] {
    (void)core::metrics_from_json(
        "{\"times_s\":[],\"series\":[],\"histograms\":[{\"name\":\"h\","
        "\"bounds\":[1.000000,2.000000],\"counts\":[0],\"sum\":0.000000}]}");
  });
}

TEST(ReaderRegression, TraceNanTimestamp) {
  expect_rejected([] {
    (void)core::validate_trace_json(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"x\","
        "\"ph\":\"i\",\"ts\":nan,\"pid\":0,\"tid\":0,\"s\":\"t\"}]}");
  });
}

TEST(ReaderRegression, TraceTidOutsideInt32) {
  expect_rejected([] {
    (void)core::validate_trace_json(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"x\","
        "\"ph\":\"i\",\"ts\":1,\"pid\":0,\"tid\":1e20,\"s\":\"t\"}]}");
  });
}

TEST(ReaderRegression, TraceArgsNestedDeeperThanTheStack) {
  expect_rejected([] {
    const std::size_t depth = 10'000'000;
    (void)core::validate_trace_json(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"x\","
        "\"ph\":\"i\",\"ts\":1,\"pid\":0,\"tid\":0,\"args\":" +
        std::string(depth, '[') + std::string(depth, ']') + "}]}");
  });
}

// ------------------------------------------------------ string escapes

TEST(ReaderEscapes, MetricNamesAndNotesReadBackToTheirBytes) {
  const core::MetricsRegistry parsed =
      core::metrics_from_json(escaped_registry().to_json());
  ASSERT_EQ(parsed.series().size(), 1u);
  EXPECT_EQ(parsed.series()[0].name, "series " + kEscaped);
  ASSERT_EQ(parsed.histograms().size(), 1u);
  EXPECT_EQ(parsed.histograms()[0].name, "histogram " + kEscaped);
  ASSERT_EQ(parsed.notes().size(), 1u);
  EXPECT_EQ(parsed.notes()[0], "note " + kEscaped);
}

TEST(ReaderEscapes, TraceEventNameReadsBackToItsBytes) {
  const std::string json = escaped_trace_document();
  EXPECT_EQ(core::validate_trace_json(json).instants, 1u);
  const std::string key = "{\"name\":";
  const std::size_t at = json.find(key + "\"event ");
  ASSERT_NE(at, std::string::npos);
  const std::string rest = json.substr(at + key.size());
  core::JsonCursor cursor(rest);
  EXPECT_EQ(cursor.parse_string(), "event " + kEscaped);
}

TEST(ReaderEscapes, ScenarioStringsReadBackToTheirBytes) {
  core::ScenarioSpec spec;
  spec.name = "name " + kEscaped;
  // Flag text refuses quotes and backslashes but takes control bytes.
  core::set_scenario_key(spec, "trace", "tab\t newline\n cr\r");
  EXPECT_EQ(spec.trace, "tab\t newline\n cr\r");
  const std::string json = core::scenario_to_json(spec);
  EXPECT_EQ(core::scenario_from_json(json), spec);
  EXPECT_EQ(core::scenario_to_json(core::scenario_from_json(json)), json);
}

TEST(ReaderEscapes, ControlBytesUseTheUnicodeForm) {
  EXPECT_EQ(core::json_escape(std::string("a\rb\x01\x1f", 5)),
            "a\\u000db\\u0001\\u001f");
  const std::string json = "\"a\\u000db\\u0001\\u001f\"";
  core::JsonCursor cursor(json);
  EXPECT_EQ(cursor.parse_string(), std::string("a\rb\x01\x1f", 5));
}

TEST(ReaderEscapes, OnlyTheWriterSpellingIsAccepted) {
  // Each has a different spelling from json_escape (or none at all), so
  // accepting it would make a dump that does not read back to itself.
  for (const char* body :
       {"\\r", "\\/", "\\b", "\\u000A", "\\u000a", "\\u0009", "\\u0020",
        "\\u00zz", "\\u001", "\\u", "\\", "\\x41", "\t"}) {
    SCOPED_TRACE(body);
    const std::string json = std::string("\"") + body + "\"";
    expect_rejected([&] {
      core::JsonCursor cursor(json);
      (void)cursor.parse_string();
    });
  }
}

}  // namespace
}  // namespace stabl
