// stabl_cli — run one STABL experiment pair, a seed sweep or a campaign
// from the command line and print a text, CSV or JSON report: the program
// a CI pipeline calls. `stabl_cli --help` describes every flag.
//
// Every flag is a row of one table, kFlags. An experiment flag sets a
// core::ScenarioSpec key through core::set_scenario_key, the parser the
// file key uses, so --dump-scenario prints the spec a flag combination
// resolves to (after the checks a run does) and --scenario FILE replays
// it to the same report bytes. --chain-param K=V overrides a registered
// chain parameter; --no-throttling, --no-warmup-epochs and --max-idle S
// are shorthands for throttling=0, warmup_epochs=0 and max_idle_s=S, so
// they too fail on a chain that does not declare the key.
//
// One mode table, kModes, picks what runs: --attribution, else
// --mitigation-study, else a chaos campaign (--chaos N), else a seed sweep
// (--seeds N, N > 1), else a single baseline-vs-faulted run. Each mode
// takes the experiment knobs and the inputs marked below; any other input
// is a usage error (exit 2). fault = --fault, --extra-fault or
// --fault-targets (the campaigns' --chain/--fault narrow their grid).
//                     seeds chaos trace metrics fault csv dump heartbeat
//   attribution         -     -     x      -      x    x    -      x
//   mitigation-study    x     x     -      -      x    x    -      x
//   chaos               -     x     x      -      -    -    x      x
//   seed sweep          x     -     -      -      x    x    x      x
//   single run          -     -     x      x      x    x    x      -
// --jobs N only sets worker threads: it never changes the report, and
// with one seed the run is a single run.
//
// --trace FILE writes a Perfetto trace_event timeline (ui.perfetto.dev):
// the faulted run's, the first attribution cell's faulted twin's, or, in
// chaos mode, each violating trial's minimized repro to
// FILE.chaos_<chain>_trialK_seedS_planH.trace.json. --metrics FILE samples
// the metrics registry each sim-second, as CSV when FILE ends in .csv and
// JSON otherwise. Tracing, metrics and --heartbeat (wall-clock progress
// on stderr) never change the report.
//
// Examples:
//   stabl_cli --chain solana --fault transient
//   stabl_cli --scenario examples/scenarios/fig3a_redbelly.json
//   stabl_cli --chain redbelly --fault partition --max-idle 30 --format json
//   stabl_cli --chain aptos --chaos 10 --shrink --duration 120 --jobs 4
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>

#include "cli_common.hpp"
#include "core/attribution.hpp"
#include "core/campaign.hpp"
#include "core/chaos.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "core/trace.hpp"
#include "core/traffic.hpp"
#include "sim/trace.hpp"

namespace {

using namespace stabl;

/// What a mode may take besides the experiment knobs every mode reads.
/// Each is given by a flag or by a scenario key with a non-default value.
enum Input : unsigned {
  kAttribution = 1, kMitigation = 2, kSeeds = 4, kChaos = 8, kTrace = 16,
  kMetrics = 32, kFaultPlan = 64, kCsv = 128, kDump = 256, kHeartbeat = 512
};

/// Input names for the usage error, in bit order.
const char* const kInputNames[] = {
    "--attribution", "--mitigation-study", "--seeds > 1", "--chaos",
    "--trace", "--metrics", "--fault, --extra-fault or --fault-targets",
    "--format csv", "--dump-scenario", "--heartbeat"};

/// What the command line asks for: the scenario plus the settings that
/// are not scenario keys.
struct Invocation {
  const char* argv0 = nullptr;
  core::ScenarioSpec spec;
  std::string format = "text";
  std::string scenario_path;
  /// Inputs given by switches that set no key (--attribution, ...).
  unsigned switches = 0;
  /// Scenario keys set by flags: "chain" and "fault" narrow a campaign's
  /// grid, and --scenario, a complete run description, takes none.
  std::set<std::string> keys;
};

/// --help, like the --list-* flags below, prints and exits 0.
[[noreturn]] void print_usage(Invocation& cli, const std::string&) {
  std::printf(
      "usage: %s [options]\n"
      "       %s --scenario FILE [--format FMT] [--dump-scenario]\n"
      "       %s --mitigation-study [--chain NAME] [--fault NAME]\n"
      "                             [--chaos N] [--seeds N] [--jobs N]\n"
      "       %s --attribution [--chain NAME] [--fault NAME] [--jobs N]\n"
      "                        [--heartbeat] [--trace FILE]\n"
      "       %s --list-faults | --list-chains | --list-workloads\n"
      "\n"
      "Run one STABL experiment pair (baseline vs faulted) and report the\n"
      "sensitivity score; sweep seeds; or run a randomized chaos campaign.\n"
      "\n"
      "scenarios:\n"
      "  --scenario FILE     load a declarative scenario (JSON; see\n"
      "                      examples/scenarios/) instead of experiment\n"
      "                      flags; reproduces the byte-identical report\n"
      "                      of the equivalent flag invocation\n"
      "  --dump-scenario     print the scenario JSON this invocation\n"
      "                      resolves to and exit (check it in, replay it\n"
      "                      with --scenario)\n"
      "\n"
      "experiment selection:\n"
      "  --chain NAME        registered chain, case-insensitive\n"
      "                      (%s; default redbelly)\n"
      "  --fault NAME        none|crash|transient|partition|secure-client|\n"
      "                      delay|churn|loss|throttle|gray|equivocate|\n"
      "                      withhold|eclipse (default none; see\n"
      "                      --list-faults for one-line descriptions)\n"
      "  --duration S        simulated seconds, >= 30 (default 400)\n"
      "  --seed N            root RNG seed (default 42)\n"
      "  --fault-targets IDS comma-separated node ids to fault, e.g. 0,1\n"
      "  --extra-fault NAME  compose another fault plan on the primary\n"
      "                      window (repeatable)\n"
      "\n"
      "sweeps and parallelism:\n"
      "  --seeds N           sweep N consecutive seeds starting at --seed\n"
      "                      and report per-seed scores plus aggregates\n"
      "  --jobs N            worker threads for the seed grid or chaos\n"
      "                      trials; output is identical for any value\n"
      "\n"
      "chaos mode:\n"
      "  --chaos N           run N randomized multi-plan fault schedules\n"
      "                      against --chain, audited by the invariant\n"
      "                      oracles; exit 1 when any oracle fires\n"
      "  --shrink            delta-debug every violating schedule to a\n"
      "                      minimal replayable JSON repro\n"
      "  --chaos-adversarial sample the adversarial plan space too\n"
      "                      (equivocate, withhold, eclipse schedules)\n"
      "\n"
      "mitigation study:\n"
      "  --mitigation-study  run every (chain, fault, seed) cell paired —\n"
      "                      unmitigated vs the mitigation stack (nversion\n"
      "                      meta-chain + hedging + endpoint scoring) over\n"
      "                      the same seeds and schedules — and report the\n"
      "                      sensitivity deltas; --chain/--fault narrow the\n"
      "                      grid, --chaos N adds N adversarial schedule\n"
      "                      pairs per chain\n"
      "\n"
      "sensitivity attribution:\n"
      "  --attribution       run every (chain, fault) cell paired with a\n"
      "                      transaction-lifecycle recorder on both twins\n"
      "                      and report per-stage latency deltas (submit,\n"
      "                      admission, queueing, consensus, notify), loss\n"
      "                      by deepest stage reached, and the dominant\n"
      "                      stage; --chain/--fault narrow the grid\n"
      "  --heartbeat         wall-clock campaign progress (done/total,\n"
      "                      cells/s, ETA) on stderr; never part of the\n"
      "                      deterministic report output\n"
      "\n"
      "observability:\n"
      "  --trace FILE        write the faulted run's sim-time timeline as\n"
      "                      Perfetto trace_event JSON (ui.perfetto.dev);\n"
      "                      in chaos mode, write each violating trial's\n"
      "                      minimized repro timeline to\n"
      "                      FILE.chaos_<chain>_trialK_seedS_planH.trace\n"
      "                      .json (seed + plan hash keep repros distinct)\n"
      "  --metrics FILE      sample runtime metrics (mempool depth,\n"
      "                      in-flight msgs, breaker state, ...) each sim\n"
      "                      second; CSV when FILE ends in .csv, else JSON\n"
      "\n"
      "workload and client knobs:\n"
      "  --fanout K          endpoints each transaction is sent to\n"
      "  --matching K        client request-matching degree\n"
      "  --workload SHAPE    arrival shape (default constant; see\n"
      "                      --list-workloads for the full set)\n"
      "  --traffic-preset N  named production traffic model — population,\n"
      "                      contention, regions and shape in one knob\n"
      "                      (exchange_burst|nft_mint|dex_sustained; see\n"
      "                      --list-workloads); equivalent to a scenario\n"
      "                      file with {\"traffic\": {\"preset\": N}}\n"
      "  --vcpus N           per-node vCPUs (default 4)\n"
      "  --resilient         timeout + failover + backoff clients\n"
      "  --commit-timeout S  resilient-client commit timeout, seconds\n"
      "  --hedge             hedged submissions: arm a second endpoint\n"
      "                      after the observed latency percentile instead\n"
      "                      of waiting out the commit timeout (needs\n"
      "                      --resilient)\n"
      "  --hedge-percentile P  hedge-delay latency percentile, (0, 1]\n"
      "                      (default 0.95)\n"
      "  --hedge-min S       hedge-delay clamp floor, seconds (default .25)\n"
      "  --hedge-max S       hedge-delay clamp ceiling, seconds (default 8)\n"
      "  --endpoint-scoring  EWMA latency/failure scoring steers failover\n"
      "                      and hedge endpoint choice (needs --resilient)\n"
      "\n"
      "fault knobs:\n"
      "  --loss-prob P       packet-loss probability for loss plans\n"
      "  --gray-delay S      gray-failure added latency, seconds\n"
      "  --throttle-bps B    throttle bandwidth, bytes per second\n"
      "  --eclipse-victim N  node whose view eclipse attackers intercept\n"
      "  --eclipse-delay S   eclipse interception delay, seconds\n"
      "  --eclipse-filter P  eclipse per-packet drop probability, [0, 1)\n"
      "\n"
      "chain tuning:\n"
      "  --chain-param K=V   override a registered chain parameter by\n"
      "                      name (repeatable; unknown keys are errors)\n"
      "  --no-throttling     disable Avalanche message throttling\n"
      "  --no-warmup-epochs  disable Solana warmup epochs\n"
      "  --max-idle S        Redbelly max idle seconds\n"
      "\n"
      "output:\n"
      "  --format FMT        text|csv|json (default text)\n"
      "  --list-faults       list every fault type with a one-line\n"
      "                      description and exit 0\n"
      "  --list-chains       list every registered chain with its tier,\n"
      "                      description and (for meta-chains) the base\n"
      "                      chain it wraps, and exit 0\n"
      "  --list-workloads    list every arrival shape and traffic preset\n"
      "                      with a one-line description and exit 0\n"
      "  --help              print this help and exit 0\n",
      cli.argv0, cli.argv0, cli.argv0, cli.argv0, cli.argv0,
      core::chain_registry().names_csv().c_str());
  std::exit(0);
}

// --list-faults: every FaultType in enum order with its one-line
// description; registry-free, so it works even in a misconfigured build.
[[noreturn]] void print_fault_list(Invocation&, const std::string&) {
  for (const core::FaultType type : core::kAllFaultTypes) {
    std::printf("%-14s %s\n", core::to_string(type).c_str(),
                core::fault_description(type).c_str());
  }
  std::exit(0);
}

// --list-chains: every registered chain in registry (tier, name) order;
// linked plugins show up automatically, meta-chains with "[wraps <base>]".
[[noreturn]] void print_chain_list(Invocation&, const std::string&) {
  const chain::Registry& registry = core::chain_registry();
  for (const chain::ChainId id : registry.ids()) {
    const chain::ChainTraits& traits = core::chain_traits(core::chain_kind(id));
    const std::string wraps =
        traits.meta_of.empty() ? "" : "  [wraps " + traits.meta_of + "]";
    std::printf("%-18s tier %d  %s%s\n", traits.name.c_str(), traits.tier,
                traits.description.c_str(), wraps.c_str());
  }
  std::exit(0);
}

// --list-workloads: every arrival shape, then every traffic preset, each
// with the one-line description the scenario parser's errors cite.
[[noreturn]] void print_workload_list(Invocation&, const std::string&) {
  std::printf("arrival shapes (--workload, traffic.shape):\n");
  for (const std::string& name : core::workload_shape_names()) {
    std::printf("  %-14s %s\n", name.c_str(),
                core::workload_shape_description(name).c_str());
  }
  std::printf("traffic presets (--traffic-preset, traffic.preset):\n");
  for (const std::string& name : core::traffic_preset_names()) {
    std::printf("  %-14s %s\n", name.c_str(),
                core::traffic_preset_description(name).c_str());
  }
  std::exit(0);
}

[[noreturn]] void fail_usage(const char* argv0, const std::string& message) {
  cli::fail(argv0, message, cli::help_hint(argv0));
}

std::string chain_name(const std::string& name) {
  return core::to_string(core::parse_chain_name(name));
}

std::string fault_name(const std::string& name) {
  return core::to_string(core::fault_from_name(name));
}

/// Stricter than the schema: a flag that names a chaos campaign or a file
/// must not be a no-op.
std::string campaign_size(const std::string& text) {
  if (core::parse_integer_text(text, "scenario: \"chaos_trials\"") < 1) {
    throw std::invalid_argument("must be >= 1");
  }
  return text;
}

std::string file_name(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("needs a file name");
  return text;
}

std::string format_name(const std::string& text) {
  if (text != "text" && text != "csv" && text != "json") {
    throw std::invalid_argument("unknown format '" + text + "'");
  }
  return text;
}

/// One command-line flag. A scenario flag sets `key` through
/// core::set_scenario_key, the parser the file key uses. A flag with no
/// key sets its `input` switch or hands its value to `apply`.
struct Flag {
  const char* flag;
  const char* key = nullptr;
  /// Switches take no value and pass this text instead.
  const char* switch_value = nullptr;
  /// Checks or rewrites the value first (name flags pass on the registry's
  /// spelling, or throw std::invalid_argument listing the valid names).
  std::string (*canonical)(const std::string&) = nullptr;
  unsigned input = 0;
  void (*apply)(Invocation&, const std::string&) = nullptr;
};

const Flag kFlags[] = {
    {"--chain", "chain", nullptr, chain_name},
    {"--fault", "fault", nullptr, fault_name},
    {"--duration", "duration_s"},
    {"--seed", "seed"},
    {"--seeds", "num_seeds"},
    {"--jobs", "jobs"},
    {"--fanout", "fanout"},
    {"--matching", "matching"},
    {"--vcpus", "vcpus"},
    {"--workload", "workload"},
    {"--traffic-preset", "traffic.preset"},
    {"--fault-targets", "fault_targets"},
    {"--extra-fault", "extra_faults", nullptr, fault_name},
    {"--loss-prob", "loss_probability"},
    {"--gray-delay", "gray_delay_s"},
    {"--throttle-bps", "throttle_bytes_per_s"},
    {"--eclipse-victim", "eclipse_victim"},
    {"--eclipse-delay", "eclipse_delay_s"},
    {"--eclipse-filter", "eclipse_filter"},
    {"--resilient", "resilient", "true"},
    {"--commit-timeout", "commit_timeout_s"},
    {"--hedge", "hedge", "true"},
    {"--hedge-percentile", "hedge_percentile"},
    {"--hedge-min", "hedge_min_delay_s"},
    {"--hedge-max", "hedge_max_delay_s"},
    {"--endpoint-scoring", "endpoint_scoring", "true"},
    {"--chain-param", "chain_params"},
    // Legacy tuning flags: shorthands for --chain-param, so a key the
    // chain does not declare is an error.
    {"--no-throttling", "chain_params", "throttling=0"},
    {"--no-warmup-epochs", "chain_params", "warmup_epochs=0"},
    {"--max-idle", "chain_params", nullptr,
     [](const std::string& seconds) { return "max_idle_s=" + seconds; }},
    {"--chaos", "chaos_trials", nullptr, campaign_size},
    {"--shrink", "shrink", "true"},
    {"--chaos-adversarial", "chaos_adversarial", "true"},
    {"--trace", "trace", nullptr, file_name},
    {"--metrics", "metrics", nullptr, file_name},
    {"--scenario", nullptr, nullptr, file_name, 0,
     [](Invocation& cli, const std::string& path) { cli.scenario_path = path; }},
    {"--format", nullptr, nullptr, format_name, 0,
     [](Invocation& cli, const std::string& format) { cli.format = format; }},
    {"--dump-scenario", nullptr, "", nullptr, kDump},
    {"--heartbeat", nullptr, "", nullptr, kHeartbeat},
    {"--attribution", nullptr, "", nullptr, kAttribution},
    {"--mitigation-study", nullptr, "", nullptr, kMitigation},
    {"--help", nullptr, "", nullptr, 0, print_usage},
    {"-h", nullptr, "", nullptr, 0, print_usage},
    {"--list-faults", nullptr, "", nullptr, 0, print_fault_list},
    {"--list-chains", nullptr, "", nullptr, 0, print_chain_list},
    {"--list-workloads", nullptr, "", nullptr, 0, print_workload_list},
};

Invocation parse_flags(int argc, char** argv) {
  Invocation cli;
  cli.argv0 = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&arg](const Flag& row) { return arg == row.flag; });
    if (flag == std::end(kFlags)) cli::fail_unknown_flag(argv[0], arg);
    if (flag->switch_value == nullptr && i + 1 >= argc) {
      fail_usage(argv[0], arg + " needs a value");
    }
    const std::string text =
        flag->switch_value != nullptr ? flag->switch_value : argv[++i];
    try {
      const std::string value =
          flag->canonical != nullptr ? flag->canonical(text) : text;
      cli.switches |= flag->input;
      if (flag->apply != nullptr) flag->apply(cli, value);
      if (flag->key == nullptr) continue;
      core::set_scenario_key(cli.spec, flag->key, value);
      cli.keys.insert(flag->key);
    } catch (const std::invalid_argument& error) {
      fail_usage(argv[0], (text.empty() ? arg : arg + " " + text) + ": " +
                              error.what());
    }
  }
  return cli;
}

core::ScenarioSpec read_scenario_or_exit(const char* argv0,
                                         const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "%s: cannot read %s\n", argv0, path.c_str());
    std::exit(2);
  }
  try {
    return core::scenario_from_json(
        std::string(std::istreambuf_iterator<char>(file), {}));
  } catch (const std::invalid_argument& error) {
    fail_usage(argv0, path + ": " + error.what());
  }
}

// ------------------------------------------------------------------ modes

int attribution_main(const Invocation& cli, core::ExperimentConfig config) {
  // Paired attribution campaign: every (chain, fault) cell twice over
  // the same seed with a lifecycle recorder on both twins. --trace is
  // honored below by re-running the first cell's faulted twin with a
  // sink attached — the report itself never depends on it.
  const std::string& trace_path = cli.spec.trace;
  core::AttributionConfig study;
  if (cli.keys.contains("chain")) study.chains = {config.chain};
  if (cli.keys.contains("fault")) study.faults = {config.fault};
  study.base = config;
  study.base.fault = core::FaultType::kNone;
  study.jobs = static_cast<unsigned>(cli.spec.jobs);
  study.heartbeat = (cli.switches & kHeartbeat) != 0;
  const core::AttributionReport report = core::run_attribution(study);
  if (!trace_path.empty() && !report.cells.empty()) {
    const core::AttributionCell& first = report.cells.front();
    core::ExperimentConfig traced = core::paper_cell(
        study.base, first.chain, first.fault, study.base.seed);
    sim::TraceSink sink;
    traced.trace = &sink;
    core::run_experiment(traced);
    cli::write_file_or_die(cli.argv0, trace_path, core::trace_to_json(sink));
  }
  if (cli.format == "json") {
    std::printf("%s\n", report.to_json().c_str());
  } else if (cli.format == "csv") {
    std::printf("%s", report.to_csv().c_str());
  } else {
    std::printf("sensitivity attribution: per-stage latency deltas, "
                "faulted vs fault-free twin\n");
    std::printf("%s", report.to_table().c_str());
    // The radar view: each cell's headline delta and dominant stage.
    core::RadarSummary radar;
    const auto& names = sim::stage_segment_names();
    for (const core::AttributionCell& cell : report.cells) {
      core::RadarAttributionCell summary;
      summary.latency_delta_s = cell.measured_latency_delta_s;
      summary.dominant_stage = names[cell.dominant_segment()];
      summary.dominant_share = cell.dominant_share();
      radar.record_attribution(cell.chain, cell.fault, summary);
    }
    std::printf("\ndominant-stage radar:\n%s",
                radar.attribution_table().c_str());
    if (!trace_path.empty() && !report.cells.empty()) {
      std::printf("trace: %s (first cell's faulted twin; open at "
                  "ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }
  return 0;
}

int mitigation_main(const Invocation& cli, core::ExperimentConfig config) {
  // Paired mitigation campaign: every cell twice over the same seed and
  // schedule — as-configured vs the full mitigation stack. --chaos N is
  // reinterpreted as N adversarial chaos schedule pairs per chain.
  core::MitigationConfig study;
  if (cli.keys.contains("chain")) study.chains = {config.chain};
  if (cli.keys.contains("fault")) study.faults = {config.fault};
  study.base = config;
  study.base.fault = core::FaultType::kNone;
  study.num_seeds = static_cast<std::size_t>(cli.spec.num_seeds);
  study.jobs = static_cast<unsigned>(cli.spec.jobs);
  study.chaos_pairs = static_cast<std::size_t>(cli.spec.chaos_trials);
  study.heartbeat = (cli.switches & kHeartbeat) != 0;
  const core::MitigationResult result = core::run_mitigation_campaign(study);
  if (cli.format == "json") {
    std::printf("%s\n", result.to_json().c_str());
  } else if (cli.format == "csv") {
    std::printf("%s", result.delta_csv().c_str());
  } else {
    std::printf("mitigation study: nversion + hedging + endpoint scoring "
                "vs unmitigated\n");
    std::printf("%s", result.delta_table().c_str());
    std::printf("%zu/%zu pairs improved, %zu regressed\n",
                result.improvements(), result.pairs.size(),
                result.regressions());
  }
  return 0;
}

int chaos_main(const Invocation& cli, core::ExperimentConfig config) {
  // Chaos path: randomized schedules + oracle audit on one chain. Every
  // violating trial carries a Perfetto timeline of its minimized repro;
  // --trace names the base file the timelines are written to.
  const std::string& trace_path = cli.spec.trace;
  core::ChaosCampaignConfig chaos;
  chaos.chains = {config.chain};
  chaos.trials_per_chain = static_cast<std::size_t>(cli.spec.chaos_trials);
  chaos.seed = config.seed;
  chaos.base = config;
  chaos.base.fault = core::FaultType::kNone;
  if (cli.spec.chaos_adversarial) {
    chaos.gen = core::adversarial_gen_for(chaos.base.duration);
  }
  chaos.shrink = cli.spec.shrink;
  chaos.trace_repros = !trace_path.empty();
  chaos.jobs = static_cast<unsigned>(cli.spec.jobs);
  chaos.heartbeat = (cli.switches & kHeartbeat) != 0;
  const core::ChaosCampaignResult result = core::run_chaos_campaign(chaos);
  for (const core::ChaosTrial& trial : result.trials) {
    if (trial.repro_trace.empty()) continue;
    // Seed + plan-hash suffix: several violations of the same chain (or
    // reruns with other seeds) never overwrite each other's sidecars.
    const core::FaultSchedule& repro = trial.shrunk.has_value()
                                           ? trial.shrunk->schedule
                                           : trial.schedule;
    const std::string sidecar =
        trace_path + "." +
        cli::chaos_repro_stem(core::to_string(trial.chain), trial.trial,
                              trial.experiment_seed,
                              core::schedule_to_json(repro)) +
        ".trace.json";
    cli::write_file_or_die(cli.argv0, sidecar, trial.repro_trace);
    std::fprintf(stderr, "trace: %s\n", sidecar.c_str());
  }
  if (cli.format == "json") {
    std::printf("%s\n", result.to_json().c_str());
  } else {
    std::printf("%s", result.summary_table().c_str());
    std::printf("%zu/%zu violations, %zu expected losses\n",
                result.violations(), result.trials.size(),
                result.expected_losses());
    for (const core::ChaosTrial& trial : result.trials) {
      if (trial.report.verdict == core::OracleVerdict::kPass) continue;
      std::printf("%s trial %zu: %s\n", core::to_string(trial.chain).c_str(),
                  trial.trial, trial.report.summary().c_str());
      if (trial.shrunk.has_value()) {
        std::printf("  repro: %s\n",
                    core::schedule_to_json(trial.shrunk->schedule).c_str());
      }
    }
    std::printf("\nwall-clock profile:\n%s", result.timing_table().c_str());
  }
  return result.violations() > 0 ? 1 : 0;
}

int sweep_main(const Invocation& cli, core::ExperimentConfig config) {
  // Seed sweep: run the single (chain, fault) cell as a one-cell campaign
  // so the sweep aggregation and the thread pool are the same code CI
  // uses. Output is identical for any --jobs value.
  const auto num_seeds = static_cast<std::size_t>(cli.spec.num_seeds);
  core::CampaignConfig campaign;
  campaign.chains = {config.chain};
  campaign.faults = {config.fault};
  campaign.base = config;
  campaign.num_seeds = num_seeds;
  campaign.jobs = static_cast<unsigned>(cli.spec.jobs);
  campaign.heartbeat = (cli.switches & kHeartbeat) != 0;
  const core::CampaignResult result = core::run_campaign(campaign);
  if (cli.format == "json") {
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  }
  if (cli.format == "csv") {
    std::printf("%s", result.to_csv().c_str());
    return 0;
  }
  std::printf("%s under %s, %zu seeds starting at %llu\n",
              core::to_string(config.chain).c_str(),
              core::to_string(config.fault).c_str(), num_seeds,
              static_cast<unsigned long long>(config.seed));
  const auto& seed_runs = result.seed_runs.at({config.chain, config.fault});
  core::Table table({"seed", "score", "committed", "live", "recovery"});
  for (std::size_t i = 0; i < seed_runs.size(); ++i) {
    const core::SensitivityRun& run = seed_runs[i];
    table.add_row({std::to_string(result.seeds[i]),
                   core::format_score(run.score),
                   std::to_string(run.altered.committed),
                   run.altered.live_at_end ? "yes" : "NO",
                   core::Table::num(run.altered.recovery_seconds, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  const core::SeedSweepStats* stats = result.sweep(config.chain, config.fault);
  std::printf(
      "sweep: mean %.2f  stddev %.2f  min %.2f  max %.2f  "
      "liveness losses %zu/%zu\n",
      stats->mean, stats->stddev, stats->min, stats->max,
      stats->liveness_losses, stats->seeds);
  std::printf("\nwall-clock profile:\n%s", result.timing_table().c_str());
  return 0;
}

int single_main(const Invocation& cli, core::ExperimentConfig config) {
  const std::string& trace_path = cli.spec.trace;
  const std::string& metrics_path = cli.spec.metrics;
  sim::TraceSink trace_sink;
  core::MetricsRegistry metrics;
  if (!trace_path.empty()) config.trace = &trace_sink;
  if (!metrics_path.empty()) config.metrics = &metrics;

  const core::SensitivityRun run = core::run_sensitivity(config);

  if (!trace_path.empty()) {
    cli::write_file_or_die(cli.argv0, trace_path,
                           core::trace_to_json(trace_sink));
  }
  if (!metrics_path.empty()) {
    cli::write_file_or_die(cli.argv0, metrics_path,
                           cli::ends_with(metrics_path, ".csv")
                               ? metrics.to_csv()
                               : metrics.to_json());
  }

  if (cli.format == "json") {
    std::printf("%s\n", core::to_json(config.chain, config.fault, run).c_str());
    return 0;
  }
  if (cli.format == "csv") {
    std::printf("%s\n%s\n", core::summary_csv_header().c_str(),
                core::summary_csv_row(config.chain, config.fault, run).c_str());
    return 0;
  }

  std::printf("%s under %s\n", core::to_string(config.chain).c_str(),
              core::to_string(config.fault).c_str());
  core::Table table({"metric", "baseline", "altered"});
  table.add_row({"committed", std::to_string(run.baseline.committed),
                 std::to_string(run.altered.committed)});
  table.add_row({"mean latency",
                 core::Table::num(run.baseline.mean_latency_s, 3) + "s",
                 core::Table::num(run.altered.mean_latency_s, 3) + "s"});
  table.add_row({"p99 latency",
                 core::Table::num(run.baseline.p99_latency_s, 3) + "s",
                 core::Table::num(run.altered.p99_latency_s, 3) + "s"});
  table.add_row({"live at end", run.baseline.live_at_end ? "yes" : "NO",
                 run.altered.live_at_end ? "yes" : "NO"});
  std::printf("%s", table.to_string().c_str());
  std::printf("sensitivity score: %s\n",
              core::format_score(run.score).c_str());
  if (config.resilience.enabled) {
    const core::ResilienceStats& rs = run.altered.resilience;
    std::printf(
        "resilient client: %ju resubmissions, %ju failovers, %ju recovered, "
        "%ju lost, %ju duplicate commits\n",
        static_cast<std::uintmax_t>(rs.resubmissions),
        static_cast<std::uintmax_t>(rs.failovers),
        static_cast<std::uintmax_t>(rs.recovered),
        static_cast<std::uintmax_t>(run.altered.submitted -
                                    run.altered.committed),
        static_cast<std::uintmax_t>(rs.duplicate_commits));
    if (config.resilience.hedge.enabled) {
      std::printf("hedging: %ju armed, %ju won, %ju cancelled\n",
                  static_cast<std::uintmax_t>(rs.hedges_armed),
                  static_cast<std::uintmax_t>(rs.hedges_won),
                  static_cast<std::uintmax_t>(rs.hedges_cancelled));
    }
  }
  if (run.altered.recovery_seconds >= 0) {
    std::printf("recovery: %.1fs after the fault cleared\n",
                run.altered.recovery_seconds);
  }
  if (!trace_path.empty()) {
    std::printf("trace: %s (%zu events; open at ui.perfetto.dev)\n",
                trace_path.c_str(), trace_sink.size());
  }
  if (!metrics_path.empty()) {
    std::printf("metrics: %s (%zu samples)\n", metrics_path.c_str(),
                metrics.sample_times().size());
  }
  const auto bucket_s = static_cast<double>(cli.spec.duration_s / 40);
  std::printf(
      "\naltered throughput:\n%s",
      core::render_timeseries(run.altered.throughput, bucket_s).c_str());
  return 0;
}

/// The five modes in selection order: the first row given its
/// `selected_by` input runs (the last row selects itself), and any other
/// given input outside its `takes` is a usage error.
struct Mode {
  const char* name;
  unsigned selected_by;
  unsigned takes;
  int (*run)(const Invocation&, core::ExperimentConfig);
};

const Mode kModes[] = {
    {"--attribution campaigns", kAttribution,
     kTrace | kFaultPlan | kCsv | kHeartbeat, attribution_main},
    {"--mitigation-study campaigns", kMitigation,
     kSeeds | kChaos | kFaultPlan | kCsv | kHeartbeat, mitigation_main},
    {"--chaos campaigns", kChaos, kTrace | kDump | kHeartbeat, chaos_main},
    {"seed sweeps", kSeeds, kFaultPlan | kCsv | kDump | kHeartbeat,
     sweep_main},
    {"single runs", 0, kTrace | kMetrics | kFaultPlan | kCsv | kDump,
     single_main},
};

}  // namespace

int main(int argc, char** argv) {
  Invocation cli = parse_flags(argc, argv);
  if (!cli.scenario_path.empty()) {
    if (!cli.keys.empty() || (cli.switches & (kAttribution | kMitigation))) {
      fail_usage(argv[0],
                 "--scenario is a complete run description; combine it "
                 "only with --format and --dump-scenario");
    }
    cli.spec = read_scenario_or_exit(argv[0], cli.scenario_path);
  }

  // The check a run does, so a dump always replays.
  core::ExperimentConfig config;
  try {
    config = core::resolve_scenario(cli.spec).config;
  } catch (const std::invalid_argument& error) {
    fail_usage(argv[0], error.what());
  }

  const core::ScenarioSpec& spec = cli.spec;
  const bool fault_plan = config.fault != core::FaultType::kNone ||
                          !config.extra_faults.empty() ||
                          !config.fault_targets.empty();
  const unsigned inputs =
      cli.switches | (spec.num_seeds > 1 ? kSeeds : 0u) |
      (spec.chaos_trials > 0 ? kChaos : 0u) |
      (spec.trace.empty() ? 0u : kTrace) |
      (spec.metrics.empty() ? 0u : kMetrics) |
      (fault_plan ? kFaultPlan : 0u) | (cli.format == "csv" ? kCsv : 0u);
  const Mode& mode = *std::find_if(
      std::begin(kModes), std::end(kModes), [inputs](const Mode& row) {
        return row.selected_by == 0 || (inputs & row.selected_by) != 0;
      });
  for (std::size_t bit = 0; bit < std::size(kInputNames); ++bit) {
    if (((inputs & ~(mode.selected_by | mode.takes)) >> bit & 1u) != 0) {
      fail_usage(argv[0], std::string(kInputNames[bit]) +
                              " does not apply to " + mode.name);
    }
  }

  if ((inputs & kDump) != 0) {
    std::printf("%s\n", core::scenario_to_json(cli.spec).c_str());
    return 0;
  }
  try {
    return mode.run(cli, std::move(config));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s: invalid fault plan: %s\n", argv[0],
                 error.what());
    return 2;
  }
}
