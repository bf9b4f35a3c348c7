// Chaos campaign engine: randomized multi-plan fault schedules, oracle
// verdicts and automatic schedule shrinking.
//
// The paper's matrix scripts nine fault types one at a time; real outages
// compose (a partition during churn, loss on top of a throttled link).
// The chaos engine samples *valid* FaultSchedules of 1-4 overlapping plans
// from a seeded Rng, runs each against a chain, audits the run with the
// invariant oracles (core/oracle.hpp), and — when an oracle fires — delta-
// debugs the schedule down to a minimal repro, emitted as replayable JSON.
//
// Determinism discipline: a campaign trial draws everything through
// draw_chaos_trial from root.derive(stream), where stream encodes (chain,
// trial), and trials fan out through core::run_grid (DESIGN.md §9). The
// same (chain, seed) therefore always yields the byte-identical schedule
// and verdict, however many jobs execute the campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "sim/rng.hpp"

namespace stabl::core {

/// Knob ranges for the schedule generator. All windows are whole seconds
/// and all knobs are quantized (loss to percents, throttle to whole
/// bytes/s, gray to whole ms, delay to whole s) so that a schedule
/// round-trips byte-identically through its JSON repro.
struct ChaosGenConfig {
  /// Cluster geometry the schedules must be valid for.
  std::size_t n = 10;
  /// Nodes 0..entry_nodes-1 take client traffic; by default they are never
  /// targeted, matching the paper's "faulty nodes never receive
  /// transactions" deployment.
  std::size_t entry_nodes = 5;
  bool allow_entry_targets = false;

  std::size_t min_plans = 1;
  std::size_t max_plans = 4;
  /// Targets drawn per plan (without replacement), clamped to the
  /// eligible-node pool.
  std::size_t max_targets = 3;
  /// Fault types the generator samples from. kNone/kSecureClient inject
  /// nothing and are excluded by default; kCrash is sampled (a schedule
  /// containing one is permanently degraded and the recovery oracle knows
  /// it).
  std::vector<FaultType> types{
      FaultType::kCrash,  FaultType::kTransient, FaultType::kPartition,
      FaultType::kDelay,  FaultType::kChurn,     FaultType::kLoss,
      FaultType::kThrottle, FaultType::kGray};

  /// Injection windows, whole seconds: inject in [earliest_inject_s,
  /// latest_recover_s - min_window_s], window length in [min_window_s,
  /// min(max_window_s, latest_recover_s - inject)].
  int earliest_inject_s = 30;
  int latest_recover_s = 140;
  int min_window_s = 5;
  int max_window_s = 60;

  /// Per-type knob ranges (inclusive, quantized as documented above).
  double min_loss = 0.05, max_loss = 0.90;              // whole percents
  double min_throttle_bytes_per_s = 8.0 * 1024.0;       // whole bytes
  double max_throttle_bytes_per_s = 256.0 * 1024.0;
  int min_delay_s = 1, max_delay_s = 120;               // whole seconds
  int min_churn_period_s = 3, max_churn_period_s = 20;  // down + up each
  int min_gray_ms = 500, max_gray_ms = 5000;            // whole ms
  int min_eclipse_ms = 100, max_eclipse_ms = 2000;      // whole ms
  double min_eclipse_filter = 0.05, max_eclipse_filter = 0.90;  // percents
};

/// Generator windows scaled for a run of the given duration: inject from
/// duration/8, everything recovered by duration/3, so the recovery-resume
/// oracle always has a conclusive observation window.
ChaosGenConfig default_gen_for(sim::Duration duration);

/// default_gen_for plus the adversarial plan space: equivocate, withhold
/// and eclipse join the sampled types. Opt-in — default campaigns stay
/// byte-identical to builds that predate the adversarial family.
ChaosGenConfig adversarial_gen_for(sim::Duration duration);

/// Sample one schedule. Consumes rng state. Every returned schedule is
/// canonical() and passes validate() against config.n (enforced by
/// assertion — a sampling bug is a programming error, not an input error).
FaultSchedule generate_schedule(sim::Rng& rng, const ChaosGenConfig& config);

/// Replayable JSON repro of a schedule: {"plans":[{...}]} with only the
/// fields the plan's type reads. canonical(schedule) is serialized, so
/// to_json . from_json . to_json is byte-stable.
std::string schedule_to_json(const FaultSchedule& schedule);

/// Parse schedule_to_json output through core::JsonCursor's strict rules.
/// Throws std::invalid_argument on malformed input, unknown or repeated
/// fields, targets or eclipse victims outside [0, 2^32), non-finite knobs
/// and times of 1e18 us or more.
FaultSchedule schedule_from_json(const std::string& json);

/// Re-runs a candidate schedule and reports the oracle verdict. The
/// shrinker is harness-agnostic: campaigns evaluate with run_experiment,
/// the self-test evaluates with a toy simulation.
using ScheduleEvaluator = std::function<OracleReport(const FaultSchedule&)>;

struct ShrinkOptions {
  /// Evaluation budget (each candidate costs one full run).
  std::size_t max_runs = 200;
  /// Minimum fault window the time-shrinking pass may reach, seconds.
  int min_window_s = 1;
};

struct ShrinkResult {
  FaultSchedule schedule;    ///< minimal schedule still violating
  std::string oracle;        ///< the oracle both schedules trip
  OracleReport report;       ///< verdict of the minimal schedule
  std::size_t runs = 0;      ///< evaluations spent (including the initial)
  std::size_t initial_plans = 0;
};

/// ddmin-style greedy shrink: (1) drop whole plans to a fixed point,
/// (2) narrow each plan's target list, (3) halve each plan's fault window
/// down to min_window_s — keeping a candidate only when the evaluator
/// still reports a violation of the SAME oracle. Returns std::nullopt when
/// the original schedule does not violate at all.
std::optional<ShrinkResult> shrink_schedule(const FaultSchedule& schedule,
                                            const ScheduleEvaluator& evaluate,
                                            const ShrinkOptions& options = {});

struct ChaosCampaignConfig {
  std::vector<ChainKind> chains{kAllChains,
                                kAllChains + std::size(kAllChains)};
  std::size_t trials_per_chain = 5;
  /// Root seed; trial k of chain c draws from derive(c * 1'000'003 + k).
  std::uint64_t seed = 42;
  /// Template for every trial run (chain/fault/seed/schedule overwritten
  /// per trial; capture_replicas forced on so the safety oracles can see).
  ExperimentConfig base{};
  /// Generator knobs; windows default to default_gen_for(base.duration).
  std::optional<ChaosGenConfig> gen{};
  OracleConfig oracle{};
  /// Shrink every violating schedule to a minimal repro.
  bool shrink = false;
  ShrinkOptions shrink_options{};
  /// Re-run every violating trial's minimal schedule (the shrunk one when
  /// shrinking is on, else the original) with a TraceSink attached and
  /// store the Perfetto JSON in ChaosTrial::repro_trace — every repro
  /// ships with its timeline. The traced re-run is byte-identical to the
  /// audited run (tracing is observe-only), so verdicts never change.
  bool trace_repros = true;
  /// Worker lanes (1 = serial). Output is byte-identical for any value.
  unsigned jobs = 1;
  /// Wall-clock progress heartbeat on stderr (core::Heartbeat). Excluded
  /// from every deterministic serializer, like wall_ms.
  bool heartbeat = false;
};

struct ChaosTrial {
  ChainKind chain = ChainKind::kRedbelly;
  std::size_t trial = 0;             ///< index within the chain
  std::uint64_t experiment_seed = 0;  ///< drawn from the trial stream
  FaultSchedule schedule;
  OracleReport report;
  /// Slim run summary (full replica snapshots are dropped after auditing).
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  bool live_at_end = false;
  /// Only for violating trials when shrinking is on.
  std::optional<ShrinkResult> shrunk;
  /// Perfetto trace_event JSON of the violating run (minimal schedule),
  /// when ChaosCampaignConfig::trace_repros is on. Deterministic — it is a
  /// function of (config, seed, schedule) — but deliberately kept out of
  /// to_json(): a campaign document should not embed megabytes of
  /// timeline. Harness binaries write it to a sidecar file instead.
  std::string repro_trace;
  /// Wall-clock milliseconds this trial consumed (run + oracles + shrink +
  /// traced re-run). Machine-dependent; excluded from to_json().
  double wall_ms = 0.0;
};

struct ChaosCampaignResult {
  /// Chain-major, trial-minor — deterministic order.
  std::vector<ChaosTrial> trials;

  [[nodiscard]] std::size_t violations() const;
  [[nodiscard]] std::size_t expected_losses() const;
  /// One row per trial: chain, trial, seed, plans, verdict, worst oracle.
  [[nodiscard]] std::string summary_table() const;
  /// Full campaign as a JSON array (schedule + findings + repro).
  [[nodiscard]] std::string to_json() const;
  /// Wall-clock phase profile: one row per trial plus a total row.
  [[nodiscard]] std::string timing_table() const;
};

/// Trial k of `chain` in a campaign rooted at `root`, drawn but not run:
/// chain, trial, experiment_seed and schedule set. The first next_u64() of
/// root.derive(chain * 1'000'003 + k) seeds the experiment, then
/// generate_schedule(gen) draws from the same stream. The stream encodes
/// the chain, not its list position, so reordering chains never changes a
/// trial. Chaos trials and mitigation chaos pairs both draw here.
ChaosTrial draw_chaos_trial(const sim::Rng& root, ChainKind chain,
                            std::size_t k, const ChaosGenConfig& gen);

/// The ExperimentConfig a chaos trial runs: paper_cell(base, chain, kNone,
/// experiment_seed) with the primary fault's targets cleared (the schedule
/// carries every plan), the sampled schedule in extra_faults and replica
/// capture forced on.
ExperimentConfig chaos_trial_config(const ChaosCampaignConfig& config,
                                    ChainKind chain,
                                    std::uint64_t experiment_seed,
                                    const FaultSchedule& schedule);

/// Run trials_per_chain randomized schedules against every chain through
/// run_grid on config.jobs lanes: byte-identical output for any jobs
/// value.
ChaosCampaignResult run_chaos_campaign(const ChaosCampaignConfig& config);

}  // namespace stabl::core
