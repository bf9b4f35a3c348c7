// The STABL experiment runner (paper §3, "Experimental settings").
//
// Deployment geometry: n = 10 blockchain nodes and 5 client machines, each
// client sending native transfers at 40 TPS (200 TPS total) to one
// blockchain node (nodes 0-4). Failures are injected on the remaining
// nodes 5-9, "this way, faulty nodes never receive transactions they would
// otherwise lose". A run lasts 400 s; faults hit at 133 s and transient
// conditions clear at 266 s. The Byzantine-node-tolerance experiment (§7)
// instead connects every client to 4 = max(t_B)+1 nodes and doubles the
// VM size to 8 vCPUs.
//
// An ExperimentConfig names its primary fault by type, count, targets and
// window; the fault's knobs travel as one core::FaultParams
// (`fault_params`), the struct every FaultPlan carries, so resolving the
// primary plan copies one member.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chain/registry.hpp"
#include "chain/types.hpp"
#include "core/fault.hpp"
#include "core/resilience.hpp"
#include "core/sensitivity.hpp"
#include "core/traffic.hpp"
#include "core/workload.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace stabl::chain {
class BlockchainNode;
}  // namespace stabl::chain

namespace stabl::sim {
class LifecycleRecorder;
class TraceSink;
}  // namespace stabl::sim

namespace stabl::core {

class MetricsRegistry;

/// ChainKind is a thin alias over chain::Registry ids: the five paper
/// chains register at tier 0 and therefore always hold ids 0-4 in
/// alphabetical order — exactly these historical enum values. Extension
/// chains (e.g. the refbft reference plugin) get ids past the enum range;
/// every ChainKind consumer resolves through the registry, so those values
/// are just as valid.
enum class ChainKind { kAlgorand, kAptos, kAvalanche, kRedbelly, kSolana };

/// The paper's five chains. Campaign/bench defaults iterate this — not the
/// registry — so linking an extension chain never silently widens a
/// default campaign.
inline constexpr ChainKind kAllChains[] = {
    ChainKind::kAlgorand, ChainKind::kAptos, ChainKind::kAvalanche,
    ChainKind::kRedbelly, ChainKind::kSolana};

/// The process-wide chain registry, with the five built-in chains'
/// registration objects anchored (a plain chain::Registry::global() call
/// from a binary that never names a chain symbol would let the static
/// archive linker drop their translation units — and the registrations
/// with them).
const chain::Registry& chain_registry();

constexpr chain::ChainId chain_id(ChainKind chain) {
  return static_cast<chain::ChainId>(chain);
}
constexpr ChainKind chain_kind(chain::ChainId id) {
  return static_cast<ChainKind>(id);
}

/// Registry traits of a chain. Throws std::invalid_argument (listing the
/// registered chains) on an out-of-range value — the descriptive failure
/// an out-of-range ChainKind cast produces everywhere now.
const chain::ChainTraits& chain_traits(ChainKind chain);

/// Case-insensitive name -> ChainKind. Throws std::invalid_argument
/// listing the valid names when unknown.
ChainKind parse_chain_name(std::string_view name);

std::string to_string(ChainKind chain);

/// t_B: Algorand and Avalanche tolerate a 20% coalition (⌈n/5-1⌉); Aptos,
/// Redbelly and Solana tolerate less than a third (⌈n/3-1⌉). Paper §2.
std::size_t fault_tolerance(ChainKind chain, std::size_t n);

struct ExperimentConfig {
  ChainKind chain = ChainKind::kRedbelly;
  std::size_t n = 10;
  std::size_t clients = 5;
  double tps_per_client = 40.0;
  double vcpus = 4.0;
  /// Blockchain nodes each client submits to (1, or t_B+1 = 4 for the
  /// secure client).
  int client_fanout = 1;
  /// 0 = wait for all endpoints (paper's secure client); k > 0 = accept on
  /// k matching result hashes (credence.js-style verified client).
  std::size_t client_matching = 0;
  std::uint64_t seed = 42;
  sim::Duration duration = sim::sec(400);
  FaultType fault = FaultType::kNone;
  /// Number of faulty nodes; -1 selects the paper's default (t for crash,
  /// t+1 for transient and partition).
  int fault_count = -1;
  sim::Duration inject_at = sim::sec(133);
  sim::Duration recover_at = sim::sec(266);
  /// Explicit target override for the primary fault; empty selects the
  /// paper's default (nodes that take no client traffic). Targeting an
  /// entry node is how the resilient client's failover is studied.
  std::vector<net::NodeId> fault_targets{};
  /// Per-type knobs of the primary fault (loss probability, throttle
  /// bandwidth, gray latency, eclipse victim/delay/filter, delay amount,
  /// churn periods); only the knobs of `fault`'s type are read.
  FaultParams fault_params{};
  /// Additional fault plans armed alongside the primary `fault` (engine
  /// v2 composition: loss during a partition, churn plus delay, ...).
  /// Each carries its own FaultParams. Plans with empty targets get the
  /// same default target selection as the primary fault of their type.
  FaultSchedule extra_faults{};
  /// Client-side timeouts + failover + backoff + circuit breaker. When
  /// enabled, every client gets all entry nodes as failover candidates
  /// (rotated so client i starts at entry node i) and client_fanout is
  /// ignored — submissions go to one endpoint at a time.
  ResilienceConfig resilience{};
  /// Per-chain parameter overrides, merged over the chain's registered
  /// defaults (chain::ChainTraits::default_params). Strict: a key the
  /// chain did not declare throws std::invalid_argument. Scenario files
  /// (core/scenario.hpp) and the ablation benches populate this.
  chain::ChainParams chain_params{};
  /// Submission shape (average rate stays tps_per_client). The paper uses
  /// the constant shape; the others quantify its §8 limitation.
  WorkloadConfig workload{};
  /// Production traffic population (core/traffic.hpp): accounts per
  /// client, Zipf skew, hot-key contention, regions. Inactive by default —
  /// the paper's one-account-per-client workload stays byte-for-byte.
  TrafficConfig traffic{};
  /// Capture per-replica ledger snapshots and the clients' submitted
  /// transaction ids into the result, so the invariant oracles
  /// (core/oracle.hpp) can audit the run. Off by default: a 400 s run
  /// snapshots ~10 x 80k transaction ids, too heavy to keep for every
  /// cell of a large seed-swept campaign.
  bool capture_replicas = false;
  /// Observability (core/trace.hpp, core/metrics.hpp). Both observe-only:
  /// attaching them never perturbs RNG draws or event ordering, so every
  /// report stays byte-identical with or without them (tests assert this).
  /// Not owned; null = disabled. A sink/registry must not be shared across
  /// concurrently running cells.
  sim::TraceSink* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Sim-time sampling period of the metrics ticker.
  sim::Duration metrics_period = sim::sec(1);
  /// Per-transaction lifecycle recorder (sim/lifecycle.hpp). Same
  /// observe-only contract and ownership rules as trace/metrics; the
  /// attribution layer (core/attribution.hpp) attaches one per run.
  sim::LifecycleRecorder* lifecycle = nullptr;
};

/// One committed block as the oracles see it: structure only, no payloads.
struct BlockSummary {
  std::uint64_t height = 0;
  std::uint64_t round = 0;
  double committed_at_s = 0.0;
  std::vector<chain::TxId> txs;
};

/// A replica's ledger at the end of the run, plus its process state.
struct ReplicaSnapshot {
  net::NodeId id = 0;
  bool alive_at_end = true;
  int restarts = 0;
  /// Ledger::content_hash() — fast whole-chain equality probe.
  std::uint64_t ledger_hash = 0;
  std::vector<BlockSummary> blocks;
};

/// Snapshot every node's ledger (tests and custom harnesses reuse this; the
/// chaos self-test snapshots its deliberately broken toy chain with it).
std::vector<ReplicaSnapshot> snapshot_replicas(
    const std::vector<chain::BlockchainNode*>& nodes);

struct ExperimentResult {
  std::vector<double> latencies;  // client-observed, seconds
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::vector<double> throughput;  // committed tx per 1 s bin (node 0)
  /// Whether transactions were still being committed at the end of the
  /// run; false means the chain lost liveness (infinite sensitivity).
  bool live_at_end = false;
  /// Seconds from recover_at to sustained throughput; negative if never
  /// (only meaningful for transient/partition runs).
  double recovery_seconds = -1.0;
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t events = 0;
  net::NetworkStats net_stats{};
  /// Resubmission bookkeeping summed over all clients: lost vs. recovered
  /// vs. duplicate-committed transactions (all zeros for naive clients).
  ResilienceStats resilience{};
  /// Transactions still awaiting a commit notification at the end.
  std::uint64_t in_flight_at_end = 0;
  /// Chain-specific diagnostic counters, summed over all nodes (the
  /// paper's log-derived quantities: "speculative_aborts",
  /// "throttled_dropped", "panicked", ...). Keys depend on the chain.
  std::map<std::string, double> chain_metrics;
  /// Only populated when ExperimentConfig::capture_replicas is set.
  std::vector<ReplicaSnapshot> replicas;
  /// Union of every client's generated transaction ids (capture_replicas
  /// only), for the committed-subset-of-submitted oracle.
  std::vector<chain::TxId> submitted_ids;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// The full fault schedule run_experiment arms for a config: the primary
/// `fault` plan (window and `fault_params` copied from the config) with
/// the paper's default targets resolved, followed by the
/// `extra_faults` plans (empty target lists resolved the same way). The
/// invariant oracles call this to learn exactly which windows and targets
/// a run was subjected to.
FaultSchedule resolved_schedule(const ExperimentConfig& config);

/// The paper's run geometry for `duration_s` seconds, and the one place
/// it is written: faults hit at the first integer third and clear at the
/// second (400 s keeps the paper's 133 s / 266 s window).
void apply_run_window(ExperimentConfig& config, std::int64_t duration_s);

/// One cell of the paper's grid: `base` with chain, fault and seed set.
/// The secure-client fault gets the §7 geometry (t_B+1 = 4 endpoints and
/// 8-vCPU VMs). The trace, metrics and lifecycle pointers are detached,
/// because cells run concurrently and a sink shared through `base` would
/// race. The one place the paper's cell rule is written down: every
/// campaign runner, the scenario resolver and the figure benches build
/// their cells here.
ExperimentConfig paper_cell(const ExperimentConfig& base, ChainKind chain,
                            FaultType fault, std::uint64_t seed);

/// A baseline/altered pair and its sensitivity score. The baseline is the
/// altered config with no fault and fanout 1 (same chain, same resources,
/// same seed), exactly the paper's pairing.
struct SensitivityRun {
  ExperimentResult baseline;
  ExperimentResult altered;
  SensitivityScore score;
};

/// The fault-free twin of a config: no fault, no extra plans, fanout 1,
/// constant workload, observability detached — the paper's pairing rule,
/// shared by run_sensitivity and the attribution campaign.
ExperimentConfig baseline_of(const ExperimentConfig& altered_config);

SensitivityRun run_sensitivity(const ExperimentConfig& altered_config,
                               const SensitivityOptions& options = {});

}  // namespace stabl::core
