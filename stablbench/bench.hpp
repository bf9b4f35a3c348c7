// Shared declarations of the repository benchmark (see README.md).
//
// The benchmark measures the simulator from outside: every number comes
// from timing calls into public functions (core::run_campaign,
// core::run_experiment, core::run_chaos_campaign, ...) or from the public
// observation seams (chain::Registry::derive, net::Network::attach,
// core::MetricsRegistry, sim::LifecycleRecorder). No simulator source
// changes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "core/experiment.hpp"
#include "net/message.hpp"

namespace stablbench {

using namespace stabl;

// ---------------------------------------------------------------------------
// Clocks and digests.
// ---------------------------------------------------------------------------

/// Host seconds on the steady clock.
inline double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User plus system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// Peak resident set size of the process since the last reset_peak_rss(),
/// MiB (since process start where the kernel cannot reset it).
double peak_rss_mb();

/// Restart peak-RSS accounting from the current resident set.
void reset_peak_rss();

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
std::string digest_hex(const std::string& text);

/// Canonical text of every deterministic ExperimentResult field: the
/// counts, latencies, throughput series, network and resilience stats and
/// chain metrics. Replica snapshots are summarised by their ledger hashes.
std::string experiment_text(const core::ExperimentResult& result);

/// Canonical text of a chaos trial as run_chaos_campaign reports it.
std::string trial_text(const core::ChaosTrial& trial);

// ---------------------------------------------------------------------------
// Traced-run seam (a): tier-2 timed chains.
// ---------------------------------------------------------------------------

/// Host-time accounting of one simulation, filled by the timed chain
/// factory and the timing-proxy endpoints it installs. One probe per
/// simulation; a probe must not be shared across concurrent runs.
struct CellProbe {
  double build_s = 0.0;      ///< host seconds inside the base make_cluster
  double deliver_s = 0.0;    ///< host seconds inside BlockchainNode::deliver
  std::uint64_t msgs_in = 0;  ///< node-delivered messages
  std::vector<std::unique_ptr<net::Endpoint>> proxies;
};

/// Owns one fresh probe per cluster the timed chains build on any thread
/// that has no probe of its own, while a Scope is active: a campaign run on
/// the timed twins through core::run_campaign reports, in size(), how many
/// simulations the campaign engine really ran.
class ProbeCollector {
 public:
  /// Activates the collector for the scope's lifetime. One at a time.
  class Scope {
   public:
    explicit Scope(ProbeCollector& collector);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// A new probe owned by the collector. Thread-safe.
  CellProbe& add();
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CellProbe>> probes_;
};

/// Queue a tier-2 `timed_<chain>` meta-chain for each paper chain through
/// chain::Registry::derive. Must run before the first registry query.
/// Tier 2 sorts after the paper chains (ids 0-4) and the tier-1 nversion
/// meta-chains (ids 5-9), so existing ids are unchanged. Idempotent.
void register_timed_chains();

/// The timed twin of a paper chain.
core::ChainKind timed_chain(core::ChainKind chain);

/// Runs `config` with the timed chain swapped in, charging node handler
/// and cluster build time to `probe`.
core::ExperimentResult run_timed(const core::ExperimentConfig& config,
                                 CellProbe& probe);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// One digest of a unit's deterministic output. `sims` is 1 for a
/// per-simulation digest and 0 for a whole-document digest.
struct Digest {
  std::string name;
  std::string hex;
  int sims = 0;
};

/// Result of one untraced unit of work.
struct UnitResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak RSS during the unit
  std::size_t sims = 0;    ///< simulations attempted
  std::size_t failed = 0;  ///< simulations that threw
  std::vector<Digest> digests;
  std::vector<std::string> errors;
};

/// Result of one traced run: the per-layer metrics, plus the simulations
/// whose traced replay differed from the untraced run.
struct LayerResult {
  std::map<std::string, double> metrics;
  std::size_t sims = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Simulations one unit attempts.
  [[nodiscard]] virtual std::size_t unit_sims() const = 0;
  /// Untraced unit of work, timed end to end.
  virtual UnitResult run_unit() = 0;
  /// Separate traced run: one untraced unit, then the replay of every
  /// simulation on the timed chains with metrics and lifecycle recording
  /// attached.
  virtual LayerResult run_traced() = 0;
};

/// Builds the workload's inputs from `seed` (registry finalisation,
/// scenario and preset resolution, config construction). Throws
/// std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace stablbench
