// Declarative production traffic model (ROADMAP item 4).
//
// The paper's workload is 5 clients x 40 TPS of native transfers from one
// account each — §8 names it a limitation ("not representative of
// realistic fluctuating workloads, request bursts or demanding
// workloads"). This layer replaces the hard-wired population with a
// declarative spec composing four orthogonal axes:
//
//  * arrival shape — the WorkloadShape family, extended with diurnal and
//    flash-crowd bursts (core/workload.hpp);
//  * account population — a heavy-tailed (Zipf) set of sender accounts per
//    client, whales at the head and minnows in the tail, assigned
//    deterministically from the client index;
//  * contention — a fraction of traffic spent from the shared hot wallet
//    (chain::kHotKey) with globally-sequenced nonces, which stresses
//    exactly what the paper's constant transfer mix cannot: Block-STM
//    re-execution on Aptos and nonce-gap ordering stalls on Avalanche;
//  * geography — clients spread over regions mapped onto extra network
//    link latency toward the cluster.
//
// Determinism: population assignment and account selection draw from a
// dedicated per-client RNG seeded from the tx seed and client index —
// never from the simulation RNG streams — so a run with the traffic model
// disabled is byte-identical to one built before this layer existed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/types.hpp"
#include "core/workload.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace stabl::core {

/// The JSON-facing traffic knobs (the "traffic" object of a scenario —
/// core/scenario.hpp parses and serializes these strictly). Defaults are
/// the paper's legacy population: one account per client, no contention,
/// one region, shape inherited from the scenario's "workload" field.
struct TrafficSpec {
  /// Named preset ("exchange_burst", "nft_mint", "dex_sustained"); empty
  /// = fully explicit. A preset fills every knob still at its default;
  /// explicitly set non-default values win. See traffic_preset_names().
  std::string preset{};
  /// Arrival shape override ("constant", "bursty", "ramp", "diurnal",
  /// "flash"); empty inherits the scenario's top-level "workload" shape.
  std::string shape{};
  /// [1, kMaxAccountsPerClient].
  std::int64_t accounts_per_client = 1;
  /// Zipf exponent s over each client's accounts (weight 1/(k+1)^s);
  /// 0 = uniform.
  double zipf_exponent = 0.0;
  /// Fraction of submissions spent from the shared hot wallet.
  double hot_fraction = 0.0;
  /// >= 1; regions past the client count get no clients.
  std::int64_t regions = 1;
  /// Extra client->cluster latency of the farthest region; intermediate
  /// regions interpolate linearly.
  double region_spread_ms = 40.0;
  // Shape knobs forwarded into WorkloadConfig (diurnal/flash only).
  double diurnal_amplitude = 0.6;
  double diurnal_period_s = 0.0;  // 0 = one cycle over the run
  double flash_at_s = 150.0;
  double flash_duration_s = 50.0;
  double flash_factor = 6.0;
  /// Where the fault window lands relative to the traffic shape:
  /// "" / "steady" keeps the historical integer-thirds windows; "burst"
  /// centres the window inside the flash crowd (or the diurnal peak), so
  /// a cell measures the fault hitting the system at its busiest.
  std::string fault_phase{};

  bool operator==(const TrafficSpec&) const = default;
};

/// Valid names, for validation errors and `stabl_cli --list-workloads`.
const std::vector<std::string>& traffic_preset_names();
const std::vector<std::string>& workload_shape_names();

/// One-line descriptions for `stabl_cli --list-workloads`. Unknown names
/// return an empty string (the listing only iterates the names above).
std::string workload_shape_description(const std::string& name);
std::string traffic_preset_description(const std::string& name);

/// Parse a shape name ("constant"..."flash"). Throws std::invalid_argument
/// listing the valid names when unknown.
WorkloadShape parse_workload_shape(const std::string& name);
std::string to_string(WorkloadShape shape);

/// The preset's TrafficSpec (shape + population + contention + regions).
/// Throws std::invalid_argument listing the valid presets when unknown.
TrafficSpec traffic_preset(const std::string& name);

/// Fill every knob of `spec` still at its TrafficSpec{} default from
/// `spec.preset` (no-op for an empty preset name).
void apply_traffic_preset(TrafficSpec& spec);

/// The most accounts one client may hold (traffic.accounts_per_client).
inline constexpr std::int64_t kMaxAccountsPerClient = 1'000'000;

/// Range validation mirroring validate_scenario's style: empty string when
/// well-formed, else a human-readable error.
[[nodiscard]] std::string validate_traffic(const TrafficSpec& spec);

/// The resolved, experiment-facing form (core/experiment.hpp carries one).
struct TrafficConfig {
  std::size_t accounts_per_client = 1;
  double zipf_exponent = 0.0;
  double hot_fraction = 0.0;
  std::size_t regions = 1;
  sim::Duration region_spread = sim::ms(40);

  /// True when any axis departs from the paper's legacy population; the
  /// client then takes the population submission path. False keeps the
  /// legacy one-account-per-client path byte-for-byte.
  [[nodiscard]] bool active() const {
    return accounts_per_client > 1 || zipf_exponent > 0.0 ||
           hot_fraction > 0.0 || regions > 1;
  }

  friend bool operator==(const TrafficConfig&,
                         const TrafficConfig&) = default;
};

/// Lower the JSON knobs onto the experiment form (shape/fault_phase are
/// handled by resolve_scenario, which owns WorkloadConfig and windows).
TrafficConfig resolve_traffic(const TrafficSpec& spec);

/// Run-wide shared state of the traffic model: the hot wallet's global
/// nonce sequencer. The simulation is single-threaded and clients emit in
/// deterministic enrolment order, so handing out nonces first-come makes
/// the hot account's issuance order a pure function of the schedule.
class TrafficModel {
 public:
  explicit TrafficModel(const TrafficConfig& config) : config_(config) {}

  TrafficModel(const TrafficModel&) = delete;
  TrafficModel& operator=(const TrafficModel&) = delete;

  [[nodiscard]] const TrafficConfig& config() const { return config_; }
  std::uint64_t next_hot_nonce() { return hot_nonce_++; }
  [[nodiscard]] std::uint64_t hot_submitted() const { return hot_nonce_; }

 private:
  TrafficConfig config_;
  std::uint64_t hot_nonce_ = 0;
};

/// One client's slice of the population: its sender accounts, the Zipf
/// CDF over them, its region, and the shared model. Inactive (null model)
/// keeps the legacy single-account path.
struct ClientTrafficPlan {
  TrafficModel* model = nullptr;  ///< Shared, not owned; null = inactive.
  std::vector<chain::AccountId> accounts;
  /// Cumulative normalized Zipf weights, one entry per account.
  std::vector<double> zipf_cdf;
  /// Seed of the client's dedicated traffic RNG (account selection and the
  /// hot-wallet coin flip draw from here, never from simulation streams).
  std::uint64_t rng_seed = 0;
  std::size_t region = 0;

  [[nodiscard]] bool active() const { return model != nullptr; }
};

/// Deterministic population slice for client `index`: accounts
/// [base + index*apc, base + (index+1)*apc), Zipf CDF from
/// config.zipf_exponent, region = index % config.regions, RNG seed mixed
/// from `tx_seed` and the index.
ClientTrafficPlan make_client_plan(const TrafficConfig& config,
                                   TrafficModel& model, std::size_t index,
                                   std::uint64_t tx_seed);

/// Index into `cdf` selected by uniform draw `u` in [0, 1).
std::size_t zipf_pick(const std::vector<double>& cdf, double u);

/// Sink account a population sender transfers into (one sink per sender).
chain::AccountId population_sink(chain::AccountId sender);

}  // namespace stabl::core
