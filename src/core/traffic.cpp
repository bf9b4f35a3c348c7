#include "core/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "chain/hash.hpp"

namespace stabl::core {
namespace {

/// First sender account of the population (clear of the legacy clients'
/// accounts 0..4, their 1000+ sinks, and the reserved hot accounts).
constexpr chain::AccountId kPopulationBase = 10'000;
/// Population sinks live far above the senders; each sender pays into its
/// own sink so transfers never create accidental cross-account coupling.
constexpr chain::AccountId kPopulationSinkBase = 500'000'000;

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_shape_names() {
  static const std::vector<std::string> names{"constant", "bursty", "ramp",
                                              "diurnal", "flash"};
  return names;
}

const std::vector<std::string>& traffic_preset_names() {
  static const std::vector<std::string> names{"exchange_burst", "nft_mint",
                                              "dex_sustained"};
  return names;
}

std::string workload_shape_description(const std::string& name) {
  if (name == "constant") return "steady rate, the paper's workload";
  if (name == "bursty") return "square wave alternating high/low phases";
  if (name == "ramp") return "linear growth, same average";
  if (name == "diurnal") return "sinusoidal day/night cycle, same average";
  if (name == "flash") return "flash crowd: factor-x window, same average";
  return "";
}

std::string traffic_preset_description(const std::string& name) {
  if (name == "exchange_burst") {
    return "withdrawal rush: flash crowd, 3 regions, 15% hot wallet";
  }
  if (name == "nft_mint") {
    return "mint drop: 10x spike, 60% of traffic on the contended key";
  }
  if (name == "dex_sustained") {
    return "sustained DEX: diurnal swing, Zipf 1.2 accounts, 30% hot pool";
  }
  return "";
}

WorkloadShape parse_workload_shape(const std::string& name) {
  if (name == "constant") return WorkloadShape::kConstant;
  if (name == "bursty") return WorkloadShape::kBursty;
  if (name == "ramp") return WorkloadShape::kRamp;
  if (name == "diurnal") return WorkloadShape::kDiurnal;
  if (name == "flash") return WorkloadShape::kFlash;
  throw std::invalid_argument("unknown workload shape \"" + name +
                              "\" (valid: " + join(workload_shape_names()) +
                              ")");
}

std::string to_string(WorkloadShape shape) {
  switch (shape) {
    case WorkloadShape::kConstant: return "constant";
    case WorkloadShape::kBursty: return "bursty";
    case WorkloadShape::kRamp: return "ramp";
    case WorkloadShape::kDiurnal: return "diurnal";
    case WorkloadShape::kFlash: return "flash";
  }
  return "constant";
}

TrafficSpec traffic_preset(const std::string& name) {
  TrafficSpec preset;
  preset.preset = name;
  if (name == "exchange_burst") {
    // Exchange withdrawal rush: a flash crowd of omnibus-wallet traffic
    // from a geographically spread user base.
    preset.shape = "flash";
    preset.accounts_per_client = 32;
    preset.zipf_exponent = 1.1;
    preset.hot_fraction = 0.15;
    preset.regions = 3;
    preset.fault_phase = "burst";
    return preset;
  }
  if (name == "nft_mint") {
    // Mint drop: a short, very tall spike, most of it hammering the one
    // contended key.
    preset.shape = "flash";
    preset.flash_factor = 10.0;
    preset.flash_duration_s = 30.0;
    preset.accounts_per_client = 8;
    preset.zipf_exponent = 0.8;
    preset.hot_fraction = 0.6;
    preset.regions = 2;
    preset.fault_phase = "burst";
    return preset;
  }
  if (name == "dex_sustained") {
    // Sustained DEX load: diurnal swing, deep heavy-tailed population, a
    // popular pool taking a steady share of the flow.
    preset.shape = "diurnal";
    preset.diurnal_amplitude = 0.7;
    preset.accounts_per_client = 16;
    preset.zipf_exponent = 1.2;
    preset.hot_fraction = 0.3;
    preset.regions = 3;
    return preset;
  }
  throw std::invalid_argument("unknown traffic preset \"" + name +
                              "\" (valid: " + join(traffic_preset_names()) +
                              ")");
}

void apply_traffic_preset(TrafficSpec& spec) {
  if (spec.preset.empty()) return;
  const TrafficSpec base = traffic_preset(spec.preset);
  const TrafficSpec defaults{};
  // A preset is a starting point, not a straitjacket: knobs the spec set
  // to something other than the TrafficSpec{} default stay as written.
  if (spec.shape == defaults.shape) spec.shape = base.shape;
  if (spec.accounts_per_client == defaults.accounts_per_client) {
    spec.accounts_per_client = base.accounts_per_client;
  }
  if (spec.zipf_exponent == defaults.zipf_exponent) {
    spec.zipf_exponent = base.zipf_exponent;
  }
  if (spec.hot_fraction == defaults.hot_fraction) {
    spec.hot_fraction = base.hot_fraction;
  }
  if (spec.regions == defaults.regions) spec.regions = base.regions;
  if (spec.region_spread_ms == defaults.region_spread_ms) {
    spec.region_spread_ms = base.region_spread_ms;
  }
  if (spec.diurnal_amplitude == defaults.diurnal_amplitude) {
    spec.diurnal_amplitude = base.diurnal_amplitude;
  }
  if (spec.diurnal_period_s == defaults.diurnal_period_s) {
    spec.diurnal_period_s = base.diurnal_period_s;
  }
  if (spec.flash_at_s == defaults.flash_at_s) {
    spec.flash_at_s = base.flash_at_s;
  }
  if (spec.flash_duration_s == defaults.flash_duration_s) {
    spec.flash_duration_s = base.flash_duration_s;
  }
  if (spec.flash_factor == defaults.flash_factor) {
    spec.flash_factor = base.flash_factor;
  }
  if (spec.fault_phase == defaults.fault_phase) {
    spec.fault_phase = base.fault_phase;
  }
}

std::string validate_traffic(const TrafficSpec& spec) {
  std::ostringstream error;
  const auto known = [](const std::vector<std::string>& names,
                        const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  if (!spec.preset.empty() &&
      !known(traffic_preset_names(), spec.preset)) {
    error << "\"traffic.preset\" unknown preset \"" << spec.preset
          << "\" (valid: " << join(traffic_preset_names()) << ")";
  } else if (!spec.shape.empty() &&
             !known(workload_shape_names(), spec.shape)) {
    error << "\"traffic.shape\" unknown shape \"" << spec.shape
          << "\" (valid: " << join(workload_shape_names()) << ")";
  } else if (spec.accounts_per_client < 1) {
    error << "\"traffic.accounts_per_client\" must be >= 1 (got "
          << spec.accounts_per_client << ")";
  } else if (spec.accounts_per_client > kMaxAccountsPerClient) {
    // make_client_plan allocates per-account arrays for every client, and
    // the client profile counts accounts in 32 bits.
    error << "\"traffic.accounts_per_client\" must be <= "
          << kMaxAccountsPerClient << " (got " << spec.accounts_per_client
          << ")";
  } else if (spec.zipf_exponent < 0.0) {
    error << "\"traffic.zipf_exponent\" must be >= 0";
  } else if (spec.hot_fraction < 0.0 || spec.hot_fraction > 1.0) {
    error << "\"traffic.hot_fraction\" must be in [0, 1]";
  } else if (spec.regions < 1) {
    error << "\"traffic.regions\" must be >= 1 (got " << spec.regions
          << ")";
  } else if (spec.region_spread_ms < 0.0) {
    error << "\"traffic.region_spread_ms\" must be >= 0";
  } else if (spec.diurnal_amplitude < 0.0 || spec.diurnal_amplitude >= 1.0) {
    error << "\"traffic.diurnal_amplitude\" must be in [0, 1)";
  } else if (spec.diurnal_period_s < 0.0) {
    error << "\"traffic.diurnal_period_s\" must be >= 0";
  } else if (spec.flash_at_s < 0.0) {
    error << "\"traffic.flash_at_s\" must be >= 0";
  } else if (!(spec.flash_duration_s > 0.0)) {
    error << "\"traffic.flash_duration_s\" must be > 0";
  } else if (spec.flash_factor < 1.0) {
    error << "\"traffic.flash_factor\" must be >= 1";
  } else if (!spec.fault_phase.empty() && spec.fault_phase != "steady" &&
             spec.fault_phase != "burst") {
    error << "\"traffic.fault_phase\" must be steady or burst (got \""
          << spec.fault_phase << "\")";
  }
  return error.str();
}

TrafficConfig resolve_traffic(const TrafficSpec& spec) {
  TrafficSpec effective = spec;
  apply_traffic_preset(effective);
  TrafficConfig config;
  config.accounts_per_client =
      static_cast<std::size_t>(effective.accounts_per_client);
  config.zipf_exponent = effective.zipf_exponent;
  config.hot_fraction = effective.hot_fraction;
  config.regions = static_cast<std::size_t>(effective.regions);
  config.region_spread = sim::Duration{
      static_cast<std::int64_t>(effective.region_spread_ms * 1000.0)};
  return config;
}

ClientTrafficPlan make_client_plan(const TrafficConfig& config,
                                   TrafficModel& model, std::size_t index,
                                   std::uint64_t tx_seed) {
  ClientTrafficPlan plan;
  plan.model = &model;
  const std::size_t count = std::max<std::size_t>(1, config.accounts_per_client);
  plan.accounts.reserve(count);
  const auto base = static_cast<chain::AccountId>(
      kPopulationBase + index * count);
  for (std::size_t k = 0; k < count; ++k) {
    plan.accounts.push_back(static_cast<chain::AccountId>(base + k));
  }
  // Zipf CDF over the client's accounts: account 0 is the whale, the tail
  // are minnows. Exponent 0 degrades to uniform.
  plan.zipf_cdf.reserve(count);
  double total = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    total += std::pow(static_cast<double>(k + 1), -config.zipf_exponent);
    plan.zipf_cdf.push_back(total);
  }
  for (double& c : plan.zipf_cdf) c /= total;
  // The traffic RNG is its own stream: population draws must not perturb
  // the simulation's fork()/derive() discipline.
  plan.rng_seed = chain::hash_combine(chain::mix64(tx_seed ^ 0x7AFF1Cull),
                                      static_cast<std::uint64_t>(index));
  plan.region = config.regions > 1 ? index % config.regions : 0;
  return plan;
}

std::size_t zipf_pick(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) return cdf.size() - 1;
  return static_cast<std::size_t>(it - cdf.begin());
}

chain::AccountId population_sink(chain::AccountId sender) {
  return static_cast<chain::AccountId>(kPopulationSinkBase + sender);
}

}  // namespace stabl::core
