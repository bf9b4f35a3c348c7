// Traced-run seam (a): tier-2 timed chains and timing-proxy endpoints,
// plus the benchmark's clocks and output digests.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <string_view>

#include "bench.hpp"
#include "chain/registry.hpp"
#include "net/network.hpp"

namespace stablbench {

namespace {

/// The paper chains, by name: naming them through core::to_string would
/// query (and so finalise) the registry before the derivations are queued.
constexpr std::string_view kPaperChainNames[] = {"algorand", "aptos",
                                                 "avalanche", "redbelly",
                                                 "solana"};
constexpr std::string_view kTimedPrefix = "timed_";

/// The probe of the simulation running on this thread; set by run_timed
/// for the duration of one run_experiment call.
thread_local CellProbe* current_probe = nullptr;

/// The collector adopting runs that have no probe of their own.
std::atomic<ProbeCollector*> active_collector{nullptr};

/// Sits between the network and one node: forwards every delivery and
/// charges the host time spent inside the node's handler to the probe.
class TimingEndpoint final : public net::Endpoint {
 public:
  TimingEndpoint(chain::BlockchainNode& node, CellProbe& probe)
      : node_(node), probe_(probe) {}

  void deliver(const net::Envelope& envelope) override {
    const auto start = std::chrono::steady_clock::now();
    node_.deliver(envelope);
    probe_.deliver_s += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ++probe_.msgs_in;
  }
  [[nodiscard]] bool endpoint_alive() const override {
    return node_.endpoint_alive();
  }

 private:
  chain::BlockchainNode& node_;
  CellProbe& probe_;
};

chain::ChainTraits timed_traits(const chain::ChainTraits& base) {
  chain::ChainTraits traits = base;
  traits.name = std::string(kTimedPrefix) + base.name;
  traits.description = "benchmark timing twin of " + base.name;
  traits.tier = 2;
  traits.make_cluster = [make = base.make_cluster](
                            sim::Simulation& simulation,
                            net::Network& network,
                            const chain::NodeConfig& node_config,
                            const chain::ChainParams& params) {
    CellProbe* probe = current_probe;
    if (probe == nullptr) {
      if (ProbeCollector* collector = active_collector.load()) {
        probe = &collector->add();
      }
    }
    const double start = host_now_s();
    auto nodes = make(simulation, network, node_config, params);
    if (probe == nullptr) return nodes;
    probe->build_s += host_now_s() - start;
    for (auto& node : nodes) {
      auto proxy = std::make_unique<TimingEndpoint>(*node, *probe);
      network.attach(node->node_id(), proxy.get());
      probe->proxies.push_back(std::move(proxy));
    }
    return nodes;
  };
  return traits;
}

}  // namespace

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); ru_maxrss is the fallback.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
}

std::string digest_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

std::string experiment_text(const core::ExperimentResult& r) {
  std::string out;
  const auto num = [&out](const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", key, value);
    out += buf;
  };
  num("submitted", static_cast<double>(r.submitted));
  num("committed", static_cast<double>(r.committed));
  num("live", r.live_at_end ? 1.0 : 0.0);
  num("recovery_s", r.recovery_seconds);
  num("mean_latency_s", r.mean_latency_s);
  num("p50_latency_s", r.p50_latency_s);
  num("p99_latency_s", r.p99_latency_s);
  num("blocks", static_cast<double>(r.blocks));
  num("events", static_cast<double>(r.events));
  num("in_flight_at_end", static_cast<double>(r.in_flight_at_end));
  const net::NetworkStats& n = r.net_stats;
  num("net.sent", static_cast<double>(n.sent));
  num("net.delivered", static_cast<double>(n.delivered));
  num("net.dropped_partition", static_cast<double>(n.dropped_partition));
  num("net.dropped_loss", static_cast<double>(n.dropped_loss));
  num("net.dropped_dead", static_cast<double>(n.dropped_dead));
  num("net.throttled", static_cast<double>(n.throttled));
  num("net.rst_sent", static_cast<double>(n.rst_sent));
  const core::ResilienceStats& s = r.resilience;
  num("res.timeouts", static_cast<double>(s.timeouts));
  num("res.resets", static_cast<double>(s.resets));
  num("res.resubmissions", static_cast<double>(s.resubmissions));
  num("res.failovers", static_cast<double>(s.failovers));
  num("res.circuit_opens", static_cast<double>(s.circuit_opens));
  num("res.recovered", static_cast<double>(s.recovered));
  num("res.exhausted", static_cast<double>(s.exhausted));
  num("res.duplicate_commits", static_cast<double>(s.duplicate_commits));
  num("res.hedges_armed", static_cast<double>(s.hedges_armed));
  num("res.hedges_won", static_cast<double>(s.hedges_won));
  num("res.hedges_cancelled", static_cast<double>(s.hedges_cancelled));
  for (const auto& [key, value] : r.chain_metrics) {
    num(("chain." + key).c_str(), value);
  }
  out += "latencies:";
  for (const double l : r.latencies) num("", l);
  out += "throughput:";
  for (const double t : r.throughput) num("", t);
  out += "replicas:";
  for (const core::ReplicaSnapshot& replica : r.replicas) {
    num("ledger", static_cast<double>(replica.ledger_hash));
  }
  num("submitted_ids", static_cast<double>(r.submitted_ids.size()));
  return out;
}

std::string trial_text(const core::ChaosTrial& trial) {
  std::string out = core::to_string(trial.chain) + "/" +
                    std::to_string(trial.trial) + "/" +
                    std::to_string(trial.experiment_seed) + ";";
  out += core::schedule_to_json(trial.schedule);
  out += core::to_string(trial.report.verdict) + ";";
  for (const core::OracleFinding& finding : trial.report.findings) {
    out += finding.oracle + "|" + core::to_string(finding.verdict) + "|" +
           finding.detail + ";";
  }
  out += std::to_string(trial.submitted) + ";" +
         std::to_string(trial.committed) + ";" +
         (trial.live_at_end ? "live" : "stalled");
  return out;
}

ProbeCollector::Scope::Scope(ProbeCollector& collector) {
  active_collector.store(&collector);
}

ProbeCollector::Scope::~Scope() { active_collector.store(nullptr); }

CellProbe& ProbeCollector::add() {
  const std::lock_guard<std::mutex> lock(mutex_);
  probes_.push_back(std::make_unique<CellProbe>());
  return *probes_.back();
}

std::size_t ProbeCollector::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return probes_.size();
}

void register_timed_chains() {
  static const bool registered = [] {
    chain::Registry& registry = chain::Registry::global();
    for (const std::string_view name : kPaperChainNames) {
      registry.derive(std::string(name), timed_traits);
    }
    return true;
  }();
  (void)registered;
}

core::ChainKind timed_chain(core::ChainKind chain) {
  return core::chain_kind(core::chain_registry().id_of(
      std::string(kTimedPrefix) + core::to_string(chain)));
}

core::ExperimentResult run_timed(const core::ExperimentConfig& config,
                                 CellProbe& probe) {
  core::ExperimentConfig timed = config;
  timed.chain = timed_chain(config.chain);
  current_probe = &probe;
  struct Reset {
    ~Reset() { current_probe = nullptr; }
  } reset;
  return core::run_experiment(timed);
}

}  // namespace stablbench
