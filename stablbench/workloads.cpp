// The benchmark's three workloads. Each builds its inputs from the seed
// (set-up), runs an untraced unit of work (end-to-end metrics), and runs a
// separate traced replay on the timed chains (per-layer metrics).
#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "bench.hpp"
#include "chain/hash.hpp"
#include "core/campaign.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "core/sensitivity.hpp"
#include "sim/lifecycle.hpp"

namespace stablbench {

namespace {

/// Worker lanes of every fan-out the benchmark performs: the sizes fit a
/// shared 4-core box.
constexpr unsigned kJobs = 2;

/// Name of the benchmark-owned host-clock probe on the MetricsRegistry.
constexpr const char* kHostClock = "bench_host_clock_s";

core::ExperimentConfig resolve(const std::string& scenario_json) {
  return core::resolve_scenario(core::scenario_from_json(scenario_json))
      .config;
}

std::string experiment_digest(const core::ExperimentResult& result) {
  return digest_hex(experiment_text(result));
}

/// Aggregates the per-layer metrics of a traced replay, one simulation at
/// a time. Thread-safe: replays fan out over kJobs lanes.
class LayerAccumulator {
 public:
  /// Runs `config` twice back to back: plainly, and on its timed chain
  /// with a MetricsRegistry (carrying the host-clock probe) and a
  /// LifecycleRecorder attached. The traced run is folded into the
  /// per-layer totals; the plain run's host time into the untraced total
  /// the tracing overhead is measured against. Alternating `traced_first`
  /// between simulations cancels warm-up effects. Returns {plain, traced}.
  std::pair<core::ExperimentResult, core::ExperimentResult> replay(
      const core::ExperimentConfig& config, bool traced_first) {
    core::MetricsRegistry registry;
    registry.add_gauge(kHostClock, [] { return host_now_s(); });
    sim::LifecycleRecorder recorder;
    CellProbe probe;
    core::ExperimentConfig traced_config = config;
    traced_config.metrics = &registry;
    traced_config.lifecycle = &recorder;
    core::ExperimentResult plain;
    core::ExperimentResult traced;
    double plain_wall = 0.0;
    double traced_wall = 0.0;
    const auto run_plain = [&] {
      const double start = host_now_s();
      plain = core::run_experiment(config);
      plain_wall = host_now_s() - start;
    };
    const auto run_traced = [&] {
      const double start = host_now_s();
      traced = run_timed(traced_config, probe);
      traced_wall = host_now_s() - start;
    };
    if (traced_first) {
      run_traced();
      run_plain();
    } else {
      run_plain();
      run_traced();
    }
    add(traced, probe, traced_wall, registry, recorder);
    const std::lock_guard<std::mutex> lock(mutex_);
    untraced_wall_s_ += plain_wall;
    return {std::move(plain), std::move(traced)};
  }

  void add_audit(double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    audit_s_ += seconds;
  }

  /// Per-layer metrics over every replayed simulation. `extra` carries
  /// the workload-level values (campaign, analysis, chaos, overhead).
  [[nodiscard]] std::map<std::string, double> finish(
      const std::map<std::string, double>& extra) const {
    std::map<std::string, double> m;
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    m["chain.deliver_s"] = deliver_s_;
    m["chain.deliver_us_per_msg"] =
        ratio(deliver_s_ * 1e6, static_cast<double>(msgs_in_));
    m["chain.deliver_share"] = ratio(deliver_s_, wall_s_);
    m["chain.msgs_in"] = static_cast<double>(msgs_in_);
    m["chain.build_s"] = build_s_;
    m["chain.blocks"] = static_cast<double>(blocks_);
    m["chain.mempool_depth_peak"] = mempool_peak_;
    for (const auto& [key, value] : chain_metrics_) {
      if (value != 0.0) m["chain." + key] = value;
    }
    m["sim.events"] = static_cast<double>(events_);
    m["sim.events_per_host_s"] = ratio(static_cast<double>(events_), wall_s_);
    m["sim.pending_peak"] = pending_peak_;
    m["sim.other_s"] = wall_s_ - deliver_s_ - build_s_;
    std::vector<double> per_sim_s = host_per_sim_s_;
    const core::Ecdf host_ecdf(std::move(per_sim_s));
    m["sim.host_s_per_sim_s_p50"] = host_ecdf.quantile(0.5);
    m["sim.host_s_per_sim_s_max"] = host_ecdf.max();
    m["net.sent"] = static_cast<double>(net_.sent);
    m["net.delivered"] = static_cast<double>(net_.delivered);
    m["net.dropped"] = static_cast<double>(
        net_.dropped_partition + net_.dropped_loss + net_.dropped_dead);
    m["net.rst_sent"] = static_cast<double>(net_.rst_sent);
    m["net.msgs_per_commit"] = ratio(static_cast<double>(net_.delivered),
                                     static_cast<double>(committed_));
    m["client.submitted"] = static_cast<double>(submitted_);
    m["client.committed"] = static_cast<double>(committed_);
    m["client.commit_frac"] = ratio(static_cast<double>(committed_),
                                    static_cast<double>(submitted_));
    m["client.in_flight_peak"] = in_flight_peak_;
    m["client.resubmissions"] = static_cast<double>(resilience_.resubmissions);
    m["client.failovers"] = static_cast<double>(resilience_.failovers);
    m["client.timeouts"] = static_cast<double>(resilience_.timeouts);
    std::vector<double> latencies = latencies_;
    const core::Ecdf latency_ecdf(std::move(latencies));
    m["txn.latency_p50_s"] = latency_ecdf.quantile(0.5);
    m["txn.latency_p99_s"] = latency_ecdf.quantile(0.99);
    const auto& segments = sim::stage_segment_names();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      m[std::string("txn.") + segments[i] + "_mean_s"] =
          ratio(segment_s_[i], static_cast<double>(confirmed_));
    }
    m["oracle.audit_s"] = audit_s_;
    m["campaign.sims"] = static_cast<double>(sims_);
    // Workload-level values; 0 where the workload has no such layer.
    for (const char* key :
         {"campaign.busy_frac", "campaign.cell_wall_max_s", "analysis.score_s",
          "analysis.serialize_s", "chaos.trials", "chaos.violations",
          "chaos.expected_losses"}) {
      m[key] = 0.0;
    }
    for (const auto& [key, value] : extra) m[key] = value;
    m["bench.trace_overhead_frac"] = ratio(wall_s_, untraced_wall_s_) - 1.0;
    return m;
  }


 private:
  void add(const core::ExperimentResult& r, const CellProbe& probe,
           double wall, const core::MetricsRegistry& registry,
           const sim::LifecycleRecorder& recorder) {
    const auto peak = [&registry](const char* name) {
      double best = 0.0;
      for (const core::MetricSeries& series : registry.series()) {
        if (series.name != name) continue;
        for (const double v : series.samples) best = std::max(best, v);
      }
      return best;
    };
    std::vector<double> host_steps;
    for (const core::MetricSeries& series : registry.series()) {
      if (series.name != kHostClock) continue;
      for (std::size_t k = 1; k < series.samples.size(); ++k) {
        host_steps.push_back(series.samples[k] - series.samples[k - 1]);
      }
    }
    std::array<double, sim::kNumTxStages - 1> segments{};
    std::uint64_t confirmed = 0;
    for (const sim::TxLifecycle& record : recorder.records()) {
      if (!record.reached(sim::TxStage::kSubmitted) ||
          !record.reached(sim::TxStage::kConfirmed)) {
        continue;
      }
      const auto times = sim::stage_times(record);
      for (std::size_t i = 0; i < segments.size(); ++i) {
        segments[i] += sim::to_seconds(times[i + 1] - times[i]);
      }
      ++confirmed;
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    ++sims_;
    wall_s_ += wall;
    build_s_ += probe.build_s;
    deliver_s_ += probe.deliver_s;
    msgs_in_ += probe.msgs_in;
    blocks_ += r.blocks;
    events_ += r.events;
    submitted_ += r.submitted;
    committed_ += r.committed;
    net_.sent += r.net_stats.sent;
    net_.delivered += r.net_stats.delivered;
    net_.dropped_partition += r.net_stats.dropped_partition;
    net_.dropped_loss += r.net_stats.dropped_loss;
    net_.dropped_dead += r.net_stats.dropped_dead;
    net_.rst_sent += r.net_stats.rst_sent;
    resilience_ += r.resilience;
    for (const auto& [key, value] : r.chain_metrics) {
      chain_metrics_[key] += value;
    }
    latencies_.insert(latencies_.end(), r.latencies.begin(),
                      r.latencies.end());
    mempool_peak_ = std::max(mempool_peak_, peak("mempool_depth"));
    pending_peak_ = std::max(pending_peak_, peak("pending_events"));
    in_flight_peak_ = std::max(in_flight_peak_, peak("client_in_flight"));
    host_per_sim_s_.insert(host_per_sim_s_.end(), host_steps.begin(),
                           host_steps.end());
    for (std::size_t i = 0; i < segments.size(); ++i) {
      segment_s_[i] += segments[i];
    }
    confirmed_ += confirmed;
  }

  mutable std::mutex mutex_;
  std::size_t sims_ = 0;
  double wall_s_ = 0.0;
  double untraced_wall_s_ = 0.0;
  double build_s_ = 0.0;
  double deliver_s_ = 0.0;
  double audit_s_ = 0.0;
  std::uint64_t msgs_in_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t committed_ = 0;
  net::NetworkStats net_{};
  core::ResilienceStats resilience_{};
  std::map<std::string, double> chain_metrics_;
  std::vector<double> latencies_;
  std::vector<double> host_per_sim_s_;
  double mempool_peak_ = 0.0;
  double pending_peak_ = 0.0;
  double in_flight_peak_ = 0.0;
  std::array<double, sim::kNumTxStages - 1> segment_s_{};
  std::uint64_t confirmed_ = 0;
};

/// Times `body` in host and CPU seconds and records its peak RSS.
template <typename Body>
void timed(UnitResult& unit, Body&& body) {
  reset_peak_rss();
  const double wall0 = host_now_s();
  const double cpu0 = process_cpu_s();
  body();
  unit.cpu_s = process_cpu_s() - cpu0;
  unit.wall_s = host_now_s() - wall0;
  unit.peak_rss_mb = peak_rss_mb();
}

/// Runs `body`, recording any exception as the failure of every
/// simulation the unit attempted.
template <typename Body>
void guarded(UnitResult& unit, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    unit.failed = unit.sims;
    unit.errors.push_back(e.what());
  }
}

void mismatch(LayerResult& layers, const std::string& what) {
  ++layers.failed;
  layers.errors.push_back("traced replay differs from untraced run: " + what);
}

// ---------------------------------------------------------------------------
// repro_grid: the paper's 5 chains x {crash, transient, partition,
// secure-client} sensitivity campaign at paper geometry.
// ---------------------------------------------------------------------------

class ReproGrid final : public Workload {
 public:
  /// Simulated seconds per run; faults hit at 1/3 and clear at 2/3.
  static constexpr int kDurationS = 60;

  explicit ReproGrid(std::uint64_t seed) {
    config_.base = resolve("{\"duration_s\": " + std::to_string(kDurationS) +
                           ", \"seed\": " + std::to_string(seed) + "}");
    config_.jobs = kJobs;
  }

  [[nodiscard]] std::size_t unit_sims() const override {
    return 2 * config_.chains.size() * config_.faults.size();
  }

  UnitResult run_unit() override {
    UnitResult unit;
    unit.sims = unit_sims();
    guarded(unit, [&] {
      core::CampaignResult result;
      std::string json;
      std::string csv;
      timed(unit, [&] {
        result = core::run_campaign(config_);
        json = result.to_json();
        csv = result.to_csv();
      });
      digests(result, json, csv, unit);
      last_ = std::move(result);
    });
    return unit;
  }

  LayerResult run_traced() override {
    LayerResult layers;
    // (0) Untraced campaign: the outputs the replays must reproduce, the
    // campaign engine's occupancy, and the analysis layer's own cost.
    const UnitResult untraced = run_unit();
    layers.sims = untraced.sims;
    layers.failed = untraced.failed;
    layers.errors = untraced.errors;
    if (untraced.failed > 0) return layers;
    std::map<std::string, double> extra;
    double cell_wall_sum = 0.0;
    double cell_wall_max = 0.0;
    for (const auto& [key, walls] : last_.cell_wall_ms) {
      for (const double ms : walls) {
        cell_wall_sum += ms / 1e3;
        cell_wall_max = std::max(cell_wall_max, ms / 1e3);
      }
    }
    extra["campaign.busy_frac"] =
        cell_wall_sum / (config_.jobs * last_.total_wall_ms / 1e3);
    extra["campaign.cell_wall_max_s"] = cell_wall_max;
    double start = host_now_s();
    for (const auto& [key, run] : last_.runs) {
      const core::SensitivityScore score =
          core::sensitivity(run.baseline.latencies, run.altered.latencies,
                            run.altered.live_at_end);
      if (score.value != run.score.value ||
          score.infinite != run.score.infinite) {
        mismatch(layers, "sensitivity score of " +
                             core::to_string(key.first) + "/" +
                             core::to_string(key.second));
      }
    }
    extra["analysis.score_s"] = host_now_s() - start;
    start = host_now_s();
    const std::size_t serialized =
        last_.to_json().size() + last_.to_csv().size();
    extra["analysis.serialize_s"] = host_now_s() - start;
    if (serialized == 0) mismatch(layers, "empty campaign documents");

    // (1) The same campaign on the timed twins, through run_campaign: the
    // factory counts every cluster the campaign engine builds.
    core::CampaignConfig timed_config = config_;
    for (core::ChainKind& chain : timed_config.chains) {
      chain = timed_chain(chain);
    }
    ProbeCollector collector;
    const core::CampaignResult timed_result = [&] {
      const ProbeCollector::Scope scope(collector);
      return core::run_campaign(timed_config);
    }();
    extra["campaign.sims"] = static_cast<double>(collector.size());
    for (std::size_t c = 0; c < config_.chains.size(); ++c) {
      for (const core::FaultType fault : config_.faults) {
        const core::SensitivityRun* plain = last_.get(config_.chains[c], fault);
        const core::SensitivityRun* timed =
            timed_result.get(timed_config.chains[c], fault);
        if (timed == nullptr ||
            experiment_digest(plain->baseline) !=
                experiment_digest(timed->baseline) ||
            experiment_digest(plain->altered) !=
                experiment_digest(timed->altered)) {
          mismatch(layers, "timed campaign cell " +
                               core::to_string(config_.chains[c]) + "/" +
                               core::to_string(fault));
        }
      }
    }

    // (2) Replay every simulation with metrics and lifecycle attached.
    struct Sim {
      core::ExperimentConfig config;
      const core::ExperimentResult* expected;
      std::string name;
    };
    std::vector<Sim> sims;
    for (const auto& [key, run] : last_.runs) {
      core::ExperimentConfig cell = config_.base;
      cell.chain = key.first;
      cell.fault = key.second;
      if (cell.fault == core::FaultType::kSecureClient) {
        cell.client_fanout = 4;
        cell.vcpus = 8.0;
      }
      const std::string name =
          core::to_string(key.first) + "/" + core::to_string(key.second);
      sims.push_back({core::baseline_of(cell), &run.baseline,
                      name + "/baseline"});
      sims.push_back({cell, &run.altered, name + "/altered"});
    }
    LayerAccumulator acc;
    std::mutex mutex;
    core::ThreadPool pool(kJobs);
    pool.parallel_for(sims.size(), [&](std::size_t i) {
      const auto [plain, traced] = acc.replay(sims[i].config, i % 2 == 1);
      const std::string expected = experiment_digest(*sims[i].expected);
      if (experiment_digest(plain) != expected ||
          experiment_digest(traced) != expected) {
        const std::lock_guard<std::mutex> lock(mutex);
        mismatch(layers, sims[i].name);
      }
    });
    layers.metrics = acc.finish(extra);
    return layers;
  }

 private:
  void digests(const core::CampaignResult& result, const std::string& json,
               const std::string& csv, UnitResult& unit) const {
    unit.digests.push_back({"campaign.json", digest_hex(json), 0});
    unit.digests.push_back({"campaign.csv", digest_hex(csv), 0});
    for (const auto& [key, run] : result.runs) {
      const std::string name =
          core::to_string(key.first) + "/" + core::to_string(key.second);
      unit.digests.push_back(
          {name + "/baseline", experiment_digest(run.baseline), 1});
      unit.digests.push_back(
          {name + "/altered", experiment_digest(run.altered), 1});
    }
  }

  core::CampaignConfig config_;
  core::CampaignResult last_;
};

// ---------------------------------------------------------------------------
// large_cluster: one fault-free cell each of four chains at n = 250.
// ---------------------------------------------------------------------------

class LargeCluster final : public Workload {
 public:
  static constexpr std::size_t kNodes = 250;
  static constexpr int kDurationS = 3;

  explicit LargeCluster(std::uint64_t seed) {
    for (const core::ChainKind chain :
         {core::ChainKind::kRedbelly, core::ChainKind::kAptos,
          core::ChainKind::kSolana, core::ChainKind::kAvalanche}) {
      core::ExperimentConfig config;
      config.chain = chain;
      config.n = kNodes;
      config.seed = seed;
      config.duration = sim::sec(kDurationS);
      configs_.push_back(config);
    }
  }

  [[nodiscard]] std::size_t unit_sims() const override {
    return configs_.size();
  }

  UnitResult run_unit() override {
    UnitResult unit;
    unit.sims = unit_sims();
    walls_.assign(configs_.size(), 0.0);
    guarded(unit, [&] {
      std::vector<core::ExperimentResult> results;
      timed(unit, [&] {
        for (std::size_t i = 0; i < configs_.size(); ++i) {
          const double start = host_now_s();
          results.push_back(core::run_experiment(configs_[i]));
          walls_[i] = host_now_s() - start;
        }
      });
      for (std::size_t i = 0; i < configs_.size(); ++i) {
        unit.digests.push_back({core::to_string(configs_[i].chain),
                                experiment_digest(results[i]), 1});
      }
      last_ = std::move(results);
    });
    return unit;
  }

  LayerResult run_traced() override {
    LayerResult layers;
    const UnitResult untraced = run_unit();
    layers.sims = untraced.sims;
    layers.failed = untraced.failed;
    layers.errors = untraced.errors;
    if (untraced.failed > 0) return layers;
    LayerAccumulator acc;
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const auto [plain, traced] = acc.replay(configs_[i], i % 2 == 1);
      const std::string expected = experiment_digest(last_[i]);
      if (experiment_digest(plain) != expected ||
          experiment_digest(traced) != expected) {
        mismatch(layers, core::to_string(configs_[i].chain));
      }
    }
    double wall_sum = 0.0;
    for (const double wall : walls_) wall_sum += wall;
    layers.metrics = acc.finish({
        {"campaign.busy_frac", wall_sum / untraced.wall_s},
        {"campaign.cell_wall_max_s",
         *std::max_element(walls_.begin(), walls_.end())},
    });
    return layers;
  }

 private:
  std::vector<core::ExperimentConfig> configs_;
  std::vector<core::ExperimentResult> last_;
  std::vector<double> walls_;
};

// ---------------------------------------------------------------------------
// chaos_traffic: adversarial chaos campaigns under production traffic.
// ---------------------------------------------------------------------------

class ChaosTraffic final : public Workload {
 public:
  /// Campaigns per unit, each with its own root seed drawn from the
  /// workload seed: one campaign's cost depends on which schedules it
  /// draws, so a unit averages over several.
  static constexpr std::size_t kCampaigns = 16;
  static constexpr std::size_t kTrialsPerChain = 3;
  static constexpr int kDurationS = 30;

  explicit ChaosTraffic(std::uint64_t seed) {
    const core::ExperimentConfig base =
        resolve("{\"duration_s\": " + std::to_string(kDurationS) +
                ", \"resilient\": true, \"traffic\": {\"preset\": "
                "\"dex_sustained\"}}");
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      core::ChaosCampaignConfig config;
      config.trials_per_chain = kTrialsPerChain;
      config.seed = chain::mix64(seed + 0x9E3779B97F4A7C15ull * (i + 1));
      config.base = base;
      config.gen = core::adversarial_gen_for(base.duration);
      config.jobs = kJobs;
      configs_.push_back(config);
    }
  }

  [[nodiscard]] std::size_t unit_sims() const override {
    return kCampaigns * kTrialsPerChain * configs_.front().chains.size();
  }

  UnitResult run_unit() override {
    UnitResult unit;
    unit.sims = unit_sims();
    walls_.assign(kCampaigns, 0.0);
    guarded(unit, [&] {
      std::vector<core::ChaosCampaignResult> results;
      std::vector<std::string> documents;
      timed(unit, [&] {
        for (std::size_t i = 0; i < kCampaigns; ++i) {
          const double start = host_now_s();
          results.push_back(core::run_chaos_campaign(configs_[i]));
          documents.push_back(results.back().to_json());
          walls_[i] = host_now_s() - start;
        }
      });
      for (std::size_t i = 0; i < kCampaigns; ++i) {
        const std::string prefix = "campaign" + std::to_string(i);
        unit.digests.push_back({prefix + ".json", digest_hex(documents[i]), 0});
        for (core::ChaosTrial& trial : results[i].trials) {
          unit.digests.push_back(
              {prefix + "/" + core::to_string(trial.chain) + "/" +
                   std::to_string(trial.trial),
               digest_hex(trial_text(trial) + trial.repro_trace), 1});
          // The timelines are digested; keeping megabytes of them for the
          // whole run would only inflate the peak RSS.
          trial.repro_trace.clear();
          trial.repro_trace.shrink_to_fit();
        }
      }
      last_ = std::move(results);
    });
    return unit;
  }

  LayerResult run_traced() override {
    LayerResult layers;
    const UnitResult untraced = run_unit();
    layers.sims = untraced.sims;
    layers.failed = untraced.failed;
    layers.errors = untraced.errors;
    if (untraced.failed > 0) return layers;

    std::map<std::string, double> extra;
    double trial_wall_sum = 0.0;
    double trial_wall_max = 0.0;
    double campaign_wall_sum = 0.0;
    double violations = 0.0;
    double expected_losses = 0.0;
    struct Trial {
      const core::ChaosCampaignConfig* campaign;
      const core::ChaosTrial* trial;
      std::string expected;  // trial_text of the campaign's own run
    };
    std::vector<Trial> trials;
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      campaign_wall_sum += walls_[i];
      violations += static_cast<double>(last_[i].violations());
      expected_losses += static_cast<double>(last_[i].expected_losses());
      for (const core::ChaosTrial& trial : last_[i].trials) {
        trial_wall_sum += trial.wall_ms / 1e3;
        trial_wall_max = std::max(trial_wall_max, trial.wall_ms / 1e3);
        trials.push_back({&configs_[i], &trial, trial_text(trial)});
      }
    }
    double start = host_now_s();
    for (const core::ChaosCampaignResult& result : last_) {
      if (result.to_json().empty()) mismatch(layers, "empty campaign JSON");
    }
    extra["analysis.serialize_s"] = host_now_s() - start;
    extra["campaign.busy_frac"] = trial_wall_sum / (kJobs * campaign_wall_sum);
    extra["campaign.cell_wall_max_s"] = trial_wall_max;
    // Every trial runs once, plus a traced re-run of each violating one.
    extra["campaign.sims"] = static_cast<double>(trials.size()) + violations;
    extra["chaos.trials"] = static_cast<double>(trials.size());
    extra["chaos.violations"] = violations;
    extra["chaos.expected_losses"] = expected_losses;

    // Replays start from each trial's recorded seed and schedule: the
    // campaign derives both from the chain id, which the timed twin
    // changes. Both replays must reproduce the campaign's verdict, and
    // the traced one the plain one's events and latencies.
    const auto audit = [](const Trial& t, const core::ExperimentConfig& cell,
                          const core::ExperimentResult& result) {
      core::ChaosTrial replayed = *t.trial;
      replayed.report = core::check_invariants(core::make_oracle_context(cell),
                                               result, t.campaign->oracle);
      replayed.submitted = result.submitted;
      replayed.committed = result.committed;
      replayed.live_at_end = result.live_at_end;
      return trial_text(replayed);
    };
    LayerAccumulator acc;
    std::mutex mutex;
    core::ThreadPool pool(kJobs);
    pool.parallel_for(trials.size(), [&](std::size_t i) {
      const Trial& t = trials[i];
      const core::ExperimentConfig cell = core::chaos_trial_config(
          *t.campaign, t.trial->chain, t.trial->experiment_seed,
          t.trial->schedule);
      const auto [plain, traced] = acc.replay(cell, i % 2 == 1);
      const double begin = host_now_s();
      const std::string verdict = audit(t, cell, traced);
      acc.add_audit(host_now_s() - begin);
      if (verdict != t.expected || audit(t, cell, plain) != t.expected ||
          experiment_digest(plain) != experiment_digest(traced)) {
        const std::lock_guard<std::mutex> lock(mutex);
        mismatch(layers, "replay of " + core::to_string(t.trial->chain) +
                             " trial " + std::to_string(t.trial->trial));
      }
    });
    layers.metrics = acc.finish(extra);
    return layers;
  }

 private:
  std::vector<core::ChaosCampaignConfig> configs_;
  std::vector<core::ChaosCampaignResult> last_;
  std::vector<double> walls_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"repro_grid", "large_cluster",
                                              "chaos_traffic"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "repro_grid") return std::make_unique<ReproGrid>(seed);
  if (name == "large_cluster") return std::make_unique<LargeCluster>(seed);
  if (name == "chaos_traffic") return std::make_unique<ChaosTraffic>(seed);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace stablbench
