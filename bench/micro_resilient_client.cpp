// Micro-benchmark: naive vs. resilient clients when the faults hit the
// client-facing side of the cluster. The paper's harness only ever faults
// nodes that take no client traffic; this sweep targets the entry nodes,
// which is exactly where commit timeouts, failover and circuit breakers
// matter. Scenarios: a crash of one entry node, packet loss on two entry
// nodes, and the composed fault-engine-v2 case (crash with loss layered on
// top — two concurrently active plans in one FaultSchedule).
#include "bench_common.hpp"

#include <cstdio>
#include <vector>

namespace {

using namespace stabl;

struct Scenario {
  const char* name;
  core::ExperimentConfig config;
};

std::vector<Scenario> scenarios() {
  auto base = [](core::FaultType fault) {
    core::ExperimentConfig config =
        bench::paper_config(core::ChainKind::kRedbelly, fault);
    config.seed = 7;
    return config;
  };

  Scenario crash{"crash entry node", base(core::FaultType::kCrash)};
  crash.config.fault_targets = {0};

  Scenario loss{"40% loss, 2 entry nodes", base(core::FaultType::kLoss)};
  loss.config.fault_targets = {0, 1};
  loss.config.fault_params.loss_probability = 0.4;

  // Composed: the crash plus packet loss on the next entry node over,
  // overlapping for the middle third of the run.
  Scenario composed{"crash + loss composed", base(core::FaultType::kCrash)};
  composed.config.fault_targets = {0};
  core::FaultPlan extra;
  extra.type = core::FaultType::kLoss;
  extra.targets = {1};
  extra.params.loss_probability = 0.4;
  extra.inject_at = composed.config.inject_at;
  extra.recover_at = composed.config.recover_at;
  composed.config.extra_faults.add(extra);

  return {crash, loss, composed};
}

core::ExperimentResult& result(std::size_t scenario, bool resilient) {
  static std::map<std::pair<std::size_t, bool>, core::ExperimentResult>
      cache;
  const auto key = std::make_pair(scenario, resilient);
  auto it = cache.find(key);
  if (it == cache.end()) {
    core::ExperimentConfig config = scenarios()[scenario].config;
    config.resilience.enabled = resilient;
    it = cache.emplace(key, core::run_experiment(config)).first;
  }
  return it->second;
}

void sweep(benchmark::State& state) {
  const auto scenario = static_cast<std::size_t>(state.range(0));
  const bool resilient = state.range(1) != 0;
  for (auto _ : state) {
    const core::ExperimentResult& r = result(scenario, resilient);
    benchmark::DoNotOptimize(r.committed);
    state.counters["committed"] = static_cast<double>(r.committed);
    state.counters["lost"] =
        static_cast<double>(r.submitted - r.committed);
    state.counters["resubmissions"] =
        static_cast<double>(r.resilience.resubmissions);
  }
}
BENCHMARK(sweep)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

void print_figure() {
  std::printf("\n=== Naive vs. resilient clients under entry-node faults"
              " ===\n");
  core::Table table({"scenario", "client", "committed", "lost",
                     "resubmit", "failover", "recovered", "mean lat"});
  const auto all = scenarios();
  for (std::size_t s = 0; s < all.size(); ++s) {
    for (const bool resilient : {false, true}) {
      const core::ExperimentResult& r = result(s, resilient);
      table.add_row({all[s].name, resilient ? "resilient" : "naive",
                     std::to_string(r.committed),
                     std::to_string(r.submitted - r.committed),
                     std::to_string(r.resilience.resubmissions),
                     std::to_string(r.resilience.failovers),
                     std::to_string(r.resilience.recovered),
                     core::Table::num(r.mean_latency_s, 3) + "s"});
    }
  }
  std::printf("%s", table.to_string().c_str());
}

}  // namespace

STABL_BENCH_MAIN(print_figure)
