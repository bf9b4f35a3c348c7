// Extension bench: what the secure client is actually *for*. One
// blockchain node's RPC endpoint turns Byzantine (it instantly confirms
// transactions it silently drops). A client trusting that single node is
// fully deceived; the paper's wait-for-all secure client and the
// credence.js-style matching client both survive — at different latency
// costs.
#include "bench_common.hpp"

#include <cstdio>
#include <map>
#include <memory>

#include "chain/hash.hpp"
#include "chains/redbelly/redbelly.hpp"
#include "core/client.hpp"
#include "core/report.hpp"
#include "core/sensitivity.hpp"

namespace {

using namespace stabl;

struct Outcome {
  std::uint64_t accepted = 0;
  std::uint64_t deceived = 0;
  double mean_latency = 0.0;
};

/// mode: 0 = naive single-node client on the liar; 1 = wait-for-all on 4
/// nodes incl. the liar; 2 = 3-matching verified client on the same 4.
Outcome& run(int mode) {
  static std::map<int, Outcome> cache;
  const auto it = cache.find(mode);
  if (it != cache.end()) return it->second;

  sim::Simulation simulation(42);
  net::Network network(simulation, net::LatencyConfig{});
  chain::NodeConfig node_config;
  node_config.n = 10;
  node_config.network_seed = chain::mix64(42);
  auto nodes = redbelly::make_cluster(simulation, network, node_config);
  nodes[0]->set_rpc_byzantine(true);
  for (auto& node : nodes) node->start();

  core::ClientConfig config;
  config.id = 10;
  config.account = 0;
  config.recipient = 999;
  config.tps = 40.0;
  config.stop_at = sim::sec(bench::bench_duration_s());
  config.tx_seed = chain::mix64(42 ^ 0xC11E57ull);
  switch (mode) {
    case 0:
      config.endpoints = {0};
      break;
    case 1:
      config.endpoints = {0, 1, 2, 3};
      break;
    default:
      config.endpoints = {0, 1, 2, 3};
      config.required_matching = 3;
      break;
  }
  core::ClientMachine client(simulation, network, config);
  client.start();
  simulation.run_until(sim::sec(bench::bench_duration_s()));

  Outcome outcome;
  outcome.accepted = client.committed();
  for (const auto& [id, hash] : client.accepted_hashes()) {
    if (!nodes[1]->ledger().is_committed(id)) ++outcome.deceived;
  }
  outcome.mean_latency = core::Ecdf(client.latencies()).mean();
  return cache.emplace(mode, outcome).first->second;
}

void naive_client(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(0).accepted);
}
void wait_for_all_client(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(1).accepted);
}
void matching_client(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(2).accepted);
}
BENCHMARK(naive_client)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(wait_for_all_client)->Iterations(1)->Unit(benchmark::kSecond);
BENCHMARK(matching_client)->Iterations(1)->Unit(benchmark::kSecond);

void print_figure() {
  std::printf("\n=== Extension: client strategies against a Byzantine RPC"
              " node (Redbelly substrate) ===\n");
  core::Table table({"client", "accepted", "deceived", "mean latency"});
  const char* names[] = {"naive (1 node, the liar)",
                         "secure wait-for-all (4 nodes)",
                         "verified 3-matching (4 nodes)"};
  for (int mode = 0; mode < 3; ++mode) {
    const Outcome& outcome = run(mode);
    table.add_row({names[mode], std::to_string(outcome.accepted),
                   std::to_string(outcome.deceived),
                   core::Table::num(outcome.mean_latency, 3) + "s"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(the naive client accepts fabricated confirmations; both"
              " redundant clients accept only real commits — §7's threat"
              " model made concrete)\n");
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
