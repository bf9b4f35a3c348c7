// micro_campaign_scaling — throughput of the parallel campaign engine.
//
// Runs the full 5-chain x 4-fault matrix (20 cells, one seed each) through
// run_campaign at 1, 2, 4 and 8 worker threads and reports cells/sec per
// jobs setting, the speedup over serial, and a determinism check: every
// parallel run's CSV must be byte-identical to the serial run's.
//
// STABL_BENCH_DURATION (seconds, >=30) shortens the per-cell simulation
// for smoke runs; the default is the paper's 400 s geometry.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"

namespace {

using namespace stabl;

const std::vector<unsigned> kJobSettings = {1, 2, 4, 8};

core::CampaignConfig matrix_config(unsigned jobs) {
  core::CampaignConfig config;
  core::apply_run_window(config.base, bench::bench_duration_s());
  config.jobs = jobs;
  return config;
}

struct ScalingSample {
  double seconds = 0.0;
  std::string csv;
};

/// Per-jobs cache: the benchmark pass times each setting once; the print
/// step reuses the wall times and CSVs.
std::map<unsigned, ScalingSample>& samples() {
  static std::map<unsigned, ScalingSample> cache;
  return cache;
}

const ScalingSample& run_at(unsigned jobs) {
  auto it = samples().find(jobs);
  if (it == samples().end()) {
    const auto start = std::chrono::steady_clock::now();
    const core::CampaignResult result = core::run_campaign(matrix_config(jobs));
    const auto stop = std::chrono::steady_clock::now();
    ScalingSample sample;
    sample.seconds = std::chrono::duration<double>(stop - start).count();
    sample.csv = result.to_csv();
    it = samples().emplace(jobs, std::move(sample)).first;
  }
  return it->second;
}

void campaign_matrix(benchmark::State& state) {
  const unsigned jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const ScalingSample& sample = run_at(jobs);
    benchmark::DoNotOptimize(sample.csv.data());
    state.counters["cells_per_s"] = 20.0 / sample.seconds;
  }
}
BENCHMARK(campaign_matrix)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void print_scaling() {
  for (const unsigned jobs : kJobSettings) run_at(jobs);
  const ScalingSample& serial = run_at(1);
  std::printf("\ncampaign scaling: 20-cell matrix, %lds per cell\n",
              bench::bench_duration_s());
  core::Table table({"jobs", "wall s", "cells/s", "speedup", "csv==serial"});
  for (const unsigned jobs : kJobSettings) {
    const ScalingSample& sample = run_at(jobs);
    table.add_row({std::to_string(jobs),
                   core::Table::num(sample.seconds, 2),
                   core::Table::num(20.0 / sample.seconds, 2),
                   core::Table::num(serial.seconds / sample.seconds, 2),
                   sample.csv == serial.csv ? "yes" : "NO"});
  }
  std::printf("%s", table.to_string().c_str());
  for (const unsigned jobs : kJobSettings) {
    if (run_at(jobs).csv != serial.csv) {
      std::printf("DETERMINISM VIOLATION: jobs=%u CSV differs from serial\n",
                  jobs);
    }
  }
}

}  // namespace

STABL_BENCH_MAIN(print_scaling)
