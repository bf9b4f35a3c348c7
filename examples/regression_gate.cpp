// regression_gate — the CI use case the paper pitches STABL for: run the
// fault-tolerance matrix on every build and fail the pipeline when a
// chain's sensitivity regresses past the gate, or when a chain that used
// to survive a condition stops doing so. Multi-seed sweeps gate on the
// WORST seed, and the matrix fans out across worker threads.
//
// Usage: regression_gate [duration_seconds] [seed] [num_seeds] [jobs]
// Exit code 0 = gate passed, 1 = violations found, 2 = usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cli_common.hpp"
#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [duration_seconds] [seed] [num_seeds] [jobs] [--help]\n"
      "\n"
      "CI regression gate: run the STABL fault-tolerance matrix (every\n"
      "paper chain x crash/transient/partition/secure-client) and fail\n"
      "the pipeline when a chain's sensitivity regresses past the\n"
      "paper-shaped bounds, or when a chain that used to survive a\n"
      "condition stops doing so. Multi-seed sweeps gate on the WORST\n"
      "seed. Exit 0 = gate passed, 1 = violations, 2 = usage error.\n"
      "\n"
      "arguments:\n"
      "  duration_seconds  simulated seconds per run, >= 30 (default 400;\n"
      "                    shorter runs apply coarse sanity bounds only)\n"
      "  seed              first RNG seed of the sweep, >= 0 (default 42)\n"
      "  num_seeds         consecutive seeds per cell, >= 1 (default 1)\n"
      "  jobs              worker threads, 1..1024 (default: hardware\n"
      "                    concurrency); results are identical for any\n"
      "                    value\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stabl;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (argv[i][0] == '-' && std::atol(argv[i]) == 0) {
      cli::fail_unknown_flag(argv[0], argv[i]);
    }
  }
  if (argc > 5) {
    cli::fail(argv[0],
              "expected at most [duration_seconds] [seed] [num_seeds] [jobs]",
              cli::help_hint(argv[0]));
  }
  const auto positional = [&](int index, long fallback, const char* name) {
    return argc > index ? cli::integer_or_exit(argv[0], name, argv[index])
                        : fallback;
  };
  const long duration_s =
      argc > 1 ? cli::duration_or_exit(argv[0], argv[1]) : 400;
  const long seed_arg = positional(2, 42, "seed");
  const long num_seeds = positional(3, 1, "num_seeds");
  const long jobs =
      positional(4, std::min(core::default_jobs(), core::kMaxJobs), "jobs");
  if (seed_arg < 0) {
    cli::fail(argv[0], "seed must be >= 0", cli::help_hint(argv[0]));
  }
  if (num_seeds < 1) {
    cli::fail(argv[0], "num_seeds must be >= 1", cli::help_hint(argv[0]));
  }
  if (jobs < 1 || jobs > static_cast<long>(core::kMaxJobs)) {
    cli::fail(argv[0],
              "jobs must be in [1, " + std::to_string(core::kMaxJobs) + "]",
              cli::help_hint(argv[0]));
  }
  const auto seed = static_cast<unsigned long>(seed_arg);

  core::CampaignConfig config;
  config.base.seed = seed;
  core::apply_run_window(config.base, duration_s);
  config.num_seeds = static_cast<std::size_t>(num_seeds);
  config.jobs = static_cast<unsigned>(jobs);
  config.on_cell_done = [](core::ChainKind chain, core::FaultType fault,
                           std::uint64_t cell_seed,
                           const core::SensitivityRun& run) {
    std::printf("  %-9s %-13s seed %-6llu -> %s\n",
                core::to_string(chain).c_str(),
                core::to_string(fault).c_str(),
                static_cast<unsigned long long>(cell_seed),
                core::format_score(run.score).c_str());
  };

  std::printf(
      "running the STABL matrix (%lds per run, seeds %lu..%lu, %ld jobs)"
      "...\n",
      duration_s, seed, seed + static_cast<unsigned long>(num_seeds) - 1,
      jobs);
  const core::CampaignResult result = core::run_campaign(config);

  // The gate encodes the paper's measured shape with headroom. The shape
  // expectations (which chains lose liveness, the timeout arithmetic) are
  // tied to the paper's 400 s / 133 s / 266 s geometry — e.g. Solana's EAH
  // panic requires the fault to land inside a warm-up epoch. For shorter
  // smoke runs the gate only checks coarse sanity.
  core::CampaignGate gate;
  if (duration_s >= 400) {
    gate.max_score = {
        {core::FaultType::kCrash, 40.0},
        {core::FaultType::kTransient, 400.0},
        {core::FaultType::kPartition, 600.0},
        {core::FaultType::kSecureClient, 15.0},
    };
    gate.expected_infinite = {
        {core::ChainKind::kAvalanche, core::FaultType::kTransient},
        {core::ChainKind::kAvalanche, core::FaultType::kPartition},
        {core::ChainKind::kSolana, core::FaultType::kTransient},
        {core::ChainKind::kSolana, core::FaultType::kPartition},
    };
  } else {
    std::printf("(short run: paper-shape expectations need >=400s;"
                " applying coarse sanity bounds only)\n");
    const double scale = static_cast<double>(duration_s) / 400.0;
    gate.max_score = {
        {core::FaultType::kCrash, 100.0 * scale},
        {core::FaultType::kSecureClient, 60.0 * scale},
    };
    gate.flag_unexpected_liveness_loss = false;
  }

  const auto violations = core::check_gate(result, gate);
  std::printf("\n%s\n", result.radar.to_table().c_str());
  if (num_seeds > 1) {
    std::printf("seed sweep (mean+-stddev [min..max], inf = liveness "
                "losses):\n%s\n",
                result.radar.sweep_table().c_str());
  }
  if (violations.empty()) {
    std::printf("gate PASSED: all %zu cells within bounds (worst of %ld "
                "seed%s per cell)\n",
                result.runs.size(), num_seeds, num_seeds == 1 ? "" : "s");
    return 0;
  }
  std::printf("gate FAILED (%zu violations):\n", violations.size());
  for (const auto& violation : violations) {
    std::printf("  - %s\n", violation.c_str());
  }
  return 1;
}
