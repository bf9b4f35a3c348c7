// Full STABL sensitivity campaign: for each of the five chains, run the
// four altered environments of the paper (f=t crashes, f=t+1 transient
// failures, f=t+1 partition, secure client) against a fault-free baseline
// and print the sensitivity scores plus the Fig. 7 radar table.
//
// Usage: sensitivity_report [duration_seconds] [seed]
//   duration_seconds: total experiment length (default 400, the paper's).
//     The fault is injected at 1/3 and cleared at 2/3 of the run.
// The 20 cells run through core::run_campaign on every hardware thread;
// the report is the same for any number of threads.
#include <cstdio>
#include <cstdlib>

#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  using namespace stabl;
  const long duration_s = argc > 1 ? std::atol(argv[1]) : 400;
  const unsigned long seed = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 42;

  core::CampaignConfig campaign;
  campaign.base.seed = seed;
  core::apply_run_window(campaign.base, duration_s);
  campaign.jobs = core::default_jobs();
  const core::CampaignResult result = core::run_campaign(campaign);

  for (const core::ChainKind chain : campaign.chains) {
    std::printf("=== %s (t=%zu) ===\n", core::to_string(chain).c_str(),
                core::fault_tolerance(chain, 10));
    for (const core::FaultType fault : campaign.faults) {
      const core::SensitivityRun& run = *result.get(chain, fault);
      std::printf(
          "  %-13s score=%8s  committed %6llu/%6llu  mean %6.2fs -> %6.2fs"
          "  recovery %5.1fs  live=%s\n",
          core::to_string(fault).c_str(),
          core::format_score(run.score).c_str(),
          static_cast<unsigned long long>(run.altered.committed),
          static_cast<unsigned long long>(run.altered.submitted),
          run.baseline.mean_latency_s, run.altered.mean_latency_s,
          run.altered.recovery_seconds,
          run.altered.live_at_end ? "yes" : "NO");
    }
  }

  std::printf("\n=== Fig. 7 radar: sensitivity of the tested blockchains ===\n");
  std::printf("%s", result.radar.to_table().c_str());
  std::printf("(*) = the altered environment improved latency (striped bar)\n");
  return 0;
}
