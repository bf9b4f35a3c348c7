#include "core/serialize.hpp"

#include <cmath>
#include <sstream>

#include "core/report.hpp"

namespace stabl::core {
namespace {

std::string score_field(const SensitivityScore& score) {
  if (score.invalid_baseline) return "invalid";
  if (score.infinite) return "inf";
  return Table::num(score.value, 4);
}

void append_result_json(std::ostringstream& out, const char* name,
                        const ExperimentResult& result) {
  out << '"' << name << "\":{"
      << "\"submitted\":" << result.submitted
      << ",\"committed\":" << result.committed
      << ",\"blocks\":" << result.blocks
      << ",\"mean_latency_s\":" << Table::num(result.mean_latency_s, 6)
      << ",\"p50_latency_s\":" << Table::num(result.p50_latency_s, 6)
      << ",\"p99_latency_s\":" << Table::num(result.p99_latency_s, 6)
      << ",\"live_at_end\":" << (result.live_at_end ? "true" : "false")
      << ",\"recovery_seconds\":"
      << Table::num(result.recovery_seconds, 3)
      << ",\"lost\":" << (result.submitted - result.committed)
      << ",\"recovered\":" << result.resilience.recovered
      << ",\"duplicate_commits\":" << result.resilience.duplicate_commits
      << ",\"resubmissions\":" << result.resilience.resubmissions
      << ",\"failovers\":" << result.resilience.failovers;
  // Hedging fields are elided when all-zero so pre-hedging reports (and
  // the checked-in baseline artifacts) stay byte-identical.
  if (result.resilience.hedges_armed != 0 ||
      result.resilience.hedges_won != 0 ||
      result.resilience.hedges_cancelled != 0) {
    out << ",\"hedges_armed\":" << result.resilience.hedges_armed
        << ",\"hedges_won\":" << result.resilience.hedges_won
        << ",\"hedges_cancelled\":" << result.resilience.hedges_cancelled;
  }
  out << ",\"throughput\":[";
  for (std::size_t i = 0; i < result.throughput.size(); ++i) {
    if (i > 0) out << ',';
    out << Table::num(result.throughput[i], 0);
  }
  out << "]}";
}

}  // namespace

std::string summary_csv_header() {
  return "chain,fault,score,benefits,live_at_end,recovery_s,"
         "baseline_mean_s,altered_mean_s,baseline_committed,"
         "altered_committed";
}

std::string summary_csv_row(ChainKind chain, FaultType fault,
                            const SensitivityRun& run) {
  return csv_join({to_string(chain), to_string(fault),
                   score_field(run.score),
                   run.score.benefits ? "1" : "0",
                   run.altered.live_at_end ? "1" : "0",
                   Table::num(run.altered.recovery_seconds, 2),
                   Table::num(run.baseline.mean_latency_s, 4),
                   Table::num(run.altered.mean_latency_s, 4),
                   std::to_string(run.baseline.committed),
                   std::to_string(run.altered.committed)});
}

std::string throughput_csv(const ExperimentResult& result) {
  std::ostringstream out;
  out << "second,tps\n";
  for (std::size_t t = 0; t < result.throughput.size(); ++t) {
    out << t << ',' << Table::num(result.throughput[t], 0) << '\n';
  }
  return out.str();
}

std::string to_json(const OracleReport& report) {
  std::ostringstream out;
  out << "{\"verdict\":\"" << to_string(report.verdict)
      << "\",\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const OracleFinding& finding = report.findings[i];
    if (i > 0) out << ',';
    out << "{\"oracle\":\"" << json_escape(finding.oracle)
        << "\",\"verdict\":\"" << to_string(finding.verdict)
        << "\",\"detail\":\"" << json_escape(finding.detail) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string to_json(ChainKind chain, FaultType fault,
                    const SensitivityRun& run) {
  std::ostringstream out;
  out << "{\"chain\":\"" << json_escape(to_string(chain)) << "\","
      << "\"fault\":\"" << json_escape(to_string(fault)) << "\","
      << "\"score\":"
      << (run.score.invalid_baseline
              ? std::string("\"invalid\"")
              : run.score.infinite ? std::string("\"inf\"")
                                   : Table::num(run.score.value, 6))
      << ",\"benefits\":" << (run.score.benefits ? "true" : "false")
      << ",\"invalid_baseline\":"
      << (run.score.invalid_baseline ? "true" : "false") << ',';
  append_result_json(out, "baseline", run.baseline);
  out << ',';
  append_result_json(out, "altered", run.altered);
  out << '}';
  return out.str();
}

}  // namespace stabl::core
