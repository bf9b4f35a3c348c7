// Machine-readable result output (CSV rows and JSON documents), so STABL
// campaigns can feed plotting pipelines and CI dashboards — the paper
// positions STABL as "pluggable in continuous integration pipelines".
#pragma once

#include <string>

#include "core/experiment.hpp"
#include "core/json.hpp"  // json_escape, used by every JSON writer
#include "core/oracle.hpp"

namespace stabl::core {

/// Header matching summary_csv_row().
std::string summary_csv_header();

/// One campaign line: chain, fault, score, liveness, recovery, latencies.
std::string summary_csv_row(ChainKind chain, FaultType fault,
                            const SensitivityRun& run);

/// Per-second throughput as "t,tps" lines with a header.
std::string throughput_csv(const ExperimentResult& result);

/// Full JSON document for one baseline/altered pair (self-describing; no
/// external schema needed).
std::string to_json(ChainKind chain, FaultType fault,
                    const SensitivityRun& run);

/// Oracle verdict + findings as a JSON object (chaos repro documents).
std::string to_json(const OracleReport& report);

}  // namespace stabl::core
