// Chrome/Perfetto export of sim-time traces.
//
// sim::TraceSink (the emission side, see src/sim/trace.hpp) is
// format-agnostic; this module renders a recorded sink as a Chrome
// trace_event JSON document that loads directly in ui.perfetto.dev or
// chrome://tracing — one track (tid) per blockchain node, one per client
// machine, plus a dedicated faults track. It also ships a strict validator
// used by tests and CI to guarantee every exported trace actually parses
// as the schema Perfetto expects.
#pragma once

#include <cstdint>
#include <string>

#include "sim/trace.hpp"

namespace stabl::core {

/// Track (tid) carrying fault-plan arm/inject/recover events. Far above
/// any node or client id so cluster growth can never collide with it.
inline constexpr std::int32_t kFaultsTrack = 1'000'000;

/// Label the standard cluster layout: nodes 0..n-1, clients n..n+c-1 (the
/// NodeIds run_experiment assigns), plus the faults track.
void name_cluster_tracks(sim::TraceSink& sink, std::size_t n_nodes,
                         std::size_t n_clients);

/// Render the sink as a Chrome trace_event JSON document:
///   {"displayTimeUnit":"ms","traceEvents":[...]}
/// Metadata (thread_name) events come first, then the recorded events in
/// emission order (which is sim-time order). Timestamps are microseconds.
std::string trace_to_json(const sim::TraceSink& sink);

/// What validate_trace_json counted while checking the document.
struct TraceStats {
  std::size_t events = 0;    // all non-metadata trace events
  std::size_t metadata = 0;  // "M" thread_name records
  std::size_t spans = 0;     // "B" (each must pair with an "E")
  std::size_t instants = 0;  // "i"
  std::size_t counters = 0;  // "C"
  std::size_t asyncs = 0;    // "b" + "e"
  std::size_t tracks = 0;    // distinct tids seen
};

/// Strictly validate a document produced by trace_to_json: top-level
/// shape, required keys per phase ("ts"/"pid"/"tid" on trace events, "id"
/// on async events, "args.value" on counters), finite non-negative
/// timestamps, tids that fit an int32, no repeated keys and balanced B/E
/// nesting per track. Throws std::invalid_argument on the first violation.
TraceStats validate_trace_json(const std::string& json);

}  // namespace stabl::core
