#include "core/trace.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"
#include "core/serialize.hpp"
#include "core/report.hpp"

namespace stabl::core {
namespace {

const char* phase_letter(sim::TraceSink::Phase phase) {
  using Phase = sim::TraceSink::Phase;
  switch (phase) {
    case Phase::kBegin: return "B";
    case Phase::kEnd: return "E";
    case Phase::kInstant: return "i";
    case Phase::kCounter: return "C";
    case Phase::kAsyncBegin: return "b";
    case Phase::kAsyncEnd: return "e";
  }
  return "?";
}

/// Counters are usually integral gauges (queue depths, open breakers);
/// print those without a fraction so the document stays compact.
std::string counter_value(double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  return Table::num(value, 6);
}

}  // namespace

void name_cluster_tracks(sim::TraceSink& sink, std::size_t n_nodes,
                         std::size_t n_clients) {
  for (std::size_t i = 0; i < n_nodes; ++i) {
    sink.set_track_name(static_cast<std::int32_t>(i),
                        "node " + std::to_string(i));
  }
  for (std::size_t i = 0; i < n_clients; ++i) {
    sink.set_track_name(static_cast<std::int32_t>(n_nodes + i),
                        "client " + std::to_string(i));
  }
  sink.set_track_name(kFaultsTrack, "faults");
}

std::string trace_to_json(const sim::TraceSink& sink) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ',';
    first = false;
  };

  for (const auto& [track, name] : sink.track_names()) {
    comma();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << track << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }

  using Phase = sim::TraceSink::Phase;
  for (const sim::TraceSink::Event& event : sink.events()) {
    comma();
    out << "{\"name\":\"" << json_escape(event.name) << "\",\"ph\":\""
        << phase_letter(event.phase) << "\",\"ts\":" << event.time.count()
        << ",\"pid\":0,\"tid\":" << event.track;
    // Perfetto requires a category on async events to pair b/e records.
    if (!event.category.empty()) {
      out << ",\"cat\":\"" << json_escape(event.category) << "\"";
    } else if (event.phase == Phase::kAsyncBegin ||
               event.phase == Phase::kAsyncEnd) {
      out << ",\"cat\":\"async\"";
    }
    switch (event.phase) {
      case Phase::kInstant:
        out << ",\"s\":\"t\"";  // thread-scoped instant
        break;
      case Phase::kAsyncBegin:
      case Phase::kAsyncEnd:
        out << ",\"id\":\"" << event.id << "\"";
        break;
      case Phase::kCounter:
        out << ",\"args\":{\"value\":" << counter_value(event.value) << "}";
        break;
      default:
        break;
    }
    if (event.phase != Phase::kCounter && event.phase != Phase::kEnd &&
        !event.args.empty()) {
      out << ",\"args\":{" << event.args << "}";
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

TraceStats validate_trace_json(const std::string& json) {
  TraceStats stats;
  std::set<std::int32_t> tids;
  std::map<std::int32_t, int> open_spans;  // B/E nesting depth per track

  JsonCursor cursor(json);
  cursor.expect_key('{', "displayTimeUnit");
  if (cursor.parse_string() != "ms") cursor.fail("displayTimeUnit must be ms");
  cursor.expect_key(',', "traceEvents");
  cursor.read_list([&] {
    std::string ph;
    double ts = 0.0;
    std::int32_t tid = 0;
    std::set<std::string> keys;
    cursor.read_members(
        "trace JSON: duplicate event key \"", [&](const std::string& key) {
          keys.insert(key);
          if (key == "ph") {
            ph = cursor.parse_string();
          } else if (key == "ts") {
            ts = cursor.parse_finite("trace JSON: \"ts\"");
          } else if (key == "pid") {
            cursor.parse_finite("trace JSON: \"pid\"");
          } else if (key == "tid") {
            tid = static_cast<std::int32_t>(cursor.parse_integer(
                "trace JSON: \"tid\"",
                std::numeric_limits<std::int32_t>::min(),
                std::numeric_limits<std::int32_t>::max()));
          } else if (key == "args") {
            cursor.skip_value();
          } else if (key == "name" || key == "id" || key == "cat" ||
                     key == "s") {
            cursor.parse_string();
          } else {
            cursor.fail("unknown event key \"" + key + "\"");
          }
        });
    const auto has = [&](const char* key) { return keys.count(key) > 0; };
    if (!has("name") || !has("pid") || !has("tid")) {
      cursor.fail("event missing name/pid/tid");
    }
    if (ph == "M") {
      if (!has("args")) cursor.fail("metadata event missing args");
      ++stats.metadata;
      return;
    }
    if (!has("ts")) cursor.fail("trace event missing ts");
    if (ts < 0.0) cursor.fail("negative timestamp");
    tids.insert(tid);
    ++stats.events;
    if (ph == "B") {
      ++stats.spans;
      ++open_spans[tid];
    } else if (ph == "E") {
      if (--open_spans[tid] < 0) cursor.fail("unbalanced E on a track");
    } else if (ph == "i") {
      ++stats.instants;
    } else if (ph == "C") {
      if (!has("args")) cursor.fail("counter missing args.value");
      ++stats.counters;
    } else if (ph == "b" || ph == "e") {
      if (!has("id")) cursor.fail("async event missing id");
      ++stats.asyncs;
    } else {
      cursor.fail("unknown phase \"" + ph + "\"");
    }
  });
  cursor.expect('}');
  cursor.finish();

  for (const auto& [tid, depth] : open_spans) {
    if (depth != 0) {
      throw std::invalid_argument("trace JSON: unbalanced B span on track " +
                                  std::to_string(tid));
    }
  }
  stats.tracks = tids.size();
  return stats;
}

}  // namespace stabl::core
