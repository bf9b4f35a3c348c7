// Sim-time metrics: a registry of probes sampled on a fixed sim-time grid.
//
// Components register gauge/counter probes (cheap closures reading live
// state) and histograms (explicit-bound latency/size distributions). A
// MetricsTicker — a sim::TimeObserver, so it rides clock advances instead
// of the event queue — samples every probe once per period. Because the
// ticker never schedules events and probes never mutate state, attaching
// metrics cannot perturb RNG draws or event ordering: runs stay
// byte-identical in every report with metrics on or off.
//
// Snapshots serialize to CSV (one row per sample instant) and JSON, and
// the JSON round-trips byte-identically through metrics_from_json — the
// same discipline the fault-schedule repro files follow.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace stabl::core {

/// Fixed-bound histogram. `counts[i]` holds observations <= bounds[i];
/// the final slot is the overflow bucket, so counts.size() == bounds.size()+1.
struct Histogram {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;

  Histogram() = default;
  Histogram(std::string metric_name, std::vector<double> bucket_bounds);

  /// Fixed log-scale bucket bounds covering [lo, hi] with `per_decade`
  /// bounds per factor of ten, each quantized to 1e-6 so the bounds
  /// round-trip byte-identically through the serializers. The stage
  /// latency histograms use log_bounds(0.001, 256.0, 4): sub-millisecond
  /// network hops and multi-minute consensus stalls on one axis.
  [[nodiscard]] static std::vector<double> log_bounds(double lo, double hi,
                                                      int per_decade);

  void observe(double value);
  [[nodiscard]] double mean() const {
    return total == 0 ? 0.0 : sum / static_cast<double>(total);
  }
  /// Quantile estimate by linear interpolation inside the bucket holding
  /// the target rank (bucket i spans (bounds[i-1], bounds[i]], bucket 0
  /// starts at 0). Deterministic — a pure function of the counts — and
  /// clamped to bounds.back() for ranks landing in the overflow bucket.
  [[nodiscard]] double quantile(double q) const;
};

/// One sampled time series: the value of a single probe on the tick grid.
struct MetricSeries {
  std::string name;
  std::vector<double> samples;  // samples[k] taken at t = (k+1) * period
};

class MetricsRegistry {
 public:
  using Probe = std::function<double()>;

  /// Register a probe sampled every tick, before the first sample(), so
  /// every series holds one sample per sample time. Gauges and counters
  /// share the sampling machinery; the distinction is documentation (a
  /// counter probe should be monotone).
  void add_gauge(std::string name, Probe probe);
  void add_counter(std::string name, Probe probe);

  /// Find-or-create a histogram with the given bucket bounds.
  Histogram& histogram(std::string name, std::vector<double> bounds);

  /// Sample every probe at sim-time `t_s` seconds. When `trace` is
  /// non-null each value is also emitted as a Perfetto counter so the
  /// series shows up as tracks in the timeline UI.
  void sample(double t_s, sim::TraceSink* trace = nullptr);

  /// Record a one-time diagnostic note (e.g. "the workload interval floor
  /// bound at 12000 TPS"). Duplicates are collapsed, so emit sites can
  /// fire unconditionally. Notes serialize as a trailing "notes" array —
  /// omitted entirely when empty, which keeps note-free documents
  /// byte-identical to those of builds that predate the field.
  void note(const std::string& text);

  /// Drop all probes but keep recorded samples. Called when the sampled
  /// simulation is torn down: probes capture references into it, and a
  /// registry outliving its run must not keep dangling closures callable.
  void detach_probes();

  [[nodiscard]] const std::vector<MetricSeries>& series() const {
    return series_;
  }
  [[nodiscard]] const std::vector<Histogram>& histograms() const {
    return histograms_;
  }
  [[nodiscard]] const std::vector<double>& sample_times() const {
    return times_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

  /// CSV: header "t_s,<name>,..." then one row per sample instant.
  [[nodiscard]] std::string to_csv() const;
  /// CSV summary of the recorded histograms: one row per histogram with
  /// name, total, mean and interpolated p50/p90/p99 columns. Byte-stable
  /// (fixed precisions, registration order).
  [[nodiscard]] std::string histograms_csv() const;
  /// JSON document; byte-stable round trip through metrics_from_json.
  [[nodiscard]] std::string to_json() const;

  /// Replace recorded data wholesale (deserialization path; probes null).
  void restore(std::vector<double> times, std::vector<MetricSeries> series,
               std::vector<Histogram> histograms,
               std::vector<std::string> notes = {});

 private:
  std::vector<MetricSeries> series_;
  std::vector<Probe> probes_;  // parallel to series_
  std::vector<Histogram> histograms_;
  std::vector<double> times_;
  std::vector<std::string> notes_;
};

/// Parse a document produced by MetricsRegistry::to_json back into a
/// registry (samples and histograms only — probes are not serializable).
/// Re-serializing the result is byte-identical to the input. Throws
/// std::invalid_argument on malformed input, a series without one sample
/// per sample time, counts that are not whole numbers >= 0, or a histogram
/// without one count per bound plus one.
MetricsRegistry metrics_from_json(const std::string& json);

/// Samples a MetricsRegistry every `period` of sim time, implemented as a
/// clock observer so sampling consumes no TimerIds and never counts toward
/// events_processed(). Sample k fires logically at t = k*period (k >= 1),
/// observing exactly the events strictly before that instant; crossing
/// several periods in one clock jump emits one sample per boundary.
class MetricsTicker final : public sim::TimeObserver {
 public:
  MetricsTicker(MetricsRegistry& registry, sim::Duration period,
                sim::TraceSink* trace = nullptr)
      : registry_(registry), period_(period), trace_(trace) {}

  void on_time_advance(sim::Time now) override;

 private:
  MetricsRegistry& registry_;
  sim::Duration period_;
  sim::TraceSink* trace_;
  std::uint64_t ticks_emitted_ = 0;
};

/// Wall-clock stopwatch for harness phase profiling. Wall timings are
/// intentionally kept OUT of the deterministic reports (to_csv/to_json);
/// they surface in separate timing tables only.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace stabl::core
