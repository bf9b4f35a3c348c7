// Tests for the metrics registry: histogram bucketing, the sim-time
// ticker (a clock observer, so sampling must consume no TimerIds and not
// count toward events_processed), CSV shape and the byte-stable JSON
// round trip through metrics_from_json.
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------------------- histogram

TEST(Histogram, BucketsObservationsByUpperBound) {
  Histogram h("lat", {1.0, 2.0, 4.0});
  ASSERT_EQ(h.counts.size(), 4u);  // 3 bounds + overflow
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (inclusive upper bound)
  h.observe(1.5);   // <= 2
  h.observe(4.0);   // <= 4
  h.observe(100.0); // overflow
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum / 5.0);
}

TEST(Histogram, EmptyMeanIsZero) {
  Histogram h("empty", {1.0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(MetricsRegistry, HistogramIsFindOrCreate) {
  MetricsRegistry registry;
  Histogram& a = registry.histogram("lat", {1.0, 2.0});
  a.observe(0.5);
  Histogram& b = registry.histogram("lat", {1.0, 2.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.total, 1u);
}

// ---------------------------------------------------------------- ticker

TEST(MetricsTicker, SamplesOnThePeriodGridWithoutConsumingEvents) {
  sim::Simulation simulation(1);
  int fires = 0;
  // Events at 0.5 s, 2.5 s and 4.5 s; 1 s sampling grid.
  for (const double at : {0.5, 2.5, 4.5}) {
    simulation.schedule_at(sim::seconds(at), [&] { ++fires; });
  }
  MetricsRegistry registry;
  registry.add_gauge("fires", [&] { return static_cast<double>(fires); });
  MetricsTicker ticker(registry, sim::sec(1));
  simulation.set_time_observer(&ticker);
  simulation.run_until(sim::seconds(5.0));

  EXPECT_EQ(fires, 3);
  EXPECT_EQ(simulation.events_processed(), 3u);  // sampling consumed none
  // Grid samples at t=1..5; the jump from 0.5 s to 2.5 s must emit both
  // the t=1 and t=2 samples, each observing only events strictly before.
  ASSERT_EQ(registry.sample_times(),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
  ASSERT_EQ(registry.series().size(), 1u);
  EXPECT_EQ(registry.series()[0].name, "fires");
  EXPECT_EQ(registry.series()[0].samples,
            (std::vector<double>{1.0, 1.0, 2.0, 2.0, 3.0}));
}

TEST(MetricsTicker, EmitsPerfettoCountersWhenTraced) {
  sim::Simulation simulation(1);
  simulation.schedule_at(sim::seconds(2.0), [] {});
  MetricsRegistry registry;
  registry.add_gauge("depth", [] { return 7.0; });
  sim::TraceSink sink;
  MetricsTicker ticker(registry, sim::sec(1), &sink);
  simulation.set_time_observer(&ticker);
  simulation.run_until(sim::seconds(2.0));
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].phase, sim::TraceSink::Phase::kCounter);
  EXPECT_EQ(sink.events()[0].name, "depth");
  EXPECT_DOUBLE_EQ(sink.events()[0].value, 7.0);
}

TEST(MetricsRegistry, DetachProbesKeepsSamples) {
  MetricsRegistry registry;
  registry.add_gauge("g", [] { return 1.0; });
  registry.sample(1.0);
  registry.detach_probes();
  registry.sample(2.0);  // must not crash on dangling probes
  EXPECT_EQ(registry.series()[0].samples,
            (std::vector<double>{1.0, 0.0}));
}

// ------------------------------------------------------------- serialize

MetricsRegistry sampled_registry() {
  MetricsRegistry registry;
  double depth = 0.0;
  registry.add_gauge("mempool_depth", [&] { return depth; });
  registry.add_counter("votes", [&] { return depth * 3.0 + 0.125; });
  for (int k = 1; k <= 4; ++k) {
    depth = static_cast<double>(k) * 1.5;
    registry.sample(static_cast<double>(k));
  }
  Histogram& h = registry.histogram("commit_latency_s", {0.5, 1.0, 2.0});
  h.observe(0.25);
  h.observe(1.75);
  h.observe(9.0);
  registry.detach_probes();
  return registry;
}

TEST(MetricsSerialize, CsvShape) {
  const std::string csv = sampled_registry().to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_s,mempool_depth,votes");
  // Header + 4 sample rows.
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 5u);
}

TEST(MetricsSerialize, JsonRoundTripIsByteIdentical) {
  const std::string json = sampled_registry().to_json();
  const MetricsRegistry parsed = metrics_from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  ASSERT_EQ(parsed.series().size(), 2u);
  EXPECT_EQ(parsed.series()[0].name, "mempool_depth");
  EXPECT_EQ(parsed.series()[0].samples.size(), 4u);
  ASSERT_EQ(parsed.histograms().size(), 1u);
  EXPECT_EQ(parsed.histograms()[0].total, 3u);
}

TEST(MetricsSerialize, NegativeInfinityReadsBackWithItsSign) {
  MetricsRegistry registry;
  double value = -std::numeric_limits<double>::infinity();
  registry.add_gauge("slope", [&] { return value; });
  registry.sample(1.0);
  value = std::numeric_limits<double>::infinity();
  registry.sample(2.0);
  registry.detach_probes();
  const std::string json = registry.to_json();
  const MetricsRegistry parsed = metrics_from_json(json);
  ASSERT_EQ(parsed.series().size(), 1u);
  ASSERT_EQ(parsed.series()[0].samples.size(), 2u);
  EXPECT_EQ(parsed.series()[0].samples[0],
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(parsed.series()[0].samples[1],
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(MetricsSerialize, RejectsMalformedDocuments) {
  EXPECT_THROW(metrics_from_json(""), std::invalid_argument);
  EXPECT_THROW(metrics_from_json("{}"), std::invalid_argument);
  EXPECT_THROW(metrics_from_json("{\"times_s\":[1.0]"),
               std::invalid_argument);
}

}  // namespace
}  // namespace stabl::core
