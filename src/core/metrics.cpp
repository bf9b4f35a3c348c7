#include "core/metrics.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include <algorithm>

#include "core/json.hpp"
#include "core/report.hpp"
#include "core/serialize.hpp"

namespace stabl::core {
namespace {

// Fixed precisions keep to_json/to_csv byte-stable: a value parsed back
// with strtod and re-printed at the same precision reproduces its bytes.
constexpr int kTimePrecision = 3;
constexpr int kValuePrecision = 6;

}  // namespace

Histogram::Histogram(std::string metric_name,
                     std::vector<double> bucket_bounds)
    : name(std::move(metric_name)), bounds(std::move(bucket_bounds)) {
  counts.assign(bounds.size() + 1, 0);
}

std::vector<double> Histogram::log_bounds(double lo, double hi,
                                          int per_decade) {
  std::vector<double> bounds;
  const double step = std::pow(10.0, 1.0 / static_cast<double>(per_decade));
  double bound = lo;
  double previous = -1.0;
  while (bound < hi * (1.0 + 1e-9)) {
    // Quantize to the serializers' fixed precision so in-memory bounds are
    // exactly what a round-tripped document reparses.
    const double quantized = std::round(bound * 1e6) / 1e6;
    if (quantized > previous) {
      bounds.push_back(quantized);
      previous = quantized;
    }
    bound *= step;
  }
  return bounds;
}

double Histogram::quantile(double q) const {
  if (total == 0 || counts.empty()) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = cumulative + counts[i];
    if (counts[i] > 0 && static_cast<double>(next) >= target) {
      if (i >= bounds.size()) {
        return bounds.empty() ? 0.0 : bounds.back();  // overflow bucket
      }
      const double low = i == 0 ? 0.0 : bounds[i - 1];
      const double high = bounds[i];
      const double into = (target - static_cast<double>(cumulative)) /
                          static_cast<double>(counts[i]);
      return low + (high - low) * std::clamp(into, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void Histogram::observe(double value) {
  std::size_t slot = bounds.size();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (value <= bounds[i]) {
      slot = i;
      break;
    }
  }
  ++counts[slot];
  ++total;
  sum += value;
}

void MetricsRegistry::add_gauge(std::string name, Probe probe) {
  series_.push_back(MetricSeries{std::move(name), {}});
  probes_.push_back(std::move(probe));
}

void MetricsRegistry::add_counter(std::string name, Probe probe) {
  add_gauge(std::move(name), std::move(probe));
}

Histogram& MetricsRegistry::histogram(std::string name,
                                      std::vector<double> bounds) {
  for (Histogram& h : histograms_) {
    if (h.name == name) return h;
  }
  histograms_.emplace_back(std::move(name), std::move(bounds));
  return histograms_.back();
}

void MetricsRegistry::sample(double t_s, sim::TraceSink* trace) {
  times_.push_back(t_s);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const double value = probes_[i] ? probes_[i]() : 0.0;
    series_[i].samples.push_back(value);
    if (trace != nullptr) {
      trace->counter(sim::seconds(t_s), series_[i].name, value);
    }
  }
}

void MetricsRegistry::detach_probes() {
  for (Probe& probe : probes_) probe = nullptr;
}

void MetricsRegistry::note(const std::string& text) {
  if (std::find(notes_.begin(), notes_.end(), text) == notes_.end()) {
    notes_.push_back(text);
  }
}

std::string MetricsRegistry::to_csv() const {
  std::vector<std::string> header{"t_s"};
  for (const MetricSeries& s : series_) header.push_back(s.name);
  std::ostringstream out;
  out << csv_join(header) << '\n';
  for (std::size_t row = 0; row < times_.size(); ++row) {
    std::vector<std::string> cells{Table::num(times_[row], kTimePrecision)};
    for (const MetricSeries& s : series_) {
      cells.push_back(Table::num(s.samples[row], kValuePrecision));
    }
    out << csv_join(cells) << '\n';
  }
  return out.str();
}

std::string MetricsRegistry::histograms_csv() const {
  std::ostringstream out;
  out << "name,total,mean,p50,p90,p99\n";
  for (const Histogram& hist : histograms_) {
    out << csv_join({hist.name, std::to_string(hist.total),
                     Table::num(hist.mean(), kValuePrecision),
                     Table::num(hist.quantile(0.50), kValuePrecision),
                     Table::num(hist.quantile(0.90), kValuePrecision),
                     Table::num(hist.quantile(0.99), kValuePrecision)})
        << '\n';
  }
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  out << "{\"times_s\":[";
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (i > 0) out << ',';
    out << Table::num(times_[i], kTimePrecision);
  }
  out << "],\"series\":[";
  for (std::size_t s = 0; s < series_.size(); ++s) {
    if (s > 0) out << ',';
    out << "{\"name\":\"" << json_escape(series_[s].name)
        << "\",\"samples\":[";
    for (std::size_t i = 0; i < series_[s].samples.size(); ++i) {
      if (i > 0) out << ',';
      out << Table::num(series_[s].samples[i], kValuePrecision);
    }
    out << "]}";
  }
  out << "],\"histograms\":[";
  for (std::size_t h = 0; h < histograms_.size(); ++h) {
    if (h > 0) out << ',';
    const Histogram& hist = histograms_[h];
    out << "{\"name\":\"" << json_escape(hist.name) << "\",\"bounds\":[";
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      if (i > 0) out << ',';
      out << Table::num(hist.bounds[i], kValuePrecision);
    }
    out << "],\"counts\":[";
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      if (i > 0) out << ',';
      out << hist.counts[i];
    }
    out << "],\"sum\":" << Table::num(hist.sum, kValuePrecision) << '}';
  }
  out << ']';
  if (!notes_.empty()) {
    out << ",\"notes\":[";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i > 0) out << ',';
      out << '"' << json_escape(notes_[i]) << '"';
    }
    out << ']';
  }
  out << '}';
  return out.str();
}

MetricsRegistry metrics_from_json(const std::string& json) {
  JsonCursor cursor(json);
  const auto numbers = [&](std::vector<double>& out) {
    cursor.read_list([&] { out.push_back(cursor.parse_number()); });
  };
  std::vector<double> times;
  std::vector<MetricSeries> series;
  std::vector<Histogram> histograms;
  std::vector<std::string> notes;

  cursor.expect_key('{', "times_s");
  numbers(times);
  cursor.expect_key(',', "series");
  cursor.read_list([&] {
    MetricSeries& s = series.emplace_back();
    cursor.expect_key('{', "name");
    s.name = cursor.parse_string();
    cursor.expect_key(',', "samples");
    numbers(s.samples);
    // to_csv reads one sample per series per sample time.
    if (s.samples.size() != times.size()) {
      cursor.fail("series \"" + s.name + "\" needs one sample per time");
    }
    cursor.expect('}');
  });
  cursor.expect_key(',', "histograms");
  cursor.read_list([&] {
    Histogram& hist = histograms.emplace_back();
    cursor.expect_key('{', "name");
    hist.name = cursor.parse_string();
    cursor.expect_key(',', "bounds");
    numbers(hist.bounds);
    cursor.expect_key(',', "counts");
    cursor.read_list([&] {
      hist.counts.push_back(static_cast<std::uint64_t>(
          cursor.parse_integer("metrics: \"counts\"", 0)));
      hist.total += hist.counts.back();
    });
    // observe() indexes counts by bucket: one per bound plus overflow.
    if (hist.counts.size() != hist.bounds.size() + 1) {
      cursor.fail("histogram \"" + hist.name +
                  "\" needs one count per bound plus one");
    }
    cursor.expect_key(',', "sum");
    hist.sum = cursor.parse_number();
    cursor.expect('}');
  });
  if (cursor.peek() == ',') {
    cursor.expect_key(',', "notes");
    cursor.read_list([&] { notes.push_back(cursor.parse_string()); });
  }
  cursor.expect('}');
  cursor.finish();

  MetricsRegistry registry;
  registry.restore(std::move(times), std::move(series),
                   std::move(histograms), std::move(notes));
  return registry;
}

void MetricsRegistry::restore(std::vector<double> times,
                              std::vector<MetricSeries> series,
                              std::vector<Histogram> histograms,
                              std::vector<std::string> notes) {
  times_ = std::move(times);
  series_ = std::move(series);
  histograms_ = std::move(histograms);
  notes_ = std::move(notes);
  probes_.assign(series_.size(), nullptr);
}

void MetricsTicker::on_time_advance(sim::Time now) {
  while (true) {
    const sim::Time next =
        period_ * static_cast<std::int64_t>(ticks_emitted_ + 1);
    if (next > now) break;
    registry_.sample(sim::to_seconds(next), trace_);
    ++ticks_emitted_;
  }
}

}  // namespace stabl::core
