#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace stabl::core {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  if (std::isinf(value)) return value > 0.0 ? "inf" : "-inf";
  char buf[400];  // DBL_MAX has 309 integer digits
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << cells[c];
      out << std::string(widths[c] - cells[c].size(), ' ');
    }
    out << " |\n";
  };
  emit_row(headers_);
  out << '|';
  for (const std::size_t w : widths) out << std::string(w + 2, '-') << '|';
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string render_timeseries(const std::vector<double>& per_second,
                              double bucket_s, double max_scale) {
  if (per_second.empty()) return "(empty series)\n";
  const auto bucket = static_cast<std::size_t>(std::max(1.0, bucket_s));
  std::vector<double> buckets;
  for (std::size_t start = 0; start < per_second.size(); start += bucket) {
    const std::size_t end = std::min(per_second.size(), start + bucket);
    double sum = 0.0;
    for (std::size_t i = start; i < end; ++i) sum += per_second[i];
    buckets.push_back(sum / static_cast<double>(end - start));
  }
  double scale = max_scale;
  if (scale <= 0.0) {
    scale = *std::max_element(buckets.begin(), buckets.end());
  }
  if (scale <= 0.0) scale = 1.0;
  std::ostringstream out;
  constexpr int kBarWidth = 40;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const auto from = b * bucket;
    const auto to = std::min(per_second.size(), from + bucket);
    const int bar = static_cast<int>(
        std::round(std::min(1.0, buckets[b] / scale) * kBarWidth));
    char head[32];
    std::snprintf(head, sizeof(head), "[%4zu-%4zus] ", from, to);
    out << head << std::string(static_cast<std::size_t>(bar), '#')
        << std::string(static_cast<std::size_t>(kBarWidth - bar), ' ')
        << "  " << Table::num(buckets[b], 1) << " tps\n";
  }
  return out.str();
}

std::string render_ecdf_pair(const Ecdf& baseline, const Ecdf& altered,
                             int width, int height) {
  const double max_x = std::max(baseline.max(), altered.max());
  if (max_x <= 0.0 || width < 2 || height < 2) return "(empty eCDF)\n";
  std::ostringstream out;
  for (int row = height; row >= 0; --row) {
    const double y = static_cast<double>(row) / height;
    char label[16];
    std::snprintf(label, sizeof(label), "%4.2f |", y);
    out << label;
    for (int col = 0; col <= width; ++col) {
      const double x = max_x * static_cast<double>(col) / width;
      const double step = 1.0 / height / 2.0;
      const bool on_base = std::abs(baseline(x) - y) <= step;
      const bool on_alt = std::abs(altered(x) - y) <= step;
      if (on_base && on_alt) {
        out << '@';
      } else if (on_base) {
        out << '#';
      } else if (on_alt) {
        out << '*';
      } else {
        out << ' ';
      }
    }
    out << '\n';
  }
  out << "     +" << std::string(static_cast<std::size_t>(width) + 1, '-')
      << "> latency (max " << Table::num(max_x, 2) << "s)\n"
      << "     # baseline   * altered   @ overlap\n";
  return out.str();
}

std::string csv_join(const std::vector<std::string>& cells) {
  std::ostringstream out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out << ',';
    out << cells[i];
  }
  return out.str();
}

}  // namespace stabl::core
