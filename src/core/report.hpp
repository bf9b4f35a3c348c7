// Plain-text rendering of tables, time series and eCDF plots, so every
// bench binary can print the figure it reproduces.
#pragma once

#include <string>
#include <vector>

#include "core/sensitivity.hpp"

namespace stabl::core {

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  [[nodiscard]] std::string to_string() const;

  /// Fixed-point `value`; infinities print as "inf" and "-inf", which the
  /// metrics reader (strtod) reads back with their sign.
  static std::string num(double value, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Render a per-second series as rows of `bucket_s`-second averages, e.g.
///   [  0- 20s] ####################  201.3 tps
std::string render_timeseries(const std::vector<double>& per_second,
                              double bucket_s = 10.0, double max_scale = 0.0);

/// Render two eCDFs side by side over a shared latency grid (Fig. 1 style):
/// baseline '#', altered '*', overlap '@'.
std::string render_ecdf_pair(const Ecdf& baseline, const Ecdf& altered,
                             int width = 61, int height = 16);

/// CSV line helpers for machine-readable output.
std::string csv_join(const std::vector<std::string>& cells);

}  // namespace stabl::core
