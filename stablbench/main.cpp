// stablbench — the repository benchmark's measuring process.
//
//   stablbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//              [--setup-only]
//
// Builds the workload's inputs from the seed, then either repeats the
// untraced unit of work for about S seconds (--trace 0) or performs one
// traced run (--trace 1). Prints one JSON object per line on stdout:
// {"event":"setup",...}, then {"event":"unit",...} per repetition or one
// {"event":"layers",...}, then {"event":"end"}. run.py turns these
// into the benchmark's metrics and checks the digests.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "core/serialize.hpp"

namespace {

using namespace stablbench;

std::string quoted(const std::string& text) {
  return "\"" + core::json_escape(text) + "\"";
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string errors_json(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(errors[i]);
  }
  return out + "]";
}

void print_unit(std::size_t rep, const UnitResult& unit) {
  std::string out = "{\"event\":\"unit\",\"rep\":" + std::to_string(rep) +
                    ",\"wall_s\":" + number(unit.wall_s) +
                    ",\"cpu_s\":" + number(unit.cpu_s) +
                    ",\"peak_rss_mb\":" + number(unit.peak_rss_mb) +
                    ",\"sims\":" + std::to_string(unit.sims) +
                    ",\"failed\":" + std::to_string(unit.failed) +
                    ",\"errors\":" + errors_json(unit.errors) +
                    ",\"digests\":[";
  for (std::size_t i = 0; i < unit.digests.size(); ++i) {
    const Digest& d = unit.digests[i];
    if (i > 0) out += ",";
    out += "[" + quoted(d.name) + "," + quoted(d.hex) + "," +
           std::to_string(d.sims) + "]";
  }
  std::printf("%s]}\n", out.c_str());
  std::fflush(stdout);
}

void print_layers(const LayerResult& layers) {
  std::string out = "{\"event\":\"layers\",\"sims\":" +
                    std::to_string(layers.sims) +
                    ",\"failed\":" + std::to_string(layers.failed) +
                    ",\"errors\":" + errors_json(layers.errors) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : layers.metrics) {
    if (!first) out += ",";
    first = false;
    out += quoted(name) + ":" + number(value);
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--setup-only]\n",
               argv0, error.c_str(), argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = host_now_s();
  std::string workload_name;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      trace = value() == "1";
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      usage(argv[0], "unknown argument " + arg);
    }
  }
  if (workload_name.empty()) usage(argv[0], "--workload is required");

  try {
    // Seam (a) must be queued before anything queries the chain registry.
    if (trace) register_timed_chains();
    const std::unique_ptr<Workload> workload =
        make_workload(workload_name, seed);
    std::printf(
        "{\"event\":\"setup\",\"setup_in_process_s\":%s,\"unit_sims\":%zu,"
        "\"compiler\":%s,\"build_type\":%s}\n",
        number(host_now_s() - process_start).c_str(), workload->unit_sims(),
        quoted("g++ " __VERSION__).c_str(), quoted(STABLBENCH_BUILD_TYPE).c_str());
    std::fflush(stdout);
    if (setup_only) return 0;

    if (trace) {
      print_layers(workload->run_traced());
    } else {
      // Repeat the unit while another one fits in the time left; the
      // first always runs.
      const double start = host_now_s();
      double unit_sum = 0.0;
      std::size_t reps = 0;
      do {
        const UnitResult unit = workload->run_unit();
        print_unit(reps, unit);
        unit_sum += unit.wall_s;
        ++reps;
      } while (host_now_s() - start + unit_sum / static_cast<double>(reps) <=
               seconds);
    }
    std::printf("{\"event\":\"end\"}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stablbench: %s\n", e.what());
    return 3;
  }
}
