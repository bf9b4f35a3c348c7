// cli_common — flag-parsing helpers shared by the example drivers
// (stabl_cli, regression_gate, partition_study, chaos_hunt).
//
// Chain names resolve through the registry (core::parse_chain_name), so
// every driver gets case-insensitive matching and error messages that list
// the valid names, and a newly linked chain plugin is accepted everywhere
// at once. Integer flags and positional arguments follow the scenario
// reader's rule (core::parse_integer_text).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

namespace stabl::cli {

/// The examples' shared usage-error exit: message (and an optional hint
/// line) to stderr, exit code 2.
[[noreturn]] inline void fail(const char* argv0, const std::string& message,
                              const std::string& hint = {}) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  if (!hint.empty()) std::fprintf(stderr, "%s\n", hint.c_str());
  std::exit(2);
}

/// The examples' shared "where to find the docs" hint line.
inline std::string help_hint(const char* argv0) {
  return "run '" + std::string(argv0) + " --help' for the full flag list";
}

/// The examples' shared unknown-flag exit: every driver reports an unknown
/// flag the same way — the flag by name, the --help hint, exit code 2.
[[noreturn]] inline void fail_unknown_flag(const char* argv0,
                                           const std::string& flag) {
  fail(argv0, "unknown flag '" + flag + "'", help_hint(argv0));
}

/// Registry-backed chain lookup, case-insensitive; exits 2 listing the
/// valid names when unknown.
inline core::ChainKind parse_chain_or_exit(const std::string& name,
                                           const char* argv0,
                                           const std::string& hint = {}) {
  try {
    return core::parse_chain_name(name);
  } catch (const std::invalid_argument& error) {
    fail(argv0, error.what(), hint);
  }
}

/// Comma-separated chain names ("redbelly,solana"); exits 2 on an unknown
/// name or an empty list.
inline std::vector<core::ChainKind> parse_chain_list_or_exit(
    const std::string& list, const char* argv0,
    const std::string& hint = {}) {
  std::vector<core::ChainKind> chains;
  for (std::size_t pos = 0; pos < list.size();) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    chains.push_back(parse_chain_or_exit(name, argv0, hint));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (chains.empty()) {
    fail(argv0, "expected a comma-separated chain list", hint);
  }
  return chains;
}

/// An integer flag value or positional argument under the scenario
/// reader's rule: the whole token is one integer with |value| <= 9e15
/// ("12abc", "" and "1.5" exit 2).
inline std::int64_t integer_or_exit(const char* argv0,
                                    const std::string& flag,
                                    const std::string& text) {
  try {
    return core::parse_integer_text(text, flag);
  } catch (const std::invalid_argument& error) {
    fail(argv0, error.what(), help_hint(argv0));
  }
}

/// A positional run length under stabl_cli's --duration rule: whole
/// seconds, >= 30, and below 1e12 s so it fits a simulated duration.
inline long duration_or_exit(const char* argv0, const std::string& text) {
  const std::int64_t seconds =
      integer_or_exit(argv0, "duration_seconds", text);
  if (seconds < 30) {
    fail(argv0, "duration_seconds must be >= 30", help_hint(argv0));
  }
  if (seconds >= 1'000'000'000'000) {
    fail(argv0, "duration_seconds is out of range for a simulated duration",
         help_hint(argv0));
  }
  return static_cast<long>(seconds);
}

/// Writes `body` to `path`, exiting 1 on I/O failure. The harness's output
/// files are small (traces a few MB at most), so one buffered fwrite is
/// fine.
inline void write_file_or_die(const char* argv0, const std::string& path,
                              const std::string& body) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", argv0,
                 path.c_str());
    std::exit(1);
  }
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), out);
  if (std::fclose(out) != 0 || written != body.size()) {
    std::fprintf(stderr, "%s: short write to %s\n", argv0, path.c_str());
    std::exit(1);
  }
}

inline bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// Stable 64-bit FNV-1a — repro sidecar file naming only (not a crypto
/// hash).
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Sidecar file stem for a chaos trial's repro artifacts:
/// "chaos_<chain>_trial<K>_seed<S>_plan<H>" where H is the first 8 hex
/// digits of fnv1a over the (minimized) schedule JSON. One campaign can
/// produce several violations for the same chain, and reruns with
/// different root seeds land different schedules on the same trial index —
/// the seed and plan-hash suffixes keep every repro file distinct.
inline std::string chaos_repro_stem(const std::string& chain,
                                    std::size_t trial, std::uint64_t seed,
                                    const std::string& schedule_json) {
  char hash_hex[9];
  std::snprintf(hash_hex, sizeof(hash_hex), "%08x",
                static_cast<unsigned>(fnv1a(schedule_json) >> 32));
  return "chaos_" + chain + "_trial" + std::to_string(trial) + "_seed" +
         std::to_string(seed) + "_plan" + hash_hex;
}

}  // namespace stabl::cli
