// Event-core scaling gate: events/s and tx/s vs node count (4 -> 1000).
//
// Two layers:
//
//  1. Queue churn — the pooled indexed EventQueue head-to-head against a
//     faithful reimplementation of the legacy design it replaced
//     (std::priority_queue + unordered_map<TimerId, std::function> with
//     lazy cancellation). Keeping the legacy queue *inside this binary*
//     makes the old-vs-new ratio reproducible on any machine forever,
//     rather than depending on a number measured once before the swap.
//     The churn pattern mirrors a faulted cell at scale: most timers are
//     commit/round timeouts that are cancelled long before they fire, the
//     exact pattern whose garbage the lazy design accumulated.
//
//  2. Cell sweep — full redbelly simulations at increasing node counts,
//     reporting events/s, committed tx/s and each cell's own peak RSS.
//     Durations shrink with n so the 1000-node cell stays a bench, not a
//     soak.
//
// Environment:
//   STABL_SCALE_MAX_N     cap the sweep (CI smoke uses 64; default 1000)
//   STABL_SCALE_SKIP_CELLS=1  run only the queue layer (fast gate)
//   STABL_SCALE_JSON      write results as JSON to this path
//   STABL_SCALE_BASELINE  compare against a checked-in JSON baseline and
//                         exit 1 if pooled-queue events/s regresses >10%
//                         (or the legacy-vs-pooled speedup >30%) at any
//                         node count both files cover
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/experiment.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace {

using namespace stabl;

// ---------------------------------------------------------------------------
// The pre-swap queue, reproduced with its exact semantics: heap of (at, id),
// actions in a hash map, lazy cancellation through a cancelled-id set that
// keeps heap entries until their fire time comes up.
class LegacyQueue {
 public:
  using Action = std::function<void()>;

  std::uint64_t schedule(sim::Time at, Action action) {
    const std::uint64_t id = next_id_++;
    heap_.push(Entry{at, id});
    actions_.emplace(id, std::move(action));
    ++live_count_;
    return id;
  }

  void cancel(std::uint64_t id) {
    const auto it = actions_.find(id);
    if (it == actions_.end()) return;
    actions_.erase(it);
    cancelled_.insert(id);
    --live_count_;
  }

  [[nodiscard]] bool empty() {
    drop_cancelled_head();
    return heap_.empty();
  }

  Action pop(sim::Time& fired_at) {
    drop_cancelled_head();
    const Entry entry = heap_.top();
    heap_.pop();
    fired_at = entry.at;
    const auto it = actions_.find(entry.id);
    Action action = std::move(it->second);
    actions_.erase(it);
    --live_count_;
    return action;
  }

  [[nodiscard]] std::size_t size() const { return live_count_; }

 private:
  struct Entry {
    sim::Time at;
    std::uint64_t id;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return id > other.id;
    }
  };

  void drop_cancelled_head() {
    while (!heap_.empty()) {
      const auto it = cancelled_.find(heap_.top().id);
      if (it == cancelled_.end()) break;
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<std::uint64_t, Action> actions_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t next_id_ = 1;
  std::size_t live_count_ = 0;
};

// ---------------------------------------------------------------------------
// Churn workload, identical for both queues. Sized like an n-node cell:
// ~16 delivery timers in flight per node, spread over network latencies
// (0.1–20 ms), so sim time advances ~20ms/in_flight per event — the same
// event density a real cell has. Every event also arms a 5 s commit
// timeout; a commit "arrives" ~64 events later (well under a millisecond
// of sim time) and beats the timeout 99% of the time. The lazy design
// then keeps the beaten timeout's heap entry plus a cancelled-set entry
// for the *remaining ~5 s of sim time* — at n=1000 density that is
// millions of events, i.e. effectively until sim end. That garbage is
// what pushes the legacy heap out of cache; eager cancellation never
// accumulates it. All randomness is pre-drawn outside the timed loop so
// both queues execute the identical schedule/cancel/pop sequence and the
// timer measures queue work, not rng work.
//
// The callable carries five words of capture — what a Process::set_timer
// wrapper actually costs (this + the user lambda's own this + ids) —
// which overflows std::function's 16-byte inline buffer but fits
// InlineAction's 64-byte one, exactly the asymmetry the production
// timers hit.
struct ChurnResult {
  double events_per_s = 0.0;
  std::uint64_t pops = 0;
};

volatile std::uint64_t g_sink = 0;

template <typename Queue>
ChurnResult run_churn(std::size_t n, std::uint64_t ops) {
  Queue queue;
  sim::Rng rng(0x5CA1Eull + n);
  sim::Time now{0};
  const std::size_t in_flight = 16 * n + 64;
  constexpr std::int64_t kTimeoutUs = 5'000'000;  // 5 s commit timeout
  constexpr std::size_t kCommitLag = 64;          // events until commit
  const auto payload = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t c = a + b, d = a ^ b, e = a * 31 + b;
    return [a, b, c, d, e] { g_sink = a ^ b ^ c ^ d ^ e; };
  };
  // Pre-draw the delivery latencies and commit/timeout coin flips.
  std::vector<std::int64_t> delay(ops);
  std::vector<std::uint8_t> commit_beats(ops);
  for (std::uint64_t op = 0; op < ops; ++op) {
    delay[op] = 100 + static_cast<std::int64_t>(rng.uniform() * 2e4);
    commit_beats[op] = rng.uniform() < 0.99 ? 1 : 0;
  }
  std::vector<std::uint64_t> pending;  // armed commit timeouts, FIFO
  pending.reserve(ops + 1);
  std::size_t pending_head = 0;
  for (std::size_t i = 0; i < in_flight; ++i) {
    queue.schedule(now + sim::Duration{delay[i % ops]}, payload(i, i + 1));
  }
  core::WallTimer timer;
  std::uint64_t pops = 0;
  for (std::uint64_t op = 0; op < ops; ++op) {
    sim::Time fired{0};
    auto action = queue.pop(fired);
    now = fired;
    action();
    ++pops;
    // Replacement delivery keeps the live population stable.
    queue.schedule(now + sim::Duration{delay[op]}, payload(op, pops));
    // Arm this transaction's commit timeout.
    pending.push_back(
        queue.schedule(now + sim::Duration{kTimeoutUs}, payload(op, 0xDEAD)));
    // The commit for the transaction from kCommitLag events ago arrives:
    // usually it beats its timeout and cancels it; the rest fire on their
    // own when sim time reaches them (popped like any other event above).
    if (pending.size() - pending_head > kCommitLag) {
      const std::uint64_t beaten = pending[pending_head++];
      if (commit_beats[op]) queue.cancel(beaten);
    }
  }
  ChurnResult result;
  result.pops = pops;
  result.events_per_s =
      static_cast<double>(pops) / (timer.elapsed_ms() / 1e3);
  return result;
}

// ---------------------------------------------------------------------------
// Full-simulation cells.
struct CellResult {
  std::size_t n = 0;
  long sim_s = 0;
  std::uint64_t events = 0;
  double events_per_s = 0.0;
  double tx_per_s = 0.0;
  std::uint64_t committed = 0;
  double peak_rss_mb = 0.0;
};

// Per-cell peak RSS: the process-wide ru_maxrss never falls, so after the
// queue layer every cell would report the churn run's high-water mark.
// Writing 5 to /proc/self/clear_refs resets VmHWM to the current RSS
// (Linux); the cell's peak is VmHWM after it ran. malloc_trim() first
// hands the heap the churn layer and earlier cells freed back to the OS,
// so the current RSS the reset starts from is the live footprint only.
void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
}

double peak_rss_mb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // no procfs
}

CellResult run_cell(std::size_t n, long sim_s) {
  core::ExperimentConfig config;
  config.chain = core::ChainKind::kRedbelly;
  config.fault = core::FaultType::kNone;
  config.n = n;
  config.clients = 4;
  config.seed = 42;
  config.duration = sim::sec(sim_s);
  reset_peak_rss();
  core::WallTimer timer;
  const core::ExperimentResult result = core::run_experiment(config);
  const double wall_s = timer.elapsed_ms() / 1e3;
  CellResult cell;
  cell.n = n;
  cell.sim_s = sim_s;
  cell.events = result.events;
  cell.events_per_s = static_cast<double>(result.events) / wall_s;
  cell.tx_per_s = static_cast<double>(result.committed) / wall_s;
  cell.committed = result.committed;
  cell.peak_rss_mb = peak_rss_mb();
  return cell;
}

// ---------------------------------------------------------------------------
struct QueueRow {
  std::size_t n = 0;
  double legacy_events_per_s = 0.0;
  double pooled_events_per_s = 0.0;
};

std::string to_json(const std::vector<QueueRow>& queue_rows,
                    const std::vector<CellResult>& cells) {
  std::ostringstream out;
  out << "{\"queue\":[";
  for (std::size_t i = 0; i < queue_rows.size(); ++i) {
    const QueueRow& row = queue_rows[i];
    if (i > 0) out << ',';
    out << "{\"n\":" << row.n << ",\"legacy_events_per_s\":"
        << core::Table::num(row.legacy_events_per_s, 0)
        << ",\"pooled_events_per_s\":"
        << core::Table::num(row.pooled_events_per_s, 0) << ",\"speedup\":"
        << core::Table::num(
               row.pooled_events_per_s / row.legacy_events_per_s, 2)
        << '}';
  }
  out << "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    if (i > 0) out << ',';
    out << "{\"n\":" << cell.n << ",\"sim_s\":" << cell.sim_s
        << ",\"events\":" << cell.events << ",\"events_per_s\":"
        << core::Table::num(cell.events_per_s, 0) << ",\"tx_per_s\":"
        << core::Table::num(cell.tx_per_s, 1)
        << ",\"committed\":" << cell.committed << ",\"peak_rss_mb\":"
        << core::Table::num(cell.peak_rss_mb, 1) << '}';
  }
  out << "]}";
  return out.str();
}

/// Gate: every node count present in both the baseline and this run must
/// keep pooled-queue events/s within 10% of the recorded value, and keep
/// the legacy-vs-pooled speedup within 30% of the recorded ratio. The
/// first catches absolute regressions on a comparable machine; the second
/// is machine-independent (both queues run in the same process), so it
/// still bites when CI hardware changes under the checked-in baseline.
/// The checked-in baseline is a *low-water mark* across repeated clean
/// runs, not a single run's numbers: even best-of-3 absolute throughput
/// swings ~15% run to run, and a gate hung off one (possibly lucky) run
/// would flake. A real regression — the pooled queue falling back to
/// legacy behaviour — lands 4-6x below the floor, far outside either
/// tolerance.
bool check_baseline(const std::string& path,
                    const std::vector<QueueRow>& rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "micro_scale: cannot read baseline %s\n",
                 path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  core::JsonCursor cursor(text);
  cursor.expect('{');
  if (cursor.parse_string() != "queue") cursor.fail("expected \"queue\"");
  cursor.expect(':');
  cursor.expect('[');
  bool ok = true;
  if (!cursor.consume(']')) {
    do {
      cursor.expect('{');
      std::size_t n = 0;
      double pooled = 0.0;
      double speedup = 0.0;
      do {
        const std::string key = cursor.parse_string();
        cursor.expect(':');
        const double value = cursor.parse_number();
        if (key == "n") n = static_cast<std::size_t>(value);
        if (key == "pooled_events_per_s") pooled = value;
        if (key == "speedup") speedup = value;
      } while (cursor.consume(','));
      cursor.expect('}');
      for (const QueueRow& row : rows) {
        if (row.n != n) continue;
        if (row.pooled_events_per_s < 0.9 * pooled) {
          std::fprintf(stderr,
                       "micro_scale: REGRESSION at n=%zu: %.0f events/s "
                       "< 90%% of baseline %.0f\n",
                       n, row.pooled_events_per_s, pooled);
          ok = false;
        }
        // The ratio swings ~20% run to run (it divides two noisy
        // measurements), so gate it at 70%: loose enough for load noise,
        // tight enough to catch the pooled queue losing its advantage.
        const double ratio =
            row.pooled_events_per_s / row.legacy_events_per_s;
        if (speedup > 0.0 && ratio < 0.7 * speedup) {
          std::fprintf(stderr,
                       "micro_scale: REGRESSION at n=%zu: speedup %.2fx "
                       "< 70%% of baseline %.2fx\n",
                       n, ratio, speedup);
          ok = false;
        }
      }
    } while (cursor.consume(','));
    cursor.expect(']');
  }
  // The trailing "cells" section is informational; no need to walk it.
  return ok;
}

}  // namespace

int main() {
  std::size_t max_n = 1000;
  if (const char* env = std::getenv("STABL_SCALE_MAX_N")) {
    const long v = std::atol(env);
    if (v >= 4) max_n = static_cast<std::size_t>(v);
  }
  const std::size_t kNodeCounts[] = {4, 16, 64, 250, 1000};

  std::printf("=== queue churn: legacy vs pooled (events/s) ===\n");
  core::Table queue_table(
      {"n", "legacy ev/s", "pooled ev/s", "speedup"});
  std::vector<QueueRow> queue_rows;
  for (const std::size_t n : kNodeCounts) {
    if (n > max_n) break;
    // Run past the lazy design's steady state: cancelled-timeout garbage
    // persists for the 5 s timeout horizon, which at this cell's event
    // density (~20 ms of latency spread across 16n in-flight deliveries)
    // is ~in_flight * 500 pops. Shorter runs understate the old cost.
    const std::size_t in_flight = 16 * n + 64;
    const std::uint64_t horizon_pops = in_flight * 500;
    const std::uint64_t ops =
        std::max<std::uint64_t>(3'000'000, horizon_pops + horizon_pops / 2);
    QueueRow row;
    row.n = n;
    // Best-of-3 per queue: the trace is identical every repetition, so
    // the max filters scheduler/allocator noise out of the CI gate the
    // same way micro_trace_overhead's best-of-5 does.
    for (int rep = 0; rep < 3; ++rep) {
      row.legacy_events_per_s =
          std::max(row.legacy_events_per_s,
                   run_churn<LegacyQueue>(n, ops).events_per_s);
      row.pooled_events_per_s =
          std::max(row.pooled_events_per_s,
                   run_churn<sim::EventQueue>(n, ops).events_per_s);
    }
    queue_rows.push_back(row);
    queue_table.add_row(
        {std::to_string(n), core::Table::num(row.legacy_events_per_s, 0),
         core::Table::num(row.pooled_events_per_s, 0),
         core::Table::num(row.pooled_events_per_s / row.legacy_events_per_s,
                          2) +
             "x"});
  }
  std::printf("%s", queue_table.to_string().c_str());

  const char* skip_cells = std::getenv("STABL_SCALE_SKIP_CELLS");
  std::printf("\n=== full cells: redbelly, 4 clients (per node count) ===\n");
  core::Table cell_table({"n", "sim_s", "events", "events/s", "tx/s",
                          "committed", "peak_rss_mb"});
  std::vector<CellResult> cells;
  for (const std::size_t n : kNodeCounts) {
    if (n > max_n) break;
    if (skip_cells != nullptr && skip_cells[0] == '1') break;
    const long sim_s = n <= 64 ? 30 : (n <= 250 ? 10 : 5);
    const CellResult cell = run_cell(n, sim_s);
    cells.push_back(cell);
    cell_table.add_row({std::to_string(n), std::to_string(sim_s),
                        std::to_string(cell.events),
                        core::Table::num(cell.events_per_s, 0),
                        core::Table::num(cell.tx_per_s, 1),
                        std::to_string(cell.committed),
                        core::Table::num(cell.peak_rss_mb, 1)});
  }
  std::printf("%s", cell_table.to_string().c_str());

  const std::string json = to_json(queue_rows, cells);
  if (const char* path = std::getenv("STABL_SCALE_JSON")) {
    std::ofstream out(path);
    out << json << '\n';
    std::printf("\nwrote %s\n", path);
  }
  if (const char* baseline = std::getenv("STABL_SCALE_BASELINE")) {
    if (!check_baseline(baseline, queue_rows)) return 1;
    std::printf("baseline check passed (%s)\n", baseline);
  }
  return 0;
}
