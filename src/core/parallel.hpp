// `run_grid`, the one deterministic fan-out for cell grids (campaign
// cells, mitigation pairs, chaos trials, attribution twins; DESIGN.md §9),
// over a small work-stealing-free thread pool. Workers pull indexes from
// one shared cursor and the caller participates as a lane, so `jobs = 1`
// spawns no threads and is exactly the serial loop. Each cell writes only
// its own index-addressed slot; gathering by index is what keeps parallel
// output byte-identical to serial output.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace stabl::core {

/// Lanes to use by default: the hardware concurrency, at least 1.
unsigned default_jobs();

/// Wall-clock campaign progress reporter: "label: done/total cells
/// (pct) | rate cells/s | ETA", written to stderr as a carriage-return
/// line so multi-thousand-cell campaigns are not silent. Strictly a
/// human-facing side channel: output is wall-clock dependent and NEVER
/// part of any deterministic serializer (the same exclusion discipline as
/// ChaosTrial::wall_ms). Thread-safe — campaign workers tick it from pool
/// lanes; updates are rate-limited to one line per 250 ms of wall time,
/// plus a final newline-terminated line at completion.
class Heartbeat {
 public:
  /// A disabled heartbeat (enabled = false) makes tick() a no-op, so
  /// campaign code can tick unconditionally and drivers decide once
  /// (typically `isatty(stderr)` or an explicit flag).
  Heartbeat(std::string label, std::size_t total, bool enabled);
  ~Heartbeat();  ///< finishes the line if anything was printed

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// One unit of work finished.
  void tick();

 private:
  void print(std::size_t done, bool final_line);

  const std::string label_;
  const std::size_t total_;
  const bool enabled_;
  const std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
  std::size_t done_ = 0;
  std::chrono::steady_clock::time_point last_print_;
  bool printed_ = false;
};

class ThreadPool {
 public:
  /// `jobs` is the total number of lanes including the calling thread;
  /// values < 1 are clamped to 1 (serial, no threads spawned).
  explicit ThreadPool(unsigned jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned jobs() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Run body(i) for every i in [0, count), fanned across all lanes;
  /// blocks until every index completed. The first exception thrown by any
  /// body is rethrown here (remaining indexes are skipped best-effort).
  /// Reusable: parallel_for may be called repeatedly on the same pool, but
  /// not concurrently from several threads.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void drain();  // pull indexes until the cursor passes count_

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new batch
  std::condition_variable done_cv_;   // caller waits for workers to finish
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;      // next index to hand out (guarded by mutex_)
  std::size_t active_ = 0;      // workers still inside the current batch
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  bool failed_ = false;         // short-circuits remaining indexes
  std::exception_ptr error_;
};

/// What run_grid hands back: one result per cell, in cell order.
template <typename Result>
struct GridResult {
  /// slots[i] is fn(cells[i]).
  std::vector<Result> slots;
  /// Wall-clock milliseconds fn(cells[i]) took. Harness profiling only:
  /// machine- and jobs-dependent, so never part of a deterministic
  /// serializer.
  std::vector<double> wall_ms;
};

/// Untyped core of run_grid: run_cell(i) for every i in [0, count), then
/// on_done(i) behind one mutex; returns each run_cell(i)'s wall-clock ms.
std::vector<double> run_grid_indexed(
    std::size_t count, unsigned jobs, const std::string& label,
    bool heartbeat, const std::function<void(std::size_t)>& run_cell,
    const std::function<void(std::size_t)>& on_done);

/// Evaluate fn(cell) for every cell on `jobs` lanes and return the results
/// in cell order, whatever order the cells finish in. on_done(cell,
/// result), when set, runs once per finished cell, never concurrently,
/// in completion order. `label` names the stderr Heartbeat, enabled by
/// `heartbeat`. The first exception thrown by fn is rethrown here. The
/// only code that builds a ThreadPool.
template <typename Cell, typename Fn,
          typename Result = std::decay_t<std::invoke_result_t<Fn&, const Cell&>>>
GridResult<Result> run_grid(
    const std::vector<Cell>& cells, unsigned jobs, const std::string& label,
    bool heartbeat, Fn&& fn,
    const std::type_identity_t<std::function<void(const Cell&, const Result&)>>&
        on_done = {}) {
  GridResult<Result> grid;
  grid.slots.resize(cells.size());
  grid.wall_ms = run_grid_indexed(
      cells.size(), jobs, label, heartbeat,
      [&](std::size_t i) { grid.slots[i] = fn(cells[i]); },
      [&](std::size_t i) {
        if (on_done) on_done(cells[i], grid.slots[i]);
      });
  return grid;
}

}  // namespace stabl::core
