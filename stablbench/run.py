#!/usr/bin/env python3
"""The repository benchmark: STABL simulator host cost, end to end and per layer.

Run from the root of a source checkout:

    python3 stablbench/run.py --workload repro_grid --seed 7 --seconds 30 --trace 0

Builds the simulator and the measuring process (stablbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/stablbench (default .bench_build/stablbench), times
the workload's set-up in separate processes, runs the measuring process
under a wall-clock and memory budget, checks its deterministic outputs, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split of
a separate traced run. A host fingerprint is printed on the line before,
and the full record is written to <build dir>/results/.

Maintenance modes: --selftest builds and runs the self-tests;
--update-reference rewrites reference/<workload>.json (output digests).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("repro_grid", "large_cluster", "chaos_traffic")

# The seed reference/<workload>.json holds output digests for.
DEFAULT_SEED = 42

# Budget of one measuring process: exceeding either fails the simulations
# it had not finished instead of hanging or being OOM-killed.
WALL_BUDGET_S = 150
MEMORY_BUDGET_MB = 4096

# Set-up is timed in this many separate processes; the median is reported.
SETUP_REPEATS = 31

# (name, unit, better, bound): what a user of the simulator sees.
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MiB", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("sim_ok_rate", "frac", "higher", 0.01),
)

# Mechanism counters the chains report (ExperimentResult::chain_metrics),
# summed over every simulation of the traced run.
CHAIN_COUNTERS = (
    ("duplicate_submissions", "lower"),
    ("equivocations_sent", "lower"),
    ("excluded_leaders", "lower"),
    ("filter_wait_s", "lower"),
    ("height", "higher"),
    ("hot_nonce_stalls", "lower"),
    ("last_rooted_slot", "higher"),
    ("messages_processed", "lower"),
    ("misbehavior_banned", "lower"),
    ("misbehavior_dropped", "lower"),
    ("misbehavior_reports", "lower"),
    ("panicked", "lower"),
    ("pending_forward", "lower"),
    ("round", "lower"),
    ("speculative_aborts", "lower"),
    ("stm_conflict_reexecs", "lower"),
    ("throttled_dropped", "lower"),
    ("throttled_queued", "lower"),
    ("withheld", "lower"),
)

# (name, unit, better): one layer each, from the traced run.
PER_LAYER = (
    ("chain.deliver_s", "s", "lower"),
    ("chain.deliver_us_per_msg", "us", "lower"),
    ("chain.deliver_share", "frac", "lower"),
    ("chain.msgs_in", "count", "lower"),
    ("chain.build_s", "s", "lower"),
    ("chain.blocks", "count", "higher"),
    ("chain.mempool_depth_peak", "count", "lower"),
) + tuple(("chain." + key, "count", better) for key, better in CHAIN_COUNTERS) + (
    ("sim.events", "count", "lower"),
    ("sim.events_per_host_s", "1/s", "higher"),
    ("sim.pending_peak", "count", "lower"),
    ("sim.other_s", "s", "lower"),
    ("sim.host_s_per_sim_s_p50", "s/s", "lower"),
    ("sim.host_s_per_sim_s_max", "s/s", "lower"),
    ("net.sent", "count", "lower"),
    ("net.delivered", "count", "lower"),
    ("net.dropped", "count", "lower"),
    ("net.rst_sent", "count", "lower"),
    ("net.msgs_per_commit", "msg/tx", "lower"),
    ("client.submitted", "count", "higher"),
    ("client.committed", "count", "higher"),
    ("client.commit_frac", "frac", "higher"),
    ("client.in_flight_peak", "count", "lower"),
    ("client.resubmissions", "count", "lower"),
    ("client.failovers", "count", "lower"),
    ("client.timeouts", "count", "lower"),
    ("txn.latency_p50_s", "s", "lower"),
    ("txn.latency_p99_s", "s", "lower"),
    ("txn.submit_mean_s", "s", "lower"),
    ("txn.admission_mean_s", "s", "lower"),
    ("txn.queueing_mean_s", "s", "lower"),
    ("txn.consensus_mean_s", "s", "lower"),
    ("txn.notify_mean_s", "s", "lower"),
    ("campaign.sims", "count", "lower"),
    ("campaign.busy_frac", "frac", "higher"),
    ("campaign.cell_wall_max_s", "s", "lower"),
    ("analysis.score_s", "s", "lower"),
    ("analysis.serialize_s", "s", "lower"),
    ("oracle.audit_s", "s", "lower"),
    ("chaos.trials", "count", "higher"),
    ("chaos.violations", "count", "lower"),
    ("chaos.expected_losses", "count", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
)


def log(message):
    print("stablbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "stablbench")


def build(directory, extra_args=(), target="stablbench"):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("stablbench: simulator sources (src/) not found "
                         "next to stablbench/; run from a source checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory, *extra_args])
    steps.append(["cmake", "--build", directory, "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("stablbench: build failed: " + " ".join(step))
    return os.path.join(directory, target)


def limit_memory():
    limit = MEMORY_BUDGET_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def measure_setup(binary, workload, seed):
    """Median host seconds from process launch to the end of set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [binary, "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            stdout=subprocess.PIPE, text=True, preexec_fn=limit_memory)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or '"setup"' not in line:
            raise SystemExit("stablbench: set-up failed for " + workload)
        samples.append(elapsed)
    return statistics.median(samples)


def run_measuring_process(binary, workload, seed, seconds, trace):
    """Runs the measuring process under the budget; returns its events."""
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            preexec_fn=limit_memory)
    over_budget = False
    try:
        out, _ = proc.communicate(timeout=WALL_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        over_budget = True
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    events = [json.loads(line) for line in out.splitlines()
              if line.startswith("{")]
    return {
        "events": events,
        "returncode": proc.returncode,
        "over_budget": over_budget,
        "wall_s": time.perf_counter() - start,
        "cpu_s": (after.ru_utime + after.ru_stime) -
                 (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }


def load_reference(workload, seed):
    path = os.path.join(HERE, "reference", workload + ".json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f).get(str(seed))


def check_units(units, reference):
    """Failed simulations per unit: a per-simulation digest that differs
    from the reference (or from the first repetition) fails that
    simulation; a differing whole-document digest with no per-simulation
    culprit fails the whole unit."""
    expected = reference or {d[0]: d[1] for d in units[0]["digests"]}
    failures, errors = [], []
    for unit in units:
        sims_failed, docs_failed = 0, False
        for name, hex_digest, sims in unit["digests"]:
            if expected.get(name) == hex_digest:
                continue
            errors.append("rep %d: %s digest %s, expected %s" % (
                unit["rep"], name, hex_digest, expected.get(name)))
            if sims:
                sims_failed += sims
            else:
                docs_failed = True
        if reference is not None and len(reference) != len(unit["digests"]):
            errors.append("rep %d: %d digests, reference has %d" % (
                unit["rep"], len(unit["digests"]), len(reference)))
            docs_failed = True
        if docs_failed and sims_failed == 0:
            sims_failed = unit["sims"]
        failures.append(max(unit["failed"], min(sims_failed, unit["sims"])))
        errors.extend(unit["errors"])
    return failures, errors


def fingerprint(setup_event, loadavg):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "compiler": setup_event.get("compiler"),
        "build_type": setup_event.get("build_type"),
        "commit": commit,
        "source_digest": source_digest(),
        "loadavg": list(loadavg),
    }


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "stablbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    loadavg = os.getloadavg()
    binary = build(build_dir())
    setup_s = measure_setup(binary, args.workload, args.seed)
    run = run_measuring_process(binary, args.workload, args.seed,
                                args.seconds, args.trace)
    events = run["events"]
    setup = next((e for e in events if e.get("event") == "setup"), {})
    units = [e for e in events if e.get("event") == "unit"]
    layers = next((e for e in events if e.get("event") == "layers"), None)
    end = next((e for e in events if e.get("event") == "end"), None)
    unit_sims = setup.get("unit_sims", 1)

    errors = []
    if run["over_budget"]:
        errors.append("over the %d s wall-clock budget" % WALL_BUDGET_S)
    elif run["returncode"] != 0:
        errors.append("measuring process exited with %d (memory budget %d "
                      "MiB)" % (run["returncode"], MEMORY_BUDGET_MB))
    finished = end is not None and run["returncode"] == 0

    metrics = {}
    if args.trace == 0:
        failures, unit_errors = check_units(
            units, load_reference(args.workload, args.seed)) if units else ([], [])
        errors.extend(unit_errors)
        attempted = sum(u["sims"] for u in units)
        failed = sum(failures)
        if not finished:  # the unit in progress when the budget hit
            attempted += unit_sims
            failed += unit_sims
        # A unit that threw was not timed; without any timed unit, fall
        # back to the whole measuring process.
        timed = [u for u in units if u["failed"] < u["sims"]] or [run]
        values = {
            "wall_s": statistics.median(u["wall_s"] for u in timed),
            "cpu_s": statistics.median(u["cpu_s"] for u in timed),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in timed),
            "setup_s": setup_s,
            "sim_ok_rate": 1.0 - failed / attempted,
        }
        for name, unit, _, _ in END_TO_END:
            metrics[name] = metric(values[name], unit)
    else:
        attempted = layers["sims"] if layers else unit_sims
        # One simulation can differ in several replays; count it once.
        failed = min(layers["failed"], attempted) if layers and finished \
            else attempted
        measured = layers["metrics"] if layers else {}
        if layers:
            errors.extend(layers["errors"])
        for name, unit, _ in PER_LAYER:
            if name in measured:
                metrics[name] = metric(measured[name], unit)
            elif name[len("chain."):] in dict(CHAIN_COUNTERS) and layers:
                metrics[name] = metric(0.0, unit)  # counter never fired
            else:
                errors.append("per-layer metric %s not measured" % name)
                metrics[name] = metric(0.0, unit)
        declared = {name for name, _, _ in PER_LAYER}
        for name in sorted(set(measured) - declared):
            log("undeclared per-layer metric %s = %r" % (name, measured[name]))

    correct = failed == 0 and not errors
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    host = fingerprint(setup, loadavg)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  units=[{k: u[k] for k in ("rep", "wall_s", "cpu_s",
                                             "peak_rss_mb", "sims", "failed")}
                         for u in units],
                  errors=errors)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s_seed%d_trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=2)
    for error in errors[:20]:
        log(error)
    print(json.dumps({"fingerprint": host}))
    print(json.dumps(result), flush=True)


def update_reference():
    binary = build(build_dir())
    for workload in WORKLOADS:
        run = run_measuring_process(binary, workload, DEFAULT_SEED, 0, 0)
        units = [e for e in run["events"] if e.get("event") == "unit"]
        if run["returncode"] != 0 or not units or units[0]["failed"]:
            raise SystemExit("stablbench: %s failed" % workload)
        table = {str(DEFAULT_SEED): {d[0]: d[1] for d in units[0]["digests"]}}
        log("%s: %d digests" % (workload, len(units[0]["digests"])))
        os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
        with open(os.path.join(HERE, "reference", workload + ".json"), "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")


def selftest():
    directory = os.path.join(build_dir() + "_selftest")
    binary = build(directory, ("-DSTABLBENCH_TESTS=ON",),
                   target="stablbench_selftest")
    gtest = subprocess.run([binary], stdout=sys.stderr, stderr=sys.stderr)
    sys.path.insert(0, os.path.join(HERE, "tests"))
    import unittest
    import test_contract
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_contract)
    outcome = unittest.TextTestRunner(stream=sys.stderr, verbosity=2).run(suite)
    return 0 if gtest.returncode == 0 and outcome.wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.update_reference:
        update_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
