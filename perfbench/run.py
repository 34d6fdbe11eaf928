#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check it, print metrics.

    python3 perfbench/run.py --workload serve_1m --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, untraced
                                                  # and traced, default seeds
    python3 perfbench/run.py --record-reference   # rewrite reference.json

Run it from the repository root. It builds perfbench_bin (perfbench/
CMakeLists.txt, Release + LTO) into $CARGO_TARGET_DIR or .bench_build,
runs the workload in its own process for --seconds of host time, checks the
outcome-level outputs (perfbench/reference.json at the default seeds,
self-consistency at any seed), and prints a report followed, as the last
line, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for what each workload and metric means.

Exit status: 0 when every check passed; 1 when a check failed (the result
line is still printed); 2 when the benchmark could not run at all (no
sources, build failure, crash), with no result line.
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Default seed per workload: the seed its reference values were recorded at
# (the seeds fleet_scale, resilience_campaign and sweep_campaign use).
WORKLOADS = {"serve_1m": 3, "fault_grid": 1, "raid_sweep": 101}
DEFAULT_SECONDS = 40

END_TO_END = {
    "setup_s": "s",
    "sim_ops_per_s": "1/s",
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

RESILIENCE_GROUPS = ("clean", "gray", "correlated", "retrystorm",
                     "none", "budget", "rejuvenation", "eviction", "nmr")

PER_LAYER = {
    # serve_1m, traced run: host time per public call class.
    "fleet.fill_s": "s",
    "cluster.issue_s": "s",
    "cluster.issue_ns_per_op": "ns",
    "simcore.run_s": "s",
    "simcore.host_ns_per_event": "ns",
    "cluster.drain_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "trace.valid": "count",
    # serve_1m, getters after the untraced run.
    "simcore.events_per_op": "count",
    "cluster.admission.admitted": "count",
    "cluster.admission.rejected": "count",
    "cluster.shed_ratio": "ratio",
    "cluster.shard.rebalances": "count",
    "cluster.ejections": "count",
    "cluster.reweights": "count",
    "devices.switch.delivered_mb": "MB",
    "devices.switch.stalls": "count",
    "devices.switch.p99_delivery_ms": "ms",
    "devices.node.tasks": "count",
    "devices.node.p99_task_ms": "ms",
    "cluster.slo.p99_ms": "ms",
    "cluster.slo.goodput_per_s": "1/s",
    # fault_grid.
    **{f"resilience.cell_ms.{g}": "ms" for g in RESILIENCE_GROUPS},
    "resilience.scorecard_s": "s",
    "cluster.retry.retries": "count",
    "cluster.retry.denied_budget": "count",
    "cluster.recovery.crashes": "count",
    "cluster.recovery.recoveries": "count",
    "cluster.nmr.ack_ratio": "ratio",
    "resilience.rejuvenations": "count",
    "resilience.evictions": "count",
    "obs.live.gray_exposure_s": "s",
    "obs.detector.detected": "count",
    "obs.detector.missed": "count",
    # raid_sweep.
    "devices.disk.setup_ms": "ms",
    "raid.issue_ms": "ms",
    "simcore.run_ms": "ms",
    "harness.busy_share": "ratio",
    "raid.closed_form_err_max": "ratio",
    "devices.disk.blocks": "count",
    "simcore.events_per_cell": "count",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SHAPE_TOLERANCE = 0.20  # sweep_campaign's closed-form tolerance
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


# ---------------------------------------------------------------- statistics

def median(values):
    return quantile(values, 0.5)


def quantile(values, q):
    """Linear interpolation between closest ranks; 0.0 for no samples."""
    xs = sorted(values)
    if not xs:
        return 0.0
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def samples_beyond(n, pct):
    """Samples strictly above the pct-th percentile rank of n samples."""
    tenths = round(pct * 10)
    return n - (-(-tenths * n // 1000))


def tail_percentile(n):
    """Highest reportable percentile: at least ten samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= 10:
            return pct
    return None


def valid_metric_name(name):
    return bool(NAME_RE.match(name))


def self_times(spans):
    """Per span id: busy time minus the part its children cover.

    Exact children (calls == 1) cover the union of their intervals, clipped
    to the parent; aggregate children (calls > 1) stand for calls made one
    after another inside the parent, so they cover their busy time.
    """
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        intervals = []
        for k in kids.get(s["id"], ()):
            if k["calls"] > 1:
                covered += k["busy_ns"]
            else:
                lo = max(k["start_ns"], s["start_ns"])
                hi = min(k["end_ns"], s["end_ns"])
                if hi > lo:
                    intervals.append((lo, hi))
        end = None
        for lo, hi in sorted(intervals):
            if end is None or lo > end:
                covered += hi - lo
                end = hi
            elif hi > end:
                covered += hi - end
                end = hi
        out[s["id"]] = max(0, s["busy_ns"] - covered)
    return out


# --------------------------------------------------------------- comparators

def check_equal(label, got, want):
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def check_fields(label, got, want, fields):
    errs = []
    for f in fields:
        errs += check_equal(f"{label}.{f}", got.get(f), want.get(f))
    return errs


def check_within(label, got, want, rel_tol):
    if want == 0 or not math.isfinite(got):
        return check_equal(label, got, want)
    err = abs(got - want) / abs(want)
    if err <= rel_tol:
        return []
    return [f"{label}: {got:.4f} vs closed form {want:.4f} "
            f"(error {err:.3f} > {rel_tol})"]


# ------------------------------------------------------------------- serve_1m

SERVE_OUTCOME = ("ops_issued", "reads_issued", "writes_issued", "ops_ok",
                 "ops_failed", "client_digest", "slo_report")


def check_serve(raw, ref):
    """Returns (attempted ops, failed ops, failures, traced cells valid)."""
    cells = raw["outputs"]["cells"]
    untraced = [c for c in cells if not c["traced"]]
    traced = [c for c in cells if c["traced"]]
    want = ref if ref is not None else untraced[0]
    failures, failed = [], 0
    for i, c in enumerate(untraced):
        slo = json.loads(c["slo_report"])
        errs = check_equal("issued = ok + failed", c["ops_issued"],
                           c["ops_ok"] + c["ops_failed"])
        errs += check_equal("reads only", c["writes_issued"], 0)
        errs += check_equal("slo arrivals", slo["arrivals"], c["ops_issued"])
        errs += check_equal("slo acks", slo["acks"], c["ops_ok"])
        errs += check_equal("slo shed+errors", slo["shed"] + slo["errors"],
                            c["ops_failed"])
        errs += check_fields(f"cell {i}", c, want, SERVE_OUTCOME)
        if errs:
            failed += c["ops_issued"]
            failures += errs
    attempted = sum(c["ops_issued"] for c in untraced)
    valid = all(not check_fields("traced", t, untraced[0], SERVE_OUTCOME)
                for t in traced)
    return attempted, failed, failures, valid


def serve_layers(raw, trace_valid):
    cells = raw["outputs"]["cells"]
    traced = [c for c in cells if c["traced"]]
    untraced = [c for c in cells if not c["traced"]]
    if not traced:
        return {}
    layer = {k: median([c[k] for c in traced])
             for k in ("fleet.fill_s", "cluster.issue_s", "simcore.run_s",
                       "cluster.drain_s")}
    ops = traced[0]["ops_issued"]
    events = traced[0]["events"]
    wall_t = median([c["setup_s"] + c["run_s"] for c in traced])
    wall_u = median([c["setup_s"] + c["run_s"] for c in untraced])
    covered = median([sum(c[k] for k in layer) / c["run_s"] for c in traced])
    layer.update({
        "cluster.issue_ns_per_op": layer["cluster.issue_s"] * 1e9 / ops,
        "simcore.host_ns_per_event": layer["simcore.run_s"] * 1e9 / events,
        "trace.overhead_pct": (wall_t / wall_u - 1.0) * 100.0,
        "trace.coverage_pct": covered * 100.0,
        "trace.valid": 1 if trace_valid else 0,
    })
    return layer


# ----------------------------------------------------------------- fault_grid

FAULT_OUTCOME = ("ok", "violations", "goodput_per_sec", "retries",
                 "denied_budget", "retry_tokens", "gray_exposure_s", "faults",
                 "detected", "missed", "crashes", "recoveries", "lost_acked",
                 "under_replicated", "rejuvenations", "evictions", "restores",
                 "nmr_reads", "nmr_acks", "storm", "pre_storm_rate",
                 "post_storm_rate", "collapsed")


def fault_cell_errors(c):
    """Invariant verdicts and pattern gating every cell must satisfy."""
    label = f"{c['scenario']}/{c['pattern']}/seed {c['seed']}"
    pat = c["pattern"]
    errs = check_equal(f"{label} ok", c["ok"], True)
    errs += check_equal(f"{label} violations", c["violations"], 0)
    errs += check_equal(f"{label} lost_acked", c["lost_acked"], 0)
    errs += check_equal(f"{label} under_replicated", c["under_replicated"], 0)
    errs += check_equal(f"{label} detected+missed", c["detected"] + c["missed"],
                        c["faults"])
    if c["nmr_acks"] > c["nmr_reads"]:
        errs.append(f"{label}: nmr_acks {c['nmr_acks']} > nmr_reads "
                    f"{c['nmr_reads']}")
    if pat != "nmr":
        errs += check_equal(f"{label} nmr_reads", c["nmr_reads"], 0)
    if pat != "rejuvenation":
        errs += check_equal(f"{label} rejuvenations", c["rejuvenations"], 0)
    if pat != "eviction":
        errs += check_equal(f"{label} evictions", c["evictions"], 0)
    if pat == "none":
        errs += check_equal(f"{label} denied_budget (budget off)",
                            c["denied_budget"], 0)
    if pat == "budget" and c["storm"]:
        errs += check_equal(f"{label} budget-on storm collapsed",
                            c["collapsed"], False)
    return errs


def check_fault(raw, ref):
    cells = raw["outputs"]["cells"]
    grid_seeds = raw["outputs"]["grid_seeds"]
    refs = {}
    if ref is not None:
        refs = {(r["scenario"], r["pattern"], r["seed"]): r
                for r in ref["cells"]}
    first = {}
    failures, failed = [], 0
    for c in cells:
        key = (c["scenario"], c["pattern"], c["seed"])
        errs = fault_cell_errors(c)
        if key in first:
            errs += check_fields(f"repeat {key}", c, first[key], FAULT_OUTCOME)
        else:
            first[key] = c
        if key in refs:
            errs += check_fields(f"reference {key}", c, refs[key],
                                 FAULT_OUTCOME)
        if errs:
            failed += 1
            failures += errs
    grid = [c for c in cells if c["pass"] < grid_seeds]
    global_errs = check_equal("grid cells", len(grid), 20 * grid_seeds)
    global_errs += check_equal("scorecard violations",
                               raw["outputs"]["scorecard_violations"], 0)
    global_errs += check_equal("scorecard exported",
                               raw["outputs"]["scorecard_bytes"] > 0, True)
    none_storms = [c for c in grid if c["pattern"] == "none" and c["storm"]]
    collapsed = sum(1 for c in none_storms if c["collapsed"])
    if ref is not None:
        # The metastable demo: at least three quarters of the unbraked storm
        # cells collapse (a mild drawn trigger legitimately recovers, so this
        # is checked at the reference seed only).
        need = (3 * len(none_storms) + 3) // 4
        if collapsed < need:
            global_errs.append(f"metastable demo: {collapsed}/"
                               f"{len(none_storms)} budget-off storm cells "
                               f"collapsed, need {need}")
    if global_errs:
        failed = len(cells)
        failures += global_errs
    return len(cells), failed, failures, (collapsed, len(none_storms))


def fault_layers(raw):
    cells = raw["outputs"]["cells"]
    grid = [c for c in cells if c["pass"] < raw["outputs"]["grid_seeds"]]
    layer = {}
    for g in RESILIENCE_GROUPS:
        layer[f"resilience.cell_ms.{g}"] = median(
            [c["ms"] for c in cells if g in (c["scenario"], c["pattern"])])
    nmr_reads = sum(c["nmr_reads"] for c in grid)
    layer.update({
        "cluster.retry.retries": sum(c["retries"] for c in grid),
        "cluster.retry.denied_budget": sum(c["denied_budget"] for c in grid),
        "cluster.recovery.crashes": sum(c["crashes"] for c in grid),
        "cluster.recovery.recoveries": sum(c["recoveries"] for c in grid),
        "cluster.nmr.ack_ratio": (sum(c["nmr_acks"] for c in grid) / nmr_reads
                                  if nmr_reads else 0.0),
        "resilience.rejuvenations": sum(c["rejuvenations"] for c in grid),
        "resilience.evictions": sum(c["evictions"] for c in grid),
        "obs.live.gray_exposure_s": sum(c["gray_exposure_s"] for c in grid),
        "obs.detector.detected": sum(c["detected"] for c in grid),
        "obs.detector.missed": sum(c["missed"] for c in grid),
    })
    return layer


# ----------------------------------------------------------------- raid_sweep

def closed_form(striper, ratio_pct, pairs, bandwidth):
    """Section 3.2: static N*b; proportional/adaptive (N-1)*B + b."""
    b = bandwidth * ratio_pct / 100.0
    return pairs * b if striper == "static" else (pairs - 1) * bandwidth + b


def raid_shape(outputs):
    """Per-config mean MB/s over seeds against the closed forms."""
    groups = {}
    for c in outputs["cells"]:
        groups.setdefault((c["striper"], c["ratio_pct"]), []).append(c["mbps"])
    rows = []
    for (striper, ratio), vals in groups.items():
        mean = sum(vals) / len(vals)
        want = closed_form(striper, ratio, outputs["pairs"],
                           outputs["bandwidth_mbps"])
        rows.append((f"{striper}@{ratio / 100:.2f}", mean, want))
    return rows


def check_raid(raw, ref):
    out = raw["outputs"]
    digests = out["mbps_digests"]
    cells_per_pass = len(out["cells"])
    attempted = cells_per_pass * len(digests)
    failures, failed = [], 0
    for i, d in enumerate(digests):
        errs = check_equal(f"pass {i} MB/s digest", d, digests[0])
        if errs:
            failed += cells_per_pass
            failures += errs
    cell_errs = []
    for i, c in enumerate(out["cells"]):
        label = f"{c['striper']}@{c['ratio_pct']:g}/seed {c['seed']}"
        errs = check_equal(f"{label} blocks", c["blocks"], 2000)
        if not (math.isfinite(c["mbps"]) and c["mbps"] > 0):
            errs.append(f"{label}: MB/s {c['mbps']!r}")
        if ref is not None:
            errs += check_fields(f"reference {label}", c, ref["cells"][i],
                                 ("striper", "ratio_pct", "seed", "mbps"))
        cell_errs += errs
    for label, mean, want in raid_shape(out):
        cell_errs += check_within(label, mean, want, SHAPE_TOLERANCE)
    if cell_errs:
        # Every pass repeats pass 0, so a bad pass-0 cell is bad in all.
        failed = attempted
        failures += cell_errs
    return attempted, failed, failures, None


def raid_layers(raw):
    err = max(abs(mean - want) / want for _, mean, want in
              raid_shape(raw["outputs"]))
    return {"raid.closed_form_err_max": err}


# ------------------------------------------------------------------- metrics

CHECKS = {"serve_1m": check_serve, "fault_grid": check_fault,
          "raid_sweep": check_raid}


def fastest_time(times, segments):
    """The fastest of one key's repeats of identical work.

    When every repeat is split into the same number of segments (the same
    work in the same order), it is the sum of each segment's fastest repeat,
    so a disturbance that slows only part of each repeat drops out.
    """
    if all(segments) and len({len(s) for s in segments}) == 1:
        return sum(min(column) for column in zip(*segments))
    return min(times)


def fastest_by_key(keys, times, segments):
    """Per key, fastest_time over the repeats under that key."""
    if not segments:
        segments = [[]] * len(times)
    groups = {}
    for k, t, s in zip(keys, times, segments):
        group = groups.setdefault(k, ([], []))
        group[0].append(t)
        group[1].append(s)
    return {k: fastest_time(t, s) for k, (t, s) in groups.items()}


def end_to_end_metrics(raw):
    """Host-time metrics; each pass or cell key repeats identical work.

    Host interference only ever slows a repeat down, so each key's fastest
    repeat (segment by segment where the workload splits its repeats into
    segments) is its least disturbed time. The throughputs divide one full
    set of keyed passes (its ops and cells are the same on every repeat) by
    the sum of the keys' fastest times; the cell percentiles run over the
    distinct cells' fastest times. Set-up is the median over passes.
    """
    passes = raw["passes"]
    first = {}
    for p in passes:
        first.setdefault(p["key"], p)
    pass_s = fastest_by_key([p["key"] for p in passes],
                            [p["host_s"] for p in passes],
                            [p.get("segments_s") for p in passes])
    host_s = sum(pass_s.values())
    cell_ms = list(fastest_by_key(raw["cell_keys"], raw["cell_ms"],
                                  raw.get("cell_segments_ms")).values())
    return {
        "setup_s": median([p["setup_s"] for p in passes]),
        "sim_ops_per_s": sum(p["sim_ops"] for p in first.values()) / host_s,
        "cells_per_s": sum(p["cells"] for p in first.values()) / host_s,
        "cell_ms_p50": quantile(cell_ms, 0.5),
        "cell_ms_p90": quantile(cell_ms, 0.9),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(workload, raw, extra):
    """Every per-layer metric; 0 for layers this workload does not run."""
    values = dict.fromkeys(PER_LAYER, 0)
    values.update(raw["layers"])
    if workload == "serve_1m":
        values.update(serve_layers(raw, extra))
    elif workload == "fault_grid":
        values.update(fault_layers(raw))
    else:
        values.update(raid_layers(raw))
    return values


def with_units(values, units):
    for name in values:
        if not valid_metric_name(name):
            raise BenchError(f"invalid metric name {name!r}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def load_reference(workload, seed):
    try:
        with open(REFERENCE_PATH) as f:
            ref = json.load(f).get(workload)
    except FileNotFoundError:
        return None
    return ref if ref is not None and ref["seed"] == seed else None


# ----------------------------------------------------------------- build/run

def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(deadline):
    """Configures and builds perfbench_bin; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "simcore",
                                       "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    cmake_dir = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(nproc())])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=max(1, deadline - time.time()))
        except (OSError, subprocess.SubprocessError) as e:
            raise BenchError(f"build failed: {e}") from e
    return os.path.join(cmake_dir, "perfbench_bin")


def run_workload(binary, workload, seed, seconds, trace, deadline):
    """Runs the workload process; returns its raw record and spans path."""
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(out_dir, f"{workload}.trace{trace}.raw.json")
    spans_path = os.path.join(out_dir, f"{workload}.spans.json")
    # raid_sweep leaves one CPU to the reference clock (perfbench/README.md).
    workers = max(1, nproc() - 1) if workload == "raid_sweep" else 1
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workers", str(workers), "--out", raw_path]
    if trace:
        cmd += ["--spans", spans_path]
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=max(1, deadline - time.time()))
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"{workload} run failed: {e}") from e
    with open(raw_path) as f:
        return json.load(f), (spans_path if trace else None)


# -------------------------------------------------------------------- report

def report(workload, seed, trace, raw, metrics, failures, spans_path, extra):
    stamp = dict(raw["stamp"], nproc=nproc(), cpu=cpu_model(), seed=seed,
                 workload=workload, trace=trace)
    print(f"== {workload} seed {seed} trace {trace}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    n = len(raw["cell_ms"])
    keys = len(set(raw["cell_keys"]))
    tail = tail_percentile(keys)
    print(f"samples: {len(raw['passes'])} passes, {n} cells over {keys} "
          f"distinct cells (cell_ms percentiles run over the {keys} cells' "
          f"fastest repeat times); highest percentile with >= 10 samples "
          f"beyond it: {'none' if tail is None else f'p{tail:g}'}")
    if workload == "fault_grid":
        collapsed, storms = extra
        print(f"metastable demo: {collapsed}/{storms} budget-off storm cells "
              f"collapsed")
    if workload == "serve_1m" and trace and not extra:
        print("WARNING: traced cells diverged from the untraced run; "
              "per-layer times are invalid (trace.valid = 0)")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>18.6g} {m['unit']}")
    if spans_path:
        with open(spans_path) as f:
            spans = json.load(f)["spans"]
        own = self_times(spans)
        totals = {}
        for s in spans:
            t = totals.setdefault(s["name"], [0, 0, 0])
            t[0] += s["calls"]
            t[1] += s["busy_ns"]
            t[2] += own[s["id"]]
        print(f"trace: {len(spans)} spans in {spans_path}")
        print(f"  {'span':36s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}")
        for name, (calls, busy, self_ns) in sorted(
                totals.items(), key=lambda kv: -kv[1][2])[:16]:
            print(f"  {name:36s} {calls:>10d} {busy / 1e9:>10.4f} "
                  f"{self_ns / 1e9:>10.4f}")
    for msg in failures[:20]:
        print(f"CHECK FAILED: {msg}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more check failures")
    result_path = os.path.join(build_dir(), "results",
                               f"{workload}.trace{trace}.result.json")
    with open(result_path, "w") as f:
        json.dump({"stamp": stamp, "metrics": metrics, "failures": failures,
                   "cells": n, "passes": len(raw["passes"])}, f, indent=1)


def bench_one(binary, workload, seed, seconds, trace, deadline):
    raw, spans_path = run_workload(binary, workload, seed, seconds, trace,
                                   deadline)
    ref = load_reference(workload, seed)
    attempted, failed, failures, extra = CHECKS[workload](raw, ref)
    if trace:
        metrics = with_units(per_layer_metrics(workload, raw, extra),
                             PER_LAYER)
    else:
        metrics = with_units(end_to_end_metrics(raw), END_TO_END)
    report(workload, seed, trace, raw, metrics, failures, spans_path, extra)
    return {"correct": failed == 0 and not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record_reference(binary, deadline):
    ref = {}
    for workload, seed in WORKLOADS.items():
        raw, _ = run_workload(binary, workload, seed, 1, 0, deadline)
        out = raw["outputs"]
        if workload == "serve_1m":
            ref[workload] = {k: out["cells"][0][k] for k in SERVE_OUTCOME}
        elif workload == "fault_grid":
            ref[workload] = {"cells": [
                {k: c[k] for k in ("scenario", "pattern", "seed")
                 + FAULT_OUTCOME}
                for c in out["cells"] if c["pass"] < out["grid_seeds"]]}
        else:
            ref[workload] = {"cells": [
                {k: c[k] for k in ("striper", "ratio_pct", "seed", "mbps")}
                for c in out["cells"]]}
        ref[workload]["seed"] = seed
    with open(REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE_PATH}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the reference seed)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer (default: "
                        "both, in separate runs)")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv):
    args = parse_args(argv)
    start = time.time()
    try:
        binary = build(start + 850)
        if args.record_reference:
            record_reference(binary, time.time() + 600)
            return 0
        workloads = (sorted(WORKLOADS) if args.workload == "all"
                     else [args.workload])
        traces = [0, 1] if args.trace is None else [args.trace]
        results = {}
        for w in workloads:
            seed = WORKLOADS[w] if args.seed is None else args.seed
            for t in traces:
                results[(w, t)] = bench_one(binary, w, seed, args.seconds, t,
                                            time.time() + 175)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m
                             for (w, _), r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
