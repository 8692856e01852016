#!/usr/bin/env python3
"""gridcross benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload drawings --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports gridcross from its
`src/` directory; it builds nothing. Workloads: drawings, random-certify,
enum-small, totient-scan (see workloads.py for why each exists).

With --trace 0 it reports the end-to-end metrics of untraced passes:

* run_cpu_s: median CPU seconds of one pass over the workload's inputs,
  every output checked exactly (see pass_seconds); passes repeat until
  --seconds of wall time are used up.
* setup_s: median over SETUP_PROBES fresh interpreters, spread over the
  run, of the CPU seconds to import gridcross and generate the workload's
  inputs.
* peak_rss_mb: ru_maxrss of this process.

With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics: seconds spent in calls to each public function (spans
workload -> instance -> call, recorded by this benchmark around each call
into gridcross), exact work counts, each layer's self time, and the
tracing overhead (traced minus untraced pass seconds), each the median
over the run's traced passes.

All timings are read on the process CPU clock (see CLOCK), spans included.

The last stdout line is {"correct", "attempted", "failed", "metrics"}:
`attempted` counts instance passes and `failed` those whose outputs missed
an exact check. A record with the exact counts, the environment, the pass
times and (traced) every span is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7  # set-up samples per run
PROBE_TIMEOUT_S = 120
# Every timing of the program is read on this process's CPU clock (user plus
# system seconds). The program is single-threaded and never waits, so on an
# idle machine this equals wall time; on a shared one it leaves out the time
# the process was not running. Only the run's budget uses the wall clock.
CLOCK = time.process_time


def import_gridcross():
    """Put the checkout's src/ first on sys.path; refuse any other gridcross."""
    if not (SRC / "gridcross" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gridcross sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridcross

    if Path(gridcross.__file__).resolve().parent != (SRC / "gridcross").resolve():
        sys.exit(f"perfbench: imported gridcross from {gridcross.__file__}, not {SRC}")
    return gridcross


class Untraced:
    """No spans: `call` is a plain call."""

    def span(self, name, layer="bench"):
        return nullcontext()

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(Untraced):
    """In-memory spans [id, name, layer, parent id, start, end]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, layer="bench"):
        rec = [len(self.spans), name, layer, self._stack[-1] if self._stack else None,
               CLOCK(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[5] = CLOCK()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        with self.span(fn.__name__, fn.__module__.rpartition(".")[2]):
            return fn(*args, **kwargs)


def run_pass(workload, instances, tr):
    """One pass over every instance; returns (CPU seconds, per-instance
    results as (name, outputs, failed checks))."""
    from workloads import RUNNERS

    runner = RUNNERS[workload]
    results = []
    start = CLOCK()
    with tr.span(workload):
        for inst in instances:
            with tr.span(inst.name):
                try:
                    out, failed = runner(inst, tr)
                except Exception:  # a crash is a failed instance, never a timing
                    out, failed = {}, [traceback.format_exc()]
            results.append((inst.name, out, failed))
    return CLOCK() - start, results


def pass_seconds(passes):
    """Median CPU seconds of the passes. The machine this was tuned on (2
    vCPUs of a shared host) speeds up and slows down by up to 1.8x over
    seconds to minutes; the median over the whole run reads the same state
    run after run, where the fastest sample of each call does not."""
    return statistics.median(p[1] for p in passes)


def run_passes(workload, instances, seconds, trace, probe=None):
    """Passes until the next one would overrun `seconds` (at least one).

    Untraced, SETUP_PROBES set-up probes are spread evenly over the run, so
    they sample the same stretch of time as the passes; traced, untraced and
    traced passes alternate, at least one of each. Returns (passes, probe
    samples, wall seconds of each pass).
    """
    passes = []  # (traced, seconds, results, tracer)
    setup = []
    walls = []
    start = time.perf_counter()
    while True:
        if probe and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        traced = trace and len(passes) % 2 == 1
        tr = Tracer() if traced else Untraced()
        gc.collect()  # every pass starts without the previous pass's garbage
        t0 = time.perf_counter()
        secs, results = run_pass(workload, instances, tr)
        walls.append(time.perf_counter() - t0)
        passes.append((traced, secs, results, tr))
        elapsed = time.perf_counter() - start
        if (not trace or len(passes) >= 2) and elapsed + statistics.median(walls) > seconds:
            break
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return passes, setup, walls


def probe_setup(workload, seed):
    """One setup_s sample from a fresh interpreter running setup_probe.py."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# --- per-layer metrics -------------------------------------------------------

CALL_METRICS = {
    "validate_proper": "graph.validate_proper_s",
    "count_crossings_pruned": "counting.pruned_s",
    "count_crossings_naive": "counting.naive_s",
    "lower_bound_essential_pgrid": "bounds.essential_pgrid_s",
    "lower_bound_midpoint_bucket": "bounds.midpoint_s",
    "build_conflict_graph": "enumeration.conflict_graph_s",
    "count_crossing_free_subgraphs": "enumeration.subgraphs_s",
    "count_crossing_free_matchings": "enumeration.matchings_s",
    "max_crossing_free_edges": "enumeration.mis_s",
    "count_crossing_free_spanning_trees": "enumeration.trees_s",
    "totient_sieve": "totients.sieve_s",
    "verify_totient_inequalities": "totients.verify_s",
    "totient_sums": "totients.sums_s",
}
PER_INSTANCE_PRUNED = ("layered-k6-d3", "layered-k3-d4", "tiled-k4-s8-d3")
SELF_LAYERS = ("graph", "counting", "bounds", "enumeration", "totients", "bench")
PASS_COUNTS = ("graph.edge_vertex_pairs", "counting.pruned_calls", "counting.pairs",
               "counting.crossings", "bounds.pgrid_incidence", "enumeration.candidates",
               "enumeration.conflicts")


def span_times(spans):
    """Per-layer seconds of one traced pass: call totals and self times."""
    child = {}
    for _, _, _, parent, t0, t1 in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    names = {s[0]: s[1] for s in spans}
    out = {name: 0.0 for name in CALL_METRICS.values()}
    out.update({f"counting.pruned_s.{n}": 0.0 for n in PER_INSTANCE_PRUNED})
    out.update({f"{layer}.self_s": 0.0 for layer in SELF_LAYERS})
    for sid, name, layer, parent, t0, t1 in spans:
        key = CALL_METRICS.get(name)
        if key:
            out[key] += t1 - t0
            if name == "count_crossings_pruned" and names[parent] in PER_INSTANCE_PRUNED:
                out[f"counting.pruned_s.{names[parent]}"] += t1 - t0
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] += t1 - t0 - child.get(sid, 0.0)
    return out


def bbox_survivors(g):
    """Unordered edge pairs whose closed bounding boxes meet on every axis."""
    import numpy as np

    pts = np.array(g.vertices, dtype=np.int64)
    ends = np.array(g.edges, dtype=np.int64)
    lo = np.minimum(pts[ends[:, 0]], pts[ends[:, 1]])
    hi = np.maximum(pts[ends[:, 0]], pts[ends[:, 1]])
    m = len(ends)
    meets = 0
    for i0 in range(0, m, 512):
        i1 = min(m, i0 + 512)
        mask = np.ones((i1 - i0, m), dtype=bool)
        for ax in range(g.dim):
            mask &= lo[None, :, ax] <= hi[i0:i1, None, ax]
            mask &= lo[i0:i1, None, ax] <= hi[None, :, ax]
        meets += int(np.count_nonzero(mask))
    return (meets - m) // 2  # drop each edge against itself, count each pair once


def layer_metrics(passes, setup_tracer, setup_root, instances, counts):
    traced = [p for p in passes if p[0]]
    per_pass = [span_times(p[3].spans) for p in traced]
    out = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    out["constructions.generate_s"] = sum(
        (s[5] - s[4] for s in setup_tracer.spans
         if s[2] == "constructions" and s[3] == setup_root), 0.0)
    out.update({k: counts.get(k, 0) for k in PASS_COUNTS})
    survivors = sum(bbox_survivors(inst.graph) for inst in instances if inst.graph)
    pairs = out["counting.pairs"]
    out["counting.bbox_survivors"] = survivors
    out["counting.survivor_frac"] = survivors / pairs if pairs else 0.0
    out["counting.crossings_per_survivor"] = (
        out["counting.crossings"] / survivors if survivors else 0.0)
    naive_pairs = counts.get("counting.naive_pairs", 0)
    out["geom.naive_ns_per_pair"] = (
        out["counting.naive_s"] / naive_pairs * 1e9 if naive_pairs else 0.0)
    incidence = out["bounds.pgrid_incidence"]
    out["bounds.pgrid_points_per_s"] = (
        incidence / out["bounds.essential_pgrid_s"] if incidence else 0.0)
    untraced = [p for p in passes if not p[0]]
    out["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
    out["trace.spans"] = len(traced[0][3].spans)
    return out


# --- record ------------------------------------------------------------------

def environment(gridcross):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridcross").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "gridcross": gridcross.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "note": "one process, one thread, on a shared machine; "
                "no CPU pinning and no frequency control",
    }


def jsonable(value):
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def main(argv=None):
    gridcross = import_gridcross()
    from workloads import WORKLOADS, generate

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    start = time.perf_counter()
    setup_tracer = Tracer() if args.trace else Untraced()
    with setup_tracer.span("setup") as setup_root:
        instances = generate(args.workload, args.seed, setup_tracer)
    probe = None if args.trace else (lambda: probe_setup(args.workload, args.seed))
    budget = args.seconds - (time.perf_counter() - start)
    passes, setup, walls = run_passes(args.workload, instances, budget, args.trace, probe)

    failures = []
    attempted = 0
    outputs = None
    for _, _, results, _ in passes:
        view = {name: out for name, out, *_ in results}
        if outputs is None:
            outputs = view
        for name, out, failed in results:
            attempted += 1
            if out != outputs[name]:
                failed = failed + ["outputs differ from the first pass"]
            if failed:
                failures.append({"instance": name, "failed": failed})
    counts = {}
    for out in outputs.values():
        for key, value in out.items():
            if "." in key:
                counts[key] = counts.get(key, 0) + value

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pass_s": [p[1] for p in passes], "pass_wall_s": walls,
        "traced": [p[0] for p in passes], "instances": len(instances),
        "outputs": outputs, "layer_counts": counts, "failures": failures,
        "fail_frac": len(failures) / attempted,
    }
    if args.trace:
        metrics = layer_metrics(passes, setup_tracer, setup_root[0], instances, counts)
        units = {k: ("s" if k.endswith("_s") or "_s." in k else "count") for k in metrics}
        units.update({"counting.survivor_frac": "ratio",
                      "counting.crossings_per_survivor": "ratio",
                      "geom.naive_ns_per_pair": "ns", "bounds.pgrid_points_per_s": "1/s"})
        record["span_fields"] = ["id", "name", "layer", "parent", "start", "end"]
        record["span_clock"] = "process CPU seconds"
        record["setup_spans"] = setup_tracer.spans
        record["pass_spans"] = [p[3].spans for p in passes if p[0]]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"run_cpu_s": pass_seconds(passes),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": rss_kb / 1024}
        units = {"run_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        record["setup_s_samples"] = setup
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["environment"] = environment(gridcross)

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(jsonable(record), indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p[0] for p in passes)} traced), fail_frac {record['fail_frac']:.4f}")
    for name, out in outputs.items():
        exact = {k: v for k, v in out.items() if "." not in k}
        print(f"  {name}: {json.dumps(jsonable(exact), sort_keys=True)}")
    for f in failures[:10]:
        print(f"  FAILED {f['instance']}: {f['failed'][0].strip()}")
    for key, entry in record["metrics"].items():
        print(f"  {key} = {entry['value']} {entry['unit']}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
