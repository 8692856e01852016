"""Reproducible parameter sweeps producing table-ready records.

Every sweep is deterministic given its config: randomness flows only through
explicit seeds, and records keep exact quantities exact (ints and Fractions;
floats appear only in clearly derived ratio columns). Each runner is a
generator of plain records, so equal configs give equal records.
`run_experiment` is the one place that measures time: with `timings=True`
it appends `elapsed_s`, the wall-clock seconds spent producing each record,
which breaks byte-reproducibility of the emitted document. `emit_report`
renders whatever keys its records have.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bounds import certify
from .constructions import analytic_skip_bound, layered_complete_bipartite, random_proper_graph
from .counting import count_crossings_naive, count_crossings_pruned
from .enumeration import enumeration_record, ncs_lower_formula
from .errors import ValidationError
from .graph import compute_volume
from .totients import partial_sums


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    k_values: tuple = ()
    dim: int = 3
    sides: tuple = ()  # grid shapes, e.g. ((4, 4), (2, 2, 2))
    edges: int = 12
    seeds: tuple = ()
    p_max: int | None = None
    n_max: int = 100


def run_experiment(config: ExperimentConfig, timings: bool = False) -> list:
    """The records of one sweep; with timings, each gets a trailing `elapsed_s`."""
    runner = RUNNERS.get(config.kind)
    if runner is None:
        raise ValidationError(f"unknown experiment kind {config.kind!r}; choose from {KINDS}")
    records = []
    start = time.perf_counter()
    for rec in runner(config):
        if timings:
            rec["elapsed_s"] = time.perf_counter() - start
        records.append(rec)
        start = time.perf_counter()
    return records


def _run_growth3d(config):
    if not config.k_values or min(config.k_values) < 2:
        raise ValidationError("growth3d needs k values >= 2")
    if config.dim != 3:
        raise ValidationError(f"growth3d is the 3-d sweep, got dim {config.dim}; "
                              "use growth_hd for dim >= 4")
    for k in config.k_values:
        g = layered_complete_bipartite(k, 3)
        rep = count_crossings_pruned(g, check_proper=False)
        bound = analytic_skip_bound(k, 3)
        yield {
            "k": k,
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "volume": compute_volume(g),
            "layer_volume": k * k,
            "crossings": rep.total,
            "per_edge_max": rep.per_edge_max,
            "skip_bound": bound,
            "skip_bound_float": float(bound),
            "crossings_per_k6lnk": rep.total / (k ** 6 * math.log(k)),
        }


def _run_growth_hd(config):
    if not config.k_values or min(config.k_values) < 1:
        raise ValidationError("growth_hd needs k values >= 1")
    if config.dim < 4:
        raise ValidationError(f"growth_hd needs dim >= 4, got {config.dim}")
    d = config.dim
    for k in config.k_values:
        g = layered_complete_bipartite(k, d)
        rep = count_crossings_pruned(g, check_proper=False)
        bound = analytic_skip_bound(k, d)
        layer = k ** (d - 1)
        n_points = 2 * layer
        c_admissible = (bound + 1) / n_points
        yield {
            "k": k,
            "dim": d,
            "layer_size": layer,
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "volume": compute_volume(g),
            "crossings": rep.total,
            "per_edge_max": rep.per_edge_max,
            "skip_bound": bound,
            "crossings_per_l3": rep.total / layer ** 3,
            "c_admissible": c_admissible,
            "ncs_lower": ncs_lower_formula(n_points, c_admissible),
        }


def _run_certificates(config):
    if not config.seeds:
        raise ValidationError("certificates needs explicit seeds")
    if not config.sides:
        raise ValidationError("certificates needs at least one grid shape")
    if config.edges < 1:
        raise ValidationError("certificates needs edges >= 1")
    for sides in config.sides:
        for seed in config.seeds:
            g = random_proper_graph(sides, config.edges, seed)
            exact = count_crossings_naive(g, check_proper=False)
            pruned = count_crossings_pruned(g, check_proper=False)
            p_max, values = certify(g, config.p_max)
            yield {
                "grid": "x".join(map(str, sides)),
                "seed": seed,
                "vertices": len(g.vertices),
                "edges": len(g.edges),
                "volume": compute_volume(g),
                "crossings": exact.total,
                "pruned_equal": pruned.total == exact.total,
                "midpoint_bucket": values["midpoint-bucket"],
                "essential_pgrid": values["essential-pgrid"],
                "p_max": p_max,
                "greedy_removal": values["greedy-removal"],
                "midpoint_formula": values["midpoint-formula"],
                "sound": all(v is None or v <= exact.total for v in values.values()),
            }


def _run_totients(config):
    for n, f, s1, s2, s3 in partial_sums(config.n_max):
        yield {
            "n": n,
            "phi": f,
            "s1": s1,
            "s2": s2,
            "s3": s3,
            "s3_float": float(s3),
        }


def _run_enumeration(config):
    if not config.sides:
        raise ValidationError("enumeration needs at least one grid shape")
    for sides in config.sides:
        yield enumeration_record(sides)


RUNNERS = {
    "growth3d": _run_growth3d,
    "growth_hd": _run_growth_hd,
    "certificates": _run_certificates,
    "totients": _run_totients,
    "enumeration": _run_enumeration,
}
KINDS = tuple(RUNNERS)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)  # "p/q", or plain digits when integral
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(records, fmt: str = "csv") -> str:
    """Render records as CSV or a JSON array, in the first record's key order.

    Exact counts are emitted as decimal strings so nothing is rounded.
    """
    if not records:
        raise ValidationError("no records to emit")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown format {fmt!r}")
    columns = list(records[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_cell(rec[col]) for col in columns])
        return buf.getvalue()
    rows = []
    for rec in records:
        row = {}
        for col in columns:
            value = rec[col]
            if isinstance(value, float) or isinstance(value, bool) or value is None:
                row[col] = value
            else:
                row[col] = _cell(value)
        rows.append(row)
    return json.dumps(rows, indent=1) + "\n"
