"""Command-line front end.

Subcommands: gen (constructions -> graph JSON), cross (counts and
certificates), enum (exact crossing-free counts), nt (totient sum tables),
experiment (parameter sweeps). Every invocation with fixed flags and seeds
produces byte-identical output. Exit codes: 0 ok, 2 validation error,
3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bounds import certify, check_p_max
from .constructions import layered_complete_bipartite, random_proper_graph, tile_bipartite
from .counting import count_crossings_naive, count_crossings_pruned
from .enumeration import CANDIDATE_CAP, enumeration_record
from .errors import CapExceeded, ValidationError
from .experiments import KINDS, ExperimentConfig, emit_report, run_experiment
from .graph import compute_volume, parse_graph, reduce_edges, serialize_graph
from .totients import verify_totient_inequalities


def _parse_sides(text):
    try:
        sides = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValidationError(f"cannot parse grid shape {text!r}; expected e.g. 4x4x2") from None
    if not sides or any(s < 1 for s in sides):
        raise ValidationError(f"grid sides must be positive, got {text!r}")
    return sides


def _parse_int_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse integer list {text!r}") from None


def _read_graph(path):
    if path == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _write(out, text):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args):
    if args.kind == "bipartite":
        g = layered_complete_bipartite(args.k, args.dim)
    elif args.kind == "tiled":
        g = tile_bipartite(args.k, args.side, args.dim)
    else:
        if args.seed is None:
            raise ValidationError("gen --kind random requires --seed")
        sides = _parse_sides(args.sides) if args.sides else (args.side,) * args.dim
        g = random_proper_graph(sides, args.edges, args.seed)
    _write(args.out, serialize_graph(g) + "\n")
    return 0


def _cmd_cross(args):
    if args.p_max is not None:
        check_p_max(args.p_max)
    g = _read_graph(args.graph)
    if args.reduce:
        g = reduce_edges(g)
    if args.method == "all-certificates":
        p_max, values = certify(g, args.p_max)  # checks properness, so the count does not
        rep = count_crossings_pruned(g, check_proper=False)
    else:
        rep = count_crossings_naive(g) if args.method == "naive" else count_crossings_pruned(g)
    doc = {
        "dim": g.dim,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "volume": compute_volume(g) if g.vertices else 0,
        "method": args.method,
        "total": rep.total,
        "per_edge_max": rep.per_edge_max,
    }
    if args.method == "all-certificates":
        doc["p_max"] = p_max
        doc["certificates"] = {kind: None if v is None else str(v) for kind, v in values.items()}
        doc["sound"] = all(v is None or v <= rep.total for v in values.values())
    else:
        doc["per_edge"] = list(rep.per_edge)
    _write(args.out, json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_enum(args):
    rec = enumeration_record(_parse_sides(args.sides), cap=args.cap)
    doc = {key: str(value) for key, value in rec.items()
           if value is not None and key != "consistent"}
    _write(args.out, json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_nt(args):
    if args.check:
        rep = verify_totient_inequalities(args.n_max, log_c=args.log_c)
        records = [{
            "n_max": rep.n_max,
            "square_sum_below_cube": rep.square_sum_strictly_below_cube,
            "eleventh_holds_from": rep.eleventh_holds_from,
            "log_window_start": rep.log_window_start,
            "log_ratio_min": rep.log_ratio_min,
            "log_c_required": rep.log_c_required,
            "log_bound_ok": rep.log_bound_ok,
        }]
    else:
        records = run_experiment(ExperimentConfig(kind="totients", n_max=args.n_max))
    _write(args.out, emit_report(records))
    return 0


def _cmd_experiment(args):
    config = ExperimentConfig(
        kind=args.kind,
        k_values=_parse_int_list(args.k_values) if args.k_values else (),
        dim=args.dim,
        sides=tuple(_parse_sides(s) for s in args.sides.split(",")) if args.sides else (),
        edges=args.edges,
        seeds=_parse_int_list(args.seeds) if args.seeds else (),
        p_max=args.p_max,
        n_max=args.n_max,
    )
    records = run_experiment(config, timings=args.timings)
    _write(args.out, emit_report(records, fmt=args.format))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridcross",
        description="Exact crossing counts, lower-bound certificates, and "
                    "crossing-free enumeration for graphs drawn on integer grids.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a drawing and print its JSON")
    p.add_argument("--kind", choices=("bipartite", "tiled", "random"), default="bipartite")
    p.add_argument("--k", type=int, default=2, help="layer side length / block size")
    p.add_argument("--side", type=int, default=4)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--sides", help="explicit grid shape for --kind random, e.g. 4x4")
    p.add_argument("--edges", type=int, default=12)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cross", help="count crossings / evaluate certificates")
    p.add_argument("graph", help="graph JSON path, or - for stdin")
    p.add_argument("--method", choices=("naive", "pruned", "all-certificates"),
                   default="pruned")
    p.add_argument("--p-max", type=int, dest="p_max")
    p.add_argument("--reduce", action="store_true",
                   help="shrink non-primitive edges to their first lattice step before counting")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cross)

    p = sub.add_parser("enum", help="exact crossing-free counts on a small grid")
    p.add_argument("--sides", required=True, help="grid shape, e.g. 2x2 or 2x2x2")
    p.add_argument("--cap", type=int, default=CANDIDATE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("nt", help="totient sum tables as CSV")
    p.add_argument("--n-max", type=int, default=100, dest="n_max")
    p.add_argument("--check", action="store_true",
                   help="emit the inequality report instead of the table")
    p.add_argument("--log-c", type=float, default=0.05, dest="log_c")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nt)

    p = sub.add_parser("experiment", help="run a reproducible sweep")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--k-values", dest="k_values", help="comma-separated, e.g. 2,3,4")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--sides", help="comma-separated grid shapes, e.g. 4x4,2x2x2")
    p.add_argument("--edges", type=int, default=12)
    p.add_argument("--seeds", help="comma-separated integer seeds")
    p.add_argument("--p-max", type=int, dest="p_max")
    p.add_argument("--n-max", type=int, default=100, dest="n_max")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--timings", action="store_true",
                   help="add a last column with the seconds spent on each record "
                        "(breaks byte-reproducibility)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
