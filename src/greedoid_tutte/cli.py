"""Command line front end.

Subcommands: ``tutte`` (full polynomial as JSON), ``eval`` (one exact
value), ``restrict`` (curve restriction as JSON), ``construct`` (emit a
constructed carrier file), ``reduce`` (run an interpolation reduction and
report recovered vs direct coefficients), ``vertigan`` (basis-counting
recovery of perfect matchings) and ``verify`` (built-in identity suites).

Rational parameters are written as p/q strings, never floats.  Exit codes:
0 success, 1 failed verification, 2 parse error, 3 violated precondition,
4 enumeration bound exceeded (for ``verify``: some row was skipped over the
bound and none failed).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .carriers import (
    BinaryMatrix,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    format_carrier,
    parse_carrier_text,
    to_greedoid,
)
from .basis_counting import (
    GF2,
    GF3,
    RATIONALS,
    SimpleGraph,
    recover_perfect_matchings,
)
from .constructions import (
    attach_carrier,
    bidirect,
    block_diag,
    digon_stretch,
    stretch_unrooted,
    thicken,
)
from .errors import (
    GreedoidTutteError,
    GroundSetTooLargeError,
    ParseError,
    PreconditionError,
)
from .greedoid import DEFAULT_MAX_ELEMENTS, feasible_of_ranks, subset_ranks, verify_family_axioms, verify_rank_axioms
from .polynomials import rational
from .reductions import (
    brute_force_oracle,
    interpolate_curve,
    interpolate_line_y_minus1,
)
from .tutte import (
    H0X,
    H0Y,
    HAlpha,
    LineY,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
)


def _read_carrier(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_carrier_text(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload if payload.endswith("\n") else payload + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    else:
        try:
            print(payload, flush=True)
        except BrokenPipeError:  # the reader has closed stdout; what it left unread is not wanted
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _read_rooted(path: str):
    """A rooted graph, rooted digraph or binary matrix read from a file."""
    carrier = _read_carrier(path)
    _family_of(carrier)
    return carrier


def _read_unrooted(path: str) -> UnrootedGraph:
    """A graph read from a file; the root of a rooted graph file is dropped."""
    carrier = _read_carrier(path)
    if not isinstance(carrier, (RootedGraph, UnrootedGraph)):
        raise PreconditionError("this command needs a graph file, rooted or not")
    return UnrootedGraph(carrier.vertex_count, carrier.edges)


def _family_of(carrier) -> str:
    if isinstance(carrier, RootedGraph):
        return "graph"
    if isinstance(carrier, RootedDigraph):
        return "digraph"
    if isinstance(carrier, BinaryMatrix):
        return "binary"
    raise PreconditionError("this command needs a rooted carrier or a binary matrix")


def _cmd_tutte(args) -> int:
    poly = tutte_polynomial(_read_rooted(args.file), args.max_elements)
    _emit(args, json.dumps(poly.to_json_obj(), indent=2))
    return 0


def _cmd_eval(args) -> int:
    carrier = _read_rooted(args.file)
    value = tutte_eval(carrier, rational(args.x), rational(args.y), args.max_elements)
    _emit(args, str(value))
    return 0


def _cmd_restrict(args) -> int:
    carrier = _read_rooted(args.file)
    if args.curve == "halpha":
        if args.alpha is None:
            raise ParseError("--alpha is required for the hyperbola restriction")
        curve = HAlpha(rational(args.alpha))
    elif args.curve == "h0x":
        curve = H0X()
    elif args.curve == "h0y":
        curve = H0Y()
    else:
        if args.c is None:
            raise ParseError("--c is required for the horizontal-line restriction")
        curve = LineY(rational(args.c))
    poly = tutte_restrict(carrier, curve, args.max_elements)
    _emit(args, json.dumps(poly.to_json_obj(), indent=2))
    return 0


def _cmd_construct(args) -> int:
    op = args.operation
    carrier = _read_unrooted(args.file) if op == "stretch" else _read_carrier(args.file)
    if op == "thicken":
        _family_of(carrier)
        result = thicken(carrier, args.k)
    elif op == "attach":
        if not args.with_file:
            raise ParseError("attach needs --with <carrier file>")
        result = attach_carrier(carrier, _read_carrier(args.with_file))
    elif op == "fullrank":
        if not args.with_file:
            raise ParseError("fullrank needs --with <matrix file>")
        other = _read_carrier(args.with_file)
        if not isinstance(carrier, BinaryMatrix) or not isinstance(other, BinaryMatrix):
            raise PreconditionError("fullrank operates on two binary matrices")
        result = block_diag(carrier, other)
    elif op == "stretch":
        result = stretch_unrooted(carrier, args.k)
    elif op == "digon":
        if not isinstance(carrier, RootedDigraph):
            raise PreconditionError("digon-stretch operates on a rooted digraph")
        result = digon_stretch(carrier, args.k)
    elif op == "bidirect":
        if not isinstance(carrier, RootedGraph):
            raise PreconditionError("bidirect operates on a rooted graph")
        result = bidirect(carrier)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown construction {op!r}")
    _emit(args, format_carrier(result))
    return 0


def _cmd_reduce(args) -> int:
    carrier = _read_carrier(args.file)
    family = _family_of(carrier)
    a, b = rational(args.a), rational(args.b)
    oracle = brute_force_oracle(family, a, b, args.max_elements)
    if args.mode == "curve":
        recovered = interpolate_curve(oracle, carrier, args.max_elements)
        if b == 1:
            curve, curve_name = H0Y(), "y=1"
        elif a == 1:
            curve, curve_name = H0X(), "x=1"
        else:
            curve, curve_name = HAlpha((a - 1) * (b - 1)), f"(x-1)(y-1)={(a - 1) * (b - 1)}"
    else:
        recovered = interpolate_line_y_minus1(oracle, carrier, args.max_elements)
        curve, curve_name = LineY(Fraction(-1)), "y=-1"
    direct = tutte_restrict(carrier, curve, args.max_elements)
    report = {
        "family": family,
        "point": {"a": str(a), "b": str(b)},
        "curve": curve_name,
        "oracle_calls": oracle.calls,
        "recovered": recovered.to_json_obj(),
        "direct": direct.to_json_obj(),
        "match": recovered == direct,
    }
    _emit(args, json.dumps(report, indent=2))
    return 0 if report["match"] else 1


_FIELDS = {"gf2": GF2, "gf3": GF3, "rationals": RATIONALS}


def _cmd_vertigan(args) -> int:
    carrier = _read_unrooted(args.file)
    graph = SimpleGraph(carrier.vertex_count, carrier.edges)
    field = _FIELDS[args.field]
    report = recover_perfect_matchings(graph, field, args.max_elements)
    payload = {
        "field": str(field),
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "b_values": {str(k + 1): str(v) for k, v in enumerate(report.b_values)},
        "b_sources": {str(k + 1): s for k, s in enumerate(report.b_sources)},
        "t_values": {str(j): str(v) for j, v in enumerate(report.t_values)},
        "recovered_perfect_matchings": report.recovered,
        "direct_perfect_matchings": report.direct,
        "match": report.match,
    }
    _emit(args, json.dumps(payload, indent=2))
    return 0 if report.match else 1


def _verify_axioms(carrier, max_elements: int) -> list[str]:
    g = to_greedoid(carrier)
    ranks = subset_ranks(g, max_elements)  # it refuses a table past the work limit at once
    family = feasible_of_ranks(ranks).tolist()
    reports = [verify_family_axioms(g.size, family), verify_rank_axioms(g.size, ranks)]
    return [f"{v.axiom}: witness {v.witness}" for report in reports for v in report.violations]


def _cmd_verify(args) -> int:
    from . import verify as suites

    read = _read_unrooted if args.suite == "stretch" else _read_carrier
    carrier = read(args.file) if args.file else None
    if args.suite == "axioms":
        if carrier is None:
            raise ParseError("the axioms suite needs a carrier file")
        _family_of(carrier)
        problems = _verify_axioms(carrier, args.max_elements)
        lines = [f"axioms {'pass' if not problems else 'FAIL'}"] + problems
        _emit(args, "\n".join(lines))
        return 0 if not problems else 1
    outcome = suites.run_suite(args.suite, carrier, args.max_elements)
    status = {True: "pass", False: "FAIL", None: "skipped"}
    lines = [
        f"{name}: {status[ok]}" + (f" ({detail})" if detail else "")
        for name, ok, detail in outcome
    ]
    oks = [ok for _, ok, _ in outcome]
    code = 1 if False in oks else 4 if None in oks else 0
    summary = {0: "pass", 1: "FAIL", 4: f"incomplete ({oks.count(None)} skipped)"}[code]
    lines.append(f"suite {args.suite}: {summary}")
    _emit(args, "\n".join(lines))
    return code


_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedoid-tutte",
        description="Exact greedoid Tutte polynomials for rooted graphs, rooted digraphs and binary matrices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bounded=True):
        # so "--x -1/2" is a value: argparse knows only integer and decimal negatives
        p._negative_number_matcher = _NEGATIVE_NUMBER
        if bounded:
            p.add_argument(
                "--max-elements",
                type=int,
                default=DEFAULT_MAX_ELEMENTS,
                help="enumeration bound on the ground-set size (default %(default)s)",
            )
        p.add_argument("--out", help="write the result to a file instead of stdout")

    p = sub.add_parser("tutte", help="full Tutte polynomial as JSON")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("eval", help="evaluate at one rational point")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="x coordinate as p/q")
    p.add_argument("--y", required=True, help="y coordinate as p/q")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("restrict", help="restrict to a curve, emit Laurent JSON")
    p.add_argument("file")
    p.add_argument("--curve", required=True, choices=["halpha", "h0x", "h0y", "liney"])
    p.add_argument("--alpha", help="hyperbola parameter as p/q")
    p.add_argument("--c", help="horizontal line height as p/q")
    common(p)
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("construct", help="emit a constructed carrier file")
    p.add_argument("operation", choices=["thicken", "attach", "fullrank", "stretch", "digon", "bidirect"])
    p.add_argument("file")
    p.add_argument("--k", type=int, default=2, help="multiplicity for thicken/stretch/digon")
    p.add_argument("--with", dest="with_file", help="second carrier for attach/fullrank")
    common(p, bounded=False)  # a construction enumerates nothing
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("reduce", help="run an interpolation reduction, emit a JSON report")
    p.add_argument("mode", choices=["curve", "yminus1"])
    p.add_argument("file")
    p.add_argument("--a", required=True, help="oracle x coordinate as p/q")
    p.add_argument("--b", required=True, help="oracle y coordinate as p/q")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("vertigan", help="basis-counting recovery of perfect matchings")
    p.add_argument("file")
    p.add_argument("--field", required=True, choices=sorted(_FIELDS))
    common(p)
    p.set_defaults(func=_cmd_vertigan)

    p = sub.add_parser("verify", help="run a built-in identity suite")
    p.add_argument(
        "suite",
        choices=["thickening", "attachment", "fullrank", "stretch", "digon", "bidirect", "axioms", "all"],
    )
    p.add_argument("--file", help="optional extra carrier to include")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroundSetTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except GreedoidTutteError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
