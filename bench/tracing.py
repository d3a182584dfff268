"""Per-layer spans for the traced benchmark run.

The library is not edited: :meth:`Tracer.install` rebinds public functions of
each ``greedoid_tutte`` module, under every name any module of the package
imported them as, to wrappers that record a span (name, start, end, parent,
phase, attributes).  Feasibility oracles are called hundreds of thousands of
times, so they get no span each: their calls, time and feasible answers are
summed, and every span notes the summed oracle time at its start and end so
that the oracle time inside it can be taken out of its self time.  The
template checks of the basis-counting search are counted the same way (calls
and feasible answers, no time of their own).

A layer's number is its self time: span time minus the time covered by its
child spans and by the oracle calls made directly inside it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, function, span name).  A span name whose functions are all gone
# from the library is reported as missing, never as zero.
LAYERS = (
    ("carriers", "parse_carrier_text", "carriers.parse"),
    ("carriers", "parse_graph_text", "carriers.parse"),
    ("carriers", "parse_matrix_text", "carriers.parse"),
    ("greedoid", "enumerate_feasible_sets", "greedoid.enumerate"),
    ("greedoid", "subset_ranks", "greedoid.sweep"),
    ("greedoid", "rank_size_profile", "greedoid.profile"),
    ("greedoid", "max_feasible_subset", "greedoid.rank"),
    ("tutte", "tutte_polynomial", "tutte.expand"),
    ("tutte", "tutte_eval", "tutte.expand"),
    ("tutte", "tutte_restrict", "tutte.expand"),
    ("tutte", "characteristic_polynomial", "tutte.expand"),
    ("constructions", "thicken", "constructions.build"),
    ("constructions", "attach_carrier", "constructions.build"),
    ("constructions", "attach_graphs", "constructions.build"),
    ("constructions", "attach_digraphs", "constructions.build"),
    ("reductions", "interpolate_curve", "reductions.interpolate"),
    ("reductions", "interpolate_line_y_minus1", "reductions.interpolate"),
    ("exact", "bareiss_solve", "exact.solve"),
    ("exact", "vandermonde_solve", "exact.solve"),
    ("exact", "det_exact", "exact.solve"),
    ("basis_counting", "count_bases", "basis_counting.count"),
    ("basis_counting", "enumerate_feasible_templates", "basis_counting.templates"),
    ("basis_counting", "recover_perfect_matchings", "basis_counting.recover"),
)
ORACLE_FACTORIES = (
    ("carriers", "branching_feasibility"),
    ("carriers", "directed_branching_feasibility"),
    ("carriers", "binary_feasibility"),
)
POINT_ORACLE_FACTORY = ("reductions", "brute_force_oracle")
TEMPLATE_CHECK = ("basis_counting", "template_is_feasible")
TEMPLATE_SPAN = "basis_counting.template_check"
QUERY_SPAN = "reductions.query"
OP_SPAN = "bench.op"
FIELD_NAMES = {2: "gf2", 3: "gf3", 0: "rationals"}

def _notes(name: str, args, kwargs, result) -> dict | None:
    """Counts recorded on a span, read from its arguments and result."""
    if name == "greedoid.enumerate":
        return {"feasible_sets": len(result)}
    if name == "greedoid.sweep":
        return {"lattice_subsets": len(result)}
    if name == "greedoid.profile":
        return {"profiles": 1}
    if name == "constructions.build":
        return {"elements": result.edge_count}
    if name == "basis_counting.count":
        field = args[1] if len(args) > 1 else kwargs["field"]
        return {"field": FIELD_NAMES.get(field.char, f"gf{field.char}")}
    if name == QUERY_SPAN:
        return {"elements": args[0].edge_count}
    return None


class Tracer:
    """Spans kept in memory for one process, written out when the run ends."""

    def __init__(self):
        # [name, start, end, parent index, phase, notes, oracle_s at start, oracle_s at end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.oracle_by_phase: dict[str, list] = {}
        self.oracle = self._oracle_stats()
        # phase: [template checks, feasible answers]
        self.templates_by_phase: dict[str, list] = {}
        self.missing: list[str] = []
        self.present: set[str] = set()

    def _oracle_stats(self) -> list:
        # calls, seconds, feasible answers
        return self.oracle_by_phase.setdefault(self.phase, [0, 0.0, 0])

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.oracle = self._oracle_stats()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[6] = self.oracle[1]
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                record[7] = self.oracle[1]
                stack.pop()
            record[5] = _notes(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_oracle_factory(self, make):
        def traced_make(*args, **kwargs):
            inner = make(*args, **kwargs)

            def oracle(mask):
                start = perf()
                ok = inner(mask)
                elapsed = perf() - start
                stats = self.oracle
                stats[0] += 1
                stats[1] += elapsed
                if ok:
                    stats[2] += 1
                return ok

            return oracle

        traced_make.__wrapped__ = make
        return traced_make

    def _wrap_template_check(self, check):
        def counted(*args, **kwargs):
            ok = check(*args, **kwargs)
            stats = self.templates_by_phase.setdefault(self.phase, [0, 0])
            stats[0] += 1
            if ok:
                stats[1] += 1
            return ok

        counted.__wrapped__ = check
        return counted

    def _wrap_point_oracle_factory(self, make):
        def traced_make(*args, **kwargs):
            oracle = make(*args, **kwargs)
            oracle.evaluate = self.wrap(QUERY_SPAN, oracle.evaluate)
            return oracle

        traced_make.__wrapped__ = make
        return traced_make

    def install(self, package) -> None:
        """Rebind the library's public functions to traced wrappers."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        targets = [(mod, fn, lambda f, n=name: self.wrap(n, f), name) for mod, fn, name in LAYERS]
        targets += [(mod, fn, self._wrap_oracle_factory, "carriers.oracle") for mod, fn in ORACLE_FACTORIES]
        mod, fn = POINT_ORACLE_FACTORY
        targets.append((mod, fn, self._wrap_point_oracle_factory, QUERY_SPAN))
        mod, fn = TEMPLATE_CHECK
        targets.append((mod, fn, self._wrap_template_check, TEMPLATE_SPAN))
        for mod_name, fn_name, make_wrapper, span_name in targets:
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            original = getattr(module, fn_name, None) if module else None
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self.present.add(span_name)
            wrapper = make_wrapper(original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, with oracle time taken out as a leaf."""
        own = [(end - start) - (o_end - o_start) for _, start, end, _, _, _, o_start, o_end in self.spans]
        out = list(own)
        for record, span_own in zip(self.spans, own):
            parent = record[3]
            if parent >= 0:
                out[parent] -= span_own
        return out

    def layer_metrics(self, phase: str = "ops") -> tuple[dict, list[str]]:
        """Per-layer metrics over one phase, plus the metrics that are missing."""
        self_s: dict[str, float] = defaultdict(float)
        setup_self: dict[str, float] = defaultdict(float)
        total = defaultdict(float)
        count_s: dict[str, float] = defaultdict(float)
        queries = 0
        query_s = 0.0
        query_max = 0
        for record, own in zip(self.spans, self.self_times()):
            name, start, end, parent, span_phase, notes = record[:6]
            if span_phase == "setup":
                setup_self[name] += own
            if span_phase != phase:
                continue
            self_s[name] += own
            notes = notes or {}
            if name == "basis_counting.count":
                count_s[notes["field"]] += own
            elif name == QUERY_SPAN:
                queries += 1
                query_s += end - start
                query_max = max(query_max, notes["elements"])
            elif name == "constructions.build":
                if parent < 0 or self.spans[parent][0] != name:
                    total["elements"] += notes["elements"]
            else:
                for key, value in notes.items():
                    total[key] += value
        calls, oracle_s, feasible = self.oracle_by_phase.get(phase, [0, 0.0, 0])
        tried, hits = self.templates_by_phase.get(phase, [0, 0])
        oracle = "carriers.oracle"
        enum, sweep, profile = "greedoid.enumerate", "greedoid.sweep", "greedoid.profile"
        build, count, templates = "constructions.build", "basis_counting.count", "basis_counting.templates"
        # metric: (value, unit, span name the metric is read from)
        metrics = {
            "carriers.oracle_calls": (calls, "count", oracle),
            "carriers.oracle_s": (oracle_s, "s", oracle),
            "carriers.feasible_per_call": (feasible / calls if calls else 0.0, "ratio", oracle),
            "carriers.parse_s": (setup_self["carriers.parse"], "s", "carriers.parse"),
            "greedoid.feasible_sets": (int(total["feasible_sets"]), "count", enum),
            "greedoid.enumerate_s": (self_s[enum], "s", enum),
            "greedoid.lattice_subsets": (int(total["lattice_subsets"]), "count", sweep),
            "greedoid.sweep_s": (self_s[sweep], "s", sweep),
            "greedoid.profiles": (int(total["profiles"]), "count", profile),
            "greedoid.profile_s": (self_s[profile], "s", profile),
            "greedoid.rank_s": (self_s["greedoid.rank"], "s", "greedoid.rank"),
            "tutte.expand_s": (self_s["tutte.expand"], "s", "tutte.expand"),
            "constructions.build_s": (self_s[build], "s", build),
            "constructions.elements_built": (int(total["elements"]), "count", build),
            "reductions.point_queries": (queries, "count", QUERY_SPAN),
            "reductions.query_s": (query_s, "s", QUERY_SPAN),
            "reductions.query_elements_max": (query_max, "count", QUERY_SPAN),
            "reductions.interpolate_s": (self_s["reductions.interpolate"], "s", "reductions.interpolate"),
            "exact.solve_s": (self_s["exact.solve"], "s", "exact.solve"),
            "basis_counting.count_s.gf2": (count_s["gf2"], "s", count),
            "basis_counting.count_s.gf3": (count_s["gf3"], "s", count),
            "basis_counting.count_s.rationals": (count_s["rationals"], "s", count),
            "basis_counting.templates_tried": (tried, "count", TEMPLATE_SPAN),
            "basis_counting.template_hit_ratio": (hits / tried if tried else 0.0, "ratio", TEMPLATE_SPAN),
            "basis_counting.templates_s": (self_s[templates], "s", templates),
            "basis_counting.recover_s": (self_s["basis_counting.recover"], "s", "basis_counting.recover"),
        }
        missing = sorted(m for m, (_, _, span) in metrics.items() if span not in self.present)
        out = {m: {"value": v, "unit": u} for m, (v, u, span) in metrics.items() if span in self.present}
        return out, missing

    def op_accounting(self) -> tuple[float, float]:
        """(seconds inside op spans, seconds of op spans not covered by any layer)."""
        inside = uncovered = 0.0
        for record, own in zip(self.spans, self.self_times()):
            if record[0] == OP_SPAN:
                inside += record[2] - record[1]
                uncovered += own
        return inside, uncovered

    def dump(self, path) -> None:
        rows = [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "phase": phase,
                "notes": notes,
                "oracle_s": o_end - o_start,
            }
            for name, start, end, parent, phase, notes, o_start, o_end in self.spans
        ]
        path.write_text(
            json.dumps(
                {"oracle": self.oracle_by_phase, "template_checks": self.templates_by_phase, "spans": rows}
            )
            + "\n"
        )
