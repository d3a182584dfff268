"""numpy is loaded only by a rank table: importing the package, counting
bases and running either family engine leave it unloaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import greedoid_tutte

CHILD = """
import json, sys
import greedoid_tutte, greedoid_tutte.cli
from greedoid_tutte import (
    BinaryMatrix, RootedDigraph, RootedGraph, SimpleGraph, recover_perfect_matchings, to_greedoid, tutte_polynomial,
)
from greedoid_tutte import tutte, vertex_profile
from greedoid_tutte.basis_counting import GF2, GF3, RATIONALS
from greedoid_tutte.greedoid import rank_size_profile

calls = []


def spy(module, name, note=None):
    original = getattr(module, name)
    setattr(module, name, lambda *args: calls.append(note(args) if note else name) or original(*args))


spy(tutte, "vertex_subset_profile")
spy(tutte, "span_state_profile")
spy(vertex_profile, "_block_profile", lambda args: f"block of {len(args[0])}")

out = {"before": "numpy" in sys.modules}
C4 = SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
out["matchings"] = [recover_perfect_matchings(C4, field).t_values[-1] for field in (GF2, GF3, RATIONALS)]
K4 = RootedGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)), 0)
COMPLETE = RootedDigraph(4, tuple((i, j) for i in range(4) for j in range(4) if i != j), 0)
# the first 12 3-sets of 6 rows, as columns
supports = [(a, b, c) for a in range(6) for b in range(a + 1, 6) for c in range(b + 1, 6)][:12]
MATRIX = BinaryMatrix(tuple(tuple(int(r in s) for s in supports) for r in range(6)))
polynomials = [tutte_polynomial(carrier) for carrier in (K4, COMPLETE, MATRIX)]
out["engines"] = calls
out["after"] = "numpy" in sys.modules
out["enumerated"] = [tutte_polynomial(to_greedoid(c)) == p for c, p in zip((K4, COMPLETE, MATRIX), polynomials)]
profile = rank_size_profile(to_greedoid(K4))
out["profile"] = profile == dict(tutte._carrier_profile(K4).counts)
out["loaded"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_numpy_unloaded_without_a_rank_table():
    src = str(Path(greedoid_tutte.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["before"] is False and out["after"] is False
    assert out["matchings"] == [2, 2, 2]
    assert out["engines"] == [
        "vertex_subset_profile", "block of 4", "vertex_subset_profile", "block of 4", "span_state_profile"
    ]
    # enumeration and the rank table still work in the same process, and load numpy
    assert out["enumerated"] == [True, True, True] and out["profile"] is True and out["loaded"] is True


REDUCE_CHILD = """
import contextlib, io, json, os, sys, tempfile
from fractions import Fraction
from greedoid_tutte import (
    BinaryMatrix, H0X, HAlpha, LineY, RootedDigraph, RootedGraph, brute_force_oracle, interpolate_curve,
    interpolate_line_y_minus1, tutte_restrict,
)
from greedoid_tutte.cli import main

# what a reduce-curve op asks of a 3-element tree, a 3-element digraph tree and a 3-column matrix
carriers = {
    "graph": RootedGraph(4, ((1, 0), (1, 2), (3, 1)), 2),
    "digraph": RootedDigraph(4, ((0, 1), (1, 2), (1, 3)), 0),
    "binary": BinaryMatrix(((1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 1))),
}
out = {"match": []}
for family, carrier in carriers.items():
    for a, b in ((Fraction(3), Fraction(3, 2)), (Fraction(1), Fraction(2))):
        curve = interpolate_curve(brute_force_oracle(family, a, b, 22), carrier, max_elements=22)
        direct = tutte_restrict(carrier, H0X() if a == 1 else HAlpha((a - 1) * (b - 1)))
        out["match"].append(curve == direct)
    if family != "binary":
        line = interpolate_line_y_minus1(brute_force_oracle(family, 3, -1, 22), carrier, max_elements=22)
        out["match"].append(line == tutte_restrict(carrier, LineY(-1)))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "c4.graph")
    with open(path, "w") as f:
        f.write("root 0\\nedge 0 1\\nedge 1 2\\nedge 2 3\\nedge 3 0\\n")
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        out["cli"] = main(["tutte", path])
out["terms"] = len(json.loads(printed.getvalue()))
out["loaded"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_numpy_unloaded_by_reductions_over_small_carriers():
    """Thickenings and star attachments of 3-element carriers, and a rooted
    C4, take the family engines, so no rank table is made."""
    src = str(Path(greedoid_tutte.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", REDUCE_CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["match"] == [True] * 8
    assert out["cli"] == 0 and out["terms"] > 0
    assert out["loaded"] is False


MATRIX_CHILD = """
import json, sys
from greedoid_tutte import BinaryMatrix, identity_matrix, tutte_eval, tutte_polynomial

# 14 rows and 24 distinct columns of rank 12: entry (r, j) is bit r of 40503 j
matrix = BinaryMatrix(tuple(tuple(j * 40503 >> r & 1 for j in range(1, 25)) for r in range(14)))
out = {"points": [tutte_eval(matrix, 2, 2, max_elements=24), tutte_eval(matrix, 1, 1, max_elements=24)]}
out["after_eval"] = "numpy" in sys.modules
out["identity_bases"] = tutte_polynomial(identity_matrix(12)).evaluate(1, 1)
out["loaded"] = "numpy" in sys.modules
print(json.dumps(out, default=str))
"""


def test_numpy_unloaded_by_matrices_past_class_enumeration():
    """Every matrix takes the span engine, so neither a rank-12 matrix of 24
    columns nor ``identity_matrix(12)`` makes a rank table."""
    src = str(Path(greedoid_tutte.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", MATRIX_CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["points"] == ["16777216", "64664"]
    assert out["identity_bases"] == "1"
    assert out["after_eval"] is False and out["loaded"] is False
