import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from greedoid_tutte.cli import main
from greedoid_tutte.carriers import format_carrier, parse_carrier_text
import greedoid_tutte
from greedoid_tutte import RootedDigraph, RootedGraph, demo_binary_matrix, path_graph, star_graph, thicken
from greedoid_tutte import tutte_polynomial
from greedoid_tutte import tutte as tutte_module


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["p2"] = tmp_path / "p2.graph"
    paths["p2"].write_text(format_carrier(path_graph(2)))
    paths["demo"] = tmp_path / "demo.matrix"
    paths["demo"].write_text(format_carrier(demo_binary_matrix()))
    paths["dpath"] = tmp_path / "dpath.digraph"
    paths["dpath"].write_text(format_carrier(RootedDigraph(3, ((0, 1), (1, 2)), 0)))
    paths["c4"] = tmp_path / "c4.graph"
    paths["c4"].write_text("edge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\n")
    paths["s1"] = tmp_path / "s1.graph"
    paths["s1"].write_text(format_carrier(path_graph(1)))
    return paths


def test_tutte_json_deterministic(files, capsys):
    assert main(["tutte", str(files["p2"])]) == 0
    first = capsys.readouterr().out
    assert main(["tutte", str(files["p2"])]) == 0
    second = capsys.readouterr().out
    assert first == second
    terms = json.loads(first)
    assert terms == [
        {"xexp": 0, "yexp": 1, "num": "1", "den": "1"},
        {"xexp": 1, "yexp": 0, "num": "1", "den": "1"},
        {"xexp": 1, "yexp": 1, "num": "-2", "den": "1"},
        {"xexp": 2, "yexp": 1, "num": "1", "den": "1"},
    ]


def test_eval_demo_matrix(files, capsys):
    assert main(["eval", str(files["demo"]), "--x", "1/1", "--y", "1/1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["eval", str(files["demo"]), "--x", "2", "--y", "1"]) == 0
    assert capsys.readouterr().out.strip() == "9"


def test_eval_rejects_floats(files, capsys):
    assert main(["eval", str(files["p2"]), "--x", "1.5", "--y", "1"]) == 2


def test_restrict_halpha(files, capsys):
    assert main(["restrict", str(files["p2"]), "--curve", "halpha", "--alpha", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == [
        {"exp": -2, "num": "4", "den": "1"},
        {"exp": -1, "num": "6", "den": "1"},
        {"exp": 0, "num": "1", "den": "1"},
    ]
    assert main(["restrict", str(files["p2"]), "--curve", "halpha"]) == 2  # missing alpha


def test_reduce_curve_report(files, capsys):
    assert main(["reduce", "curve", str(files["p2"]), "--a", "3", "--b", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["match"] is True
    assert report["oracle_calls"] == 5
    assert report["recovered"] == report["direct"]


def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(format_carrier(RootedGraph(3, ((0, 1), (0, 2), (1, 2)), 0)))
    return str(path)


@pytest.mark.parametrize("curve, power", [("h0x", 1), ("h0y", 2)])
def test_restrict_to_the_lines_x_and_y_one(tmp_path, capsys, curve, power):
    """On the triangle rooted at 0, T(1, y) = 2 + y and T(x, 1) = 2 + x^2."""
    assert main(["restrict", triangle_file(tmp_path), "--curve", curve]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"exp": 0, "num": "2", "den": "1"},
        {"exp": power, "num": "1", "den": "1"},
    ]


@pytest.mark.parametrize("a, b, curve, calls", [("2", "1", "y=1", 3), ("1", "2", "x=1", 6)])
def test_reduce_curve_on_the_lines_x_and_y_one(tmp_path, capsys, a, b, curve, calls):
    """A point on y = 1 or x = 1 recovers that line, not a hyperbola."""
    assert main(["reduce", "curve", triangle_file(tmp_path), "--a", a, "--b", b]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["curve"], report["oracle_calls"], report["match"]) == (curve, calls, True)


def test_reduce_forbidden_point_exit_code(files, capsys):
    assert main(["reduce", "yminus1", str(files["p2"]), "--a", "1/2", "--b", "-1"]) == 3
    err = capsys.readouterr().err
    assert "ForbiddenPoint" in err


def test_reduce_yminus1_report(files, capsys):
    assert main(["reduce", "yminus1", str(files["dpath"]), "--a", "3", "--b", "-1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["match"] is True
    assert report["curve"] == "y=-1"


def test_construct_round_trip(files, capsys, tmp_path):
    out = tmp_path / "thick.graph"
    assert main(["construct", "thicken", str(files["p2"]), "--k", "3", "--out", str(out)]) == 0
    carrier = parse_carrier_text(out.read_text())
    assert carrier.edge_count == 6
    assert main(["construct", "bidirect", str(files["p2"])]) == 0
    arcs = capsys.readouterr().out
    assert arcs.count("arc") == 4
    assert main(["construct", "attach", str(files["p2"]), "--with", str(files["s1"])]) == 0
    attached = parse_carrier_text(capsys.readouterr().out)
    assert attached.edge_count == 4
    assert main(["construct", "digon", str(files["dpath"]), "--k", "2"]) == 0
    stretched = parse_carrier_text(capsys.readouterr().out)
    assert stretched.edge_count == 10
    assert main(["construct", "fullrank", str(files["demo"]), "--with", str(files["demo"])]) == 0
    doubled = parse_carrier_text(capsys.readouterr().out)
    assert doubled.col_count == 8


def test_construct_attach_refuses_mixed_kinds(files, capsys):
    for base, patch in (("p2", "dpath"), ("dpath", "p2")):
        assert main(["construct", "attach", str(files[base]), "--with", str(files[patch])]) == 3
        err = capsys.readouterr().err
        assert "attachment needs two rooted graphs or two rooted digraphs" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["missing/out.txt", "."])
def test_unwritable_out_exit_code(files, tmp_path, capsys, target):
    """An --out that cannot be opened, in a missing directory or a directory
    itself, is a usage error: exit 2 and one line, as for an unreadable file."""
    out = str(tmp_path / target)
    for argv in (["eval", str(files["p2"]), "--x", "2", "--y", "2"], ["construct", "thicken", str(files["p2"])]):
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_vertigan_report(files, capsys):
    assert main(["vertigan", str(files["c4"]), "--field", "gf2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["match"] is True
    assert report["recovered_perfect_matchings"] == 2
    assert report["b_values"]["1"] == "4064"


def test_verify_suites(files, capsys):
    assert main(["verify", "fullrank"]) == 0
    out = capsys.readouterr().out
    assert "suite fullrank: pass" in out
    assert main(["verify", "axioms", "--file", str(files["demo"])]) == 0
    assert "axioms pass" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("root 0\nedge 0 1\narc 1 2\n")
    assert main(["tutte", str(bad)]) == 2
    missing = tmp_path / "missing.graph"
    assert main(["tutte", str(missing)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [("root 0\nroot 1\nedge 0 1\n", "line 2: duplicate root line"), ("root\nedge 0 1\n", "expected 'root <v>'")],
)
def test_malformed_root_line_exit_code(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.graph"
    bad.write_text(text)
    assert main(["tutte", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_non_integer_vertex_exit_code(tmp_path, capsys):
    for name, text in (("edge", "root 0\nedge 0 x\n"), ("root", "root r\nedge 0 1\n")):
        bad = tmp_path / f"{name}.graph"
        bad.write_text(text)
        assert main(["tutte", str(bad)]) == 2
        assert "is not an integer" in capsys.readouterr().err


def test_non_utf8_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00root 0\n")
    for argv in (["tutte", str(bad)], ["eval", str(bad), "--x", "2", "--y", "3"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err
        assert err.count("\n") == 1


def test_bound_exit_code(tmp_path, capsys):
    big = tmp_path / "big.graph"
    big.write_text(format_carrier(path_graph(21)))
    assert main(["tutte", str(big)]) == 4
    assert main(["eval", str(big), "--x", "1", "--y", "1", "--max-elements", "21"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_tutte_of_thickened_file(tmp_path, capsys, monkeypatch):
    """The parsed carrier itself is evaluated, so repeated edges are merged."""
    carrier = thicken(path_graph(3), 3)
    path = tmp_path / "thick.graph"
    path.write_text(format_carrier(carrier))
    sizes = []
    original = tutte_module.vertex_subset_profile

    def counted(carrier, reached):
        sizes.append(carrier.edge_count)
        return original(carrier, reached)

    monkeypatch.setattr(tutte_module, "vertex_subset_profile", counted)
    tutte_module._carrier_profile.cache_clear()
    assert main(["tutte", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == tutte_polynomial(carrier).to_json_obj()
    assert sizes == [3]


def test_unrooted_file_exit_code(files, capsys):
    assert main(["tutte", str(files["c4"])]) == 3
    assert main(["eval", str(files["c4"]), "--x", "1", "--y", "1"]) == 3
    assert main(["restrict", str(files["c4"]), "--curve", "h0x"]) == 3
    assert main(["construct", "thicken", str(files["c4"])]) == 3
    assert main(["verify", "thickening", "--file", str(files["c4"])]) == 3
    assert main(["verify", "axioms", "--file", str(files["c4"])]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_verify_uses_extra_file(files, capsys):
    """The extra carrier reaches every selected suite that takes its kind."""
    assert main(["verify", "all", "--file", str(files["p2"])]) == 0
    out = capsys.readouterr().out
    for row in ("thickening user", "attachment user~star-1", "bidirect user"):
        assert f"{row}: pass" in out
    assert main(["verify", "attachment", "--file", str(files["demo"])]) == 3
    assert "takes no BinaryMatrix" in capsys.readouterr().err


REFUSED_BY_ONE_SUITE = [
    ("dependent.matrix", "11\n11\n", "fullrank", "FullRowRankError"),
    ("disconnected.graph", "root 0\nedge 0 1\nedge 2 3\n", "attachment", "NotConnectedError"),
    ("disconnected.graph", "root 0\nedge 0 1\nedge 2 3\n", "bidirect", "NotConnectedError"),
    ("unreached.digraph", "root 0\narc 0 1\narc 2 1\n", "digon", "NotRootConnectedError"),
]


@pytest.mark.parametrize(
    "name, text, suite, error", REFUSED_BY_ONE_SUITE, ids=[f"{row[0]}-{row[2]}" for row in REFUSED_BY_ONE_SUITE]
)
def test_verify_all_runs_past_a_suite_whose_precondition_fails(tmp_path, capsys, name, text, suite, error):
    """A carrier that a suite's construction refuses leaves that suite to its
    built-in rows under ``all``, as a carrier of another kind does; run
    alone, the suite still refuses it."""
    path = tmp_path / name
    path.write_text(text)
    assert main(["verify", "all", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "thickening user: pass" in out and out.endswith("suite all: pass\n")
    labels = {line.split()[0] for line in out.splitlines()[:-1]}
    assert labels == {"thickening", "attachment", "fullrank", "stretch", "digon-stretch", "bidirect"}
    assert main(["verify", suite, "--file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1 and error in captured.err


def test_vertigan_template_bound_exit_code(tmp_path, capsys):
    seven = tmp_path / "seven.graph"
    seven.write_text("edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 0 5\nedge 0 3\n")
    assert main(["vertigan", str(seven), "--field", "gf2"]) == 4
    assert "21 elements" in capsys.readouterr().err


def test_vertigan_refuses_the_grid_by_its_kind_assignments(tmp_path, capsys):
    """The 3x4 grid's 17 edges fit 51 elements, but their 5^17 kind assignments pass 2^26."""
    grid = tmp_path / "grid.graph"
    edges = [(v, v + 1) for v in range(12) if v % 4 < 3] + [(v, v + 4) for v in range(8)]
    grid.write_text("".join(f"edge {a} {b}\n" for a, b in edges))
    started = time.perf_counter()
    assert main(["vertigan", str(grid), "--field", "gf2", "--max-elements", "51"]) == 4
    assert time.perf_counter() - started < 5
    assert "about 2^39 kind assignments" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["edge 0 0\nedge 0 1\n", "edge 0 1\nedge 3 4\n"], ids=["loop", "isolated vertex"])
def test_vertigan_refuses_a_graph_that_is_not_simple(tmp_path, capsys, text):
    path = tmp_path / "not-simple.graph"
    path.write_text(text)
    assert main(["vertigan", str(path), "--field", "gf2"]) == 3
    err = capsys.readouterr().err
    assert "NotSimpleError" in err and "Traceback" not in err


def test_rooted_file_to_unrooted_commands(tmp_path, capsys):
    """A rooted graph file given to an unrooted command is read as its underlying graph."""
    rooted, unrooted = tmp_path / "rooted.graph", tmp_path / "unrooted.graph"
    rooted.write_text("root 0\nedge 0 1\nedge 1 2\n")
    unrooted.write_text("edge 0 1\nedge 1 2\n")
    commands = [
        (["construct", "stretch", "{}", "--k", "2"], 0, "edge 4 2"),
        (["verify", "stretch", "--file", "{}"], 0, "stretch user: pass"),
        # three vertices: the graph is read, then recovery needs an even vertex count
        (["vertigan", "{}", "--field", "gf2"], 3, "OddVertexCountError"),
    ]
    for argv, code, expected in commands:
        outputs = []
        for path in (rooted, unrooted):
            assert main([str(path) if a == "{}" else a for a in argv]) == code, argv
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1], argv
        assert expected in outputs[0].out + outputs[0].err, argv


def test_negative_fraction_as_separate_argument(files, capsys):
    """A negative fraction after its option reads as with "=": argparse alone takes "-1/2" for an option."""
    p2 = str(files["p2"])
    for argv in (
        ["eval", p2, "--y", "2", "--x"],
        ["restrict", p2, "--curve", "liney", "--c"],
        ["reduce", "curve", p2, "--b", "3", "--a"],
    ):
        assert main(argv + ["-1/2"]) == 0, argv
        split = capsys.readouterr()
        assert main(argv[:-1] + [argv[-1] + "=-1/2"]) == 0, argv
        assert capsys.readouterr() == split and split.out, argv
    assert main(["eval", p2, "--x", "1", "--y", "1", "--max-elements", "-1"]) == 4


def test_verify_skips_rows_over_the_bound(tmp_path, capsys):
    """The digon 2-stretch of this digraph has 25 arcs: its row is skipped,
    the rest still run, and the exit code says a row was skipped."""
    path = tmp_path / "arborescences.digraph"
    path.write_text("root 0\narc 0 1\narc 0 2\narc 1 2\narc 2 1\narc 2 0\n")
    assert main(["verify", "all", "--file", str(path)]) == 4
    out = capsys.readouterr().out
    assert "thickening user: pass" in out
    assert "digon-stretch user: skipped (ground set has 25 elements" in out
    assert "bidirect two-parallel: pass" in out
    assert main(["verify", "all", "--file", str(path), "--max-elements", "25"]) == 0
    out = capsys.readouterr().out
    assert "digon-stretch user: pass" in out and "skipped" not in out


# Run the CLI in a child process whose address space is capped at 1.5 GiB.
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
from greedoid_tutte.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_oversized_profile_refused_before_allocating(tmp_path):
    """31 vertices and 100 edges: 3^30 vertex-set pairs or 2^100 subsets.
    Both are refused before any table is made, so the capped child exits 4
    with one error line and no traceback."""
    edges = tuple((i, (i + d) % 31) for d in (1, 2, 3, 4) for i in range(31))[:100]
    path = tmp_path / "big.graph"
    path.write_text(format_carrier(RootedGraph(31, edges, 0)))
    src = str(Path(greedoid_tutte.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["eval", str(path), "--x", "2", "--y", "2", "--max-elements", "100"]
    done = subprocess.run(
        [sys.executable, "-c", CAPPED, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 4, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "2^26" in lines[0]


def run_capped(argv):
    """The CLI on ``argv`` in a child process capped at 1.5 GiB, as above."""
    src = str(Path(greedoid_tutte.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", CAPPED, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_oversized_rank_table_refused_before_allocating(tmp_path):
    """path_graph(31) has 32 feasible sets, but the rank table of its 31
    edges would hold 2^31 entries: refused before it is made."""
    path = tmp_path / "p31.graph"
    path.write_text(format_carrier(path_graph(31)))
    done = run_capped(["verify", "axioms", "--file", str(path), "--max-elements", "31"])
    assert done.returncode == 4, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "2^26" in lines[0]


def test_long_path_profile_fits(tmp_path):
    """A path of 200 bridges: 200 blocks of 3 products each, and packed
    polynomials of about 16 million bits, within the limit and the cap."""
    path = tmp_path / "p200.graph"
    path.write_text(format_carrier(path_graph(200)))
    done = run_capped(["eval", str(path), "--x", "2", "--y", "2", "--max-elements", "200"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(2**200)


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises ``BrokenPipeError``.

    Its file descriptor is that of a scratch file, which the CLI may point
    at the null device."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_ends_quietly(files, tmp_path, monkeypatch, capsys):
    with monkeypatch.context() as patch, open(tmp_path / "stand-in", "w") as handle:
        patch.setattr(sys, "stdout", ClosedPipe(handle.fileno()))
        code = main(["tutte", str(files["p2"])])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_closed_pipe_leaves_no_traceback(files):
    """A child whose stdout pipe has no reader left exits with its own code and an empty stderr."""
    src = str(Path(greedoid_tutte.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    child = subprocess.Popen(
        [sys.executable, "-m", "greedoid_tutte.cli", "tutte", str(files["p2"])],
        env=env, stdout=write, stderr=subprocess.PIPE, text=True,
    )
    os.close(write)
    os.close(read)  # before the child has started up, let alone written
    _, err = child.communicate(timeout=60)
    assert child.returncode == 0
    assert err == ""


@pytest.mark.parametrize(
    "leaves, bound, figure",
    [
        (27, 27, "2^27 entries of a rank table"),  # refused before a feasible set is enumerated
        (16, 20, "2^30 pairs of feasible sets"),  # 2^16 feasible sets, refused before the pair loop
    ],
)
def test_verify_axioms_refused_before_its_loops(tmp_path, capsys, leaves, bound, figure):
    path = tmp_path / "star.graph"
    path.write_text(format_carrier(star_graph(leaves)))
    start = time.perf_counter()
    assert main(["verify", "axioms", "--file", str(path), "--max-elements", str(bound)]) == 4
    assert figure in capsys.readouterr().err
    assert time.perf_counter() - start < 20


def test_verify_stretch_skips_a_long_path(tmp_path, capsys):
    """30 edges within a bound of 100 elements, but 2^30 edge subsets: that row is skipped."""
    path = tmp_path / "p30.graph"
    path.write_text("".join(f"edge {i} {i + 1}\n" for i in range(30)))
    assert main(["verify", "stretch", "--file", str(path), "--max-elements", "100"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["stretch single-edge: pass", "stretch path-2: pass", "stretch triangle: pass"]
    assert lines[3].startswith("stretch user: skipped") and "2^30 steps over edge subsets" in lines[3]


def test_construct_takes_no_element_bound(files, capsys):
    """A construction enumerates nothing, so it has no --max-elements to ignore."""
    with pytest.raises(SystemExit) as exit_info:
        main(["construct", "thicken", str(files["p2"]), "--max-elements", "3"])
    assert exit_info.value.code == 2
    assert "--max-elements" in capsys.readouterr().err
