"""Short texts built from the carrier file grammar's tokens never make the
command line crash: every run ends with a documented exit code and no
traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from greedoid_tutte.cli import main

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

TOKENS = ("root", "edge", "arc", "0", "1", "2", "3", "01", "10", "110", "-1", "x", "1.5", "999", "#", "junk", "")
BAD_IDS = ("-1", "x", "1.5", "999", "")
ROWS = ("0", "1", "01", "10", "11", "011", "110", "0 1", "012")


@st.composite
def texts(draw):
    """Mostly well-formed edge, arc or matrix files, with a bad line or token now and then."""
    kind = draw(st.sampled_from(("edge", "arc", "matrix", "any")))
    ids = st.sampled_from(("0", "1", "2", "3") * 10 + BAD_IDS)
    width = draw(st.integers(1, 4))
    row = st.text("01", min_size=width, max_size=width)
    lines = [f"root {draw(ids)}"] if kind != "matrix" and draw(st.integers(0, 4)) else []
    for _ in range(draw(st.integers(0, 9))):
        choice = draw(st.integers(0, 19))
        if choice == 0:
            lines.append(" ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=4))))
        elif choice == 1:
            lines.append(draw(st.sampled_from(ROWS)))
        elif kind == "matrix":
            lines.append(draw(row))
        else:
            word = draw(st.sampled_from(("edge", "arc"))) if kind == "any" else kind
            lines.append(f"{word} {draw(ids)} {draw(ids)}")
    return "\n".join(lines)


COMMANDS = (["tutte"], ["eval", "--x", "2", "--y", "3"])


def run(argv) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@PROPERTY
@given(texts())
def test_file_texts_end_in_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "carrier.txt"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            code, err = run([command[0], str(path), *command[1:], "--max-elements", "6"])
            assert code in {0, 1, 2, 3, 4}
            assert "Traceback" not in err
            assert code == 0 or err.startswith("error: ")
