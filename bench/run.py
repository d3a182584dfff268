"""Benchmark of the greedoid_tutte library: one workload, one seed, one run.

    python3 bench/run.py --workload profile-queries --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and from nowhere else.  A run works through
a fixed, seeded list of ``round(seconds * ops_per_second)`` ops, never "as
many as fit", so every run of a workload does the same work.

Set-up is timed from the start of this script to the first timed op, once
here and once in each of ``SETUP_REPEATS - 1`` fresh processes
(``--setup-only``) started one at a time between timed ops, spaced evenly
over the run so that the passes see different stretches of the host's speed;
``setup_s`` is the median of those passes.

Each op is timed together with a fixed pure-Python reference computation run
just before it in the same process.  An op's cost is its wall time divided by
that reference's wall time, which cancels most of the host's speed.  Outputs
are checked outside the timed region against the independent computations in
``checks.py``.  An op fails when it raises or when a check fails, and
either sets ``correct`` to false: a run with ``failed > 0`` is not a valid
measurement, since its costs come only from the ops that survived.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the run first repeats itself untraced
in a child process, then runs traced and reports the per-layer metrics.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
REFERENCE_STEPS = 50_000
REFERENCE_RESULT = (9436021086310362577, 35117, 48800, 375655)


def reference():
    """The fixed yardstick each op is divided by: a 64-bit linear congruential
    generator feeding a set and a dict, standard library only.

    The dict is keyed over a 2^20 range, so it grows to tens of thousands of
    entries and, like the library's own tables, no longer fits in a core's
    L2 cache; a yardstick that lives in L2 sped up more than the ops did when
    the shared host got faster.
    """
    x = 1
    seen = set()
    buckets = {}
    for _ in range(REFERENCE_STEPS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        seen.add(x >> 48)
        key = x >> 44
        buckets[key] = buckets.get(key, 0) + (x >> 60)
    return x, len(seen), len(buckets), sum(buckets.values())


def op_rng(seed: int, tag) -> random.Random:
    return random.Random(f"greedoid-tutte bench {seed} {tag}")


# The warm-up op's input is the same for every seed, so set-up does the same
# work in every run.
WARM_UP_RNG = "greedoid-tutte bench warm-up"


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="stop before the first timed op and print the set-up time as JSON "
        "(the run uses this to time set-up in fresh processes)",
    )
    return parser.parse_args(argv)


def child_run(args, *extra) -> dict:
    """Run this script on the same workload, seed and length in a child
    process and return the JSON object on its last line."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        *extra,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"child run failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def set_up(gt, workload, args):
    """Generate and parse every op's input, then run one warm-up op.

    Returns the prepared items and, if the warm-up op raised, a description.
    """
    count = max(1, round(args.seconds * workload.ops_per_second))
    specs = [workload.generate(op_rng(args.seed, i)) for i in range(count)]
    items = [workload.prepare(gt, spec) for spec in specs]
    warm = workload.prepare(gt, workload.generate(random.Random(WARM_UP_RNG)))
    try:
        workload.run(gt, warm)
    except Exception as exc:  # reported, and the run is marked incorrect
        return items, f"warm-up op raised {type(exc).__name__}: {exc}"
    return items, None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "greedoid_tutte" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    untraced = child_run(args) if args.trace else None

    sys.path.insert(0, str(SRC))
    import greedoid_tutte as gt

    if not Path(gt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported greedoid_tutte from {gt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    workload = workloads.WORKLOADS[args.workload]
    run_op = workload.run
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(gt)
        run_op = tracer.wrap(tracing.OP_SPAN, workload.run)

    items, warm_problem = set_up(gt, workload, args)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.set_phase("ops")

    op_s, ref_s = [], []
    count = len(items)
    failed = 0
    correct = warm_problem is None
    if warm_problem:
        print(warm_problem, file=sys.stderr)
    setup_passes = [setup_s]
    pass_before = [] if tracer else [count * j // SETUP_REPEATS for j in range(1, SETUP_REPEATS)]
    for i, item in enumerate(items):
        for _ in range(pass_before.count(i)):
            setup_passes.append(child_run(args, "--setup-only")["setup_s"])
        t0 = time.perf_counter()
        yardstick = reference()
        t1 = time.perf_counter()
        try:
            result = run_op(gt, item)
        except Exception as exc:  # an op that raises fails, and so does the run
            failed += 1
            correct = False
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        t2 = time.perf_counter()
        problem = None if yardstick == REFERENCE_RESULT else f"reference gave {yardstick}"
        problem = problem or workload.check(gt, item, result)
        if problem:
            failed += 1
            correct = False
            print(f"op {i} wrong: {problem}", file=sys.stderr)
            continue
        ref_s.append(t1 - t0)
        op_s.append(t2 - t1)

    print(f"{args.workload} seed {args.seed}: {count} ops attempted, {failed} failed")
    if not op_s:
        print("error: no op completed, so no cost can be reported", file=sys.stderr)
        return 1
    costs = [o / r for o, r in zip(op_s, ref_s)]
    op_cost_p50 = statistics.median(costs)
    detail = {
        "ops": len(op_s),
        "op_s_p50": statistics.median(op_s),
        "op_s_mean": sum(op_s) / len(op_s),
        "ref_s_p50": statistics.median(ref_s),
        "op_cost_p50": op_cost_p50,
    }
    if not tracer:
        detail["setup_passes_s"] = setup_passes
    print(
        f"raw seconds per op: p50 {detail['op_s_p50']:.4f}, mean {detail['op_s_mean']:.4f}; "
        f"reference p50 {detail['ref_s_p50']:.4f}"
    )
    print("detail " + json.dumps(detail))

    if tracer:
        metrics, missing = tracer.layer_metrics("ops")
        untraced_p50 = untraced["metrics"]["op_cost_p50"]["value"]
        inside, uncovered = tracer.op_accounting()
        overhead = op_cost_p50 / untraced_p50 - 1
        metrics["trace.op_cost_p50"] = {"value": op_cost_p50, "unit": "ref"}
        metrics["trace.untraced_op_cost_p50"] = {"value": untraced_p50, "unit": "ref"}
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        metrics["trace.unaccounted_share"] = {"value": uncovered / inside, "unit": "ratio"}
        for name in tracer.missing:
            print(f"missing function: {name}")
        for name in missing:
            print(f"missing: {name} (its library functions no longer exist)")
        print(
            f"tracing overhead {overhead:+.1%} on op_cost_p50; layers' self times cover "
            f"{1 - uncovered / inside:.1%} of traced op time "
            f"({'within' if uncovered / inside <= abs(overhead) else 'outside'} the overhead)"
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(BENCH_DIR.parent)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(detail["setup_passes_s"]), "unit": "s"},
            "op_cost_p50": {"value": op_cost_p50, "unit": "ref"},
            "op_cost_mean": {"value": sum(op_s) / sum(ref_s), "unit": "ref"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    print(json.dumps({"correct": correct, "attempted": count, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
