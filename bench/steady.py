"""Run every workload repeatedly and report each metric's median and quartiles.

    python3 bench/steady.py --runs 10 --first-seed 1
    python3 bench/steady.py --compare bench/out/steady-seed1.json bench/out/steady-seed101.json

Run i uses seed ``first_seed + i``; the workload order alternates between
runs so that no workload always runs first.  Each run is ``bench/run.py``
with the run length from ``BENCHMARK.json``.  Besides the end-to-end metrics
it reports the raw seconds per op and of the reference computation, so their
spread can be set beside the spread of the normalised ``op_cost_*``.  The
summary is written to ``bench/out/steady-seed<first_seed>.json``.

``--compare`` reads two such summaries and prints, per workload and metric,
how far the second median moved from the first, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RAW = ("op_s_p50", "op_s_mean", "ref_s_p50")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({done.returncode}): {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({name: detail[name] for name in RAW})
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs: dict, bounds: dict) -> None:
    for workload, rows in runs.items():
        failed = {(r["failed"], r["attempted"]) for r in rows}
        print(f"\n{workload}: {len(rows)} runs, correct {all(r['correct'] for r in rows)}, "
              f"(failed, attempted) {sorted(failed)}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in rows[0]["values"]:
            values = [r["values"][name] for r in rows]
            q1, med, q3 = quartiles(values)
            bound = bounds.get(name)
            mark = "" if bound is None else f"{bound:>6}" + (
                "" if (q3 - q1) / med <= bound / 3 else "  > bound/3")
            print(f"  {name:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {(q3 - q1) / med:>8.2%} {mark}")


def compare(first: dict, second: dict, bounds: dict) -> None:
    for workload in first["runs"]:
        a, b = first["runs"][workload], second["runs"][workload]
        print(f"\n{workload}")
        for name in a[0]["values"]:
            ma = statistics.median(r["values"][name] for r in a)
            mb = statistics.median(r["values"][name] for r in b)
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if mb <= ma * (1 + bound) else "WORSE than bound")
            print(f"  {name:<14} {ma:>12.5g} -> {mb:>12.5g} ({mb / ma - 1:+.2%}) {verdict}")
        shares = {r["failed"] / r["attempted"] for r in a + b}
        print(f"  failed share over both sets: {sorted(shares)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY")
    args = parser.parse_args(argv)
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(first, second, bounds)
        return 0
    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list] = {name: [] for name in names}
    for i in range(args.runs):
        for workload in names if i % 2 == 0 else names[::-1]:
            row = one_run(workload, args.first_seed + i, bench["run_seconds"])
            runs[workload].append(row)
            print(f"run {i} {workload} seed {row['seed']}: "
                  + ", ".join(f"{k} {v:.5g}" for k, v in row["values"].items()), flush=True)
    summarise(runs, bounds)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"steady-seed{args.first_seed}.json"
    path.write_text(json.dumps({"first_seed": args.first_seed, "runs": runs}, indent=1) + "\n")
    print(f"\nsummary written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
