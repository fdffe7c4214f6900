"""Compare the end-to-end metrics of two qwick checkouts, run as pairs.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR [--pairs 10]

Both checkouts are measured with this copy of the benchmark, on every workload
and with the run length that BENCHMARK.json sets.  Pair i runs seed i on both sides, base first when i is even and
head first when it is odd.  For each workload and metric it prints each side's
median and quartiles, the share of pairs head won (ties count for neither)
and a verdict:

- better: head won at least 9/10 of the pairs and the medians differ by more
  than the base's own quartile distance;
- worse: head's median is worse than base's by more than the metric's bound;
- unresolved: either side's quartile distance exceeds the bound, unless every
  head run beat every base run;
- same: none of the above.

Each run's result set is kept under perfbench/out/compare/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_side(checkout: Path, side: str, workload: str, seed: int) -> dict:
    out = HERE / "out" / "compare" / f"{side}-{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "0", "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"compare: {side} run failed on {workload} seed {seed}")
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, base: list[float], head: list[float]) -> tuple[float, str]:
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    share = wins / len(base)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    spread = max((bq3 - bq1) / bmed if bmed else 0, (hq3 - hq1) / hmed if hmed else 0)
    worse_by = -sign * (hmed - bmed) / bmed if bmed else 0.0
    if all(sign * (h - b) > 0 for h in head for b in base):
        return share, "better"
    if spread > metric["bound"]:
        return share, "unresolved"
    if worse_by > metric["bound"]:
        return share, "worse"
    if share >= 0.9 and sign * (hmed - bmed) > bq3 - bq1:
        return share, "better"
    return share, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                results[side].append(run_side(sides[side], side, workload, i))
        for side, runs in results.items():
            env = runs[0]["env"]
            bad = sum(not r["correct"] for r in runs)
            print(f"# {workload} {side}: commit={env['git_commit']} python={env['python']} "
                  f"nproc={env['nproc']} cpu={env['cpu_model']!r} incorrect_runs={bad}")
        print(f"{'workload':9} {'metric':12} {'base median [q1, q3]':>30} "
              f"{'head median [q1, q3]':>30} {'won':>5}  verdict")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in results["base"]]
            head = [r["metrics"][name]["value"] for r in results["head"]]
            share, word = verdict(metric, base, head)
            cells = []
            for values in (base, head):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:9} {name:12} {cells[0]:>30} {cells[1]:>30} {share:>5.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
