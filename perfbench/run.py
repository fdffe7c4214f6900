"""qwick benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload expand --seed 0 --seconds 30 --trace 0

Run it from the root of a qwick checkout.  The run is one single-threaded
interpreter that imports qwick from ``./src`` once and calls
``qwick.cli.main(argv)`` for each job.  With ``--trace 0`` it repeats the job
list until the seconds are spent, timing a fixed reference kernel after
each pass and a separate interpreter start between passes, and reports the
end-to-end metrics, with times scaled to the reference kernel.  With ``--trace 1`` it
alternates plain passes with passes in which every public qwick function is
wrapped, and reports the per-layer metrics.  Stdout of every job is captured
in memory and checked after its timed call.  Metric names and units come from
BENCHMARK.json.  The last stdout line is the result object; the full result
set, with the environment, goes to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
HASH_SEED = "0"
SETUP_SHARE = 0.25
# Times are reported in reference seconds: scaled so that the reference
# kernel's fastest run takes REFERENCE_S, about what it took on the host
# this was built on (2 vCPUs of an Intel Xeon VM, CPython 3.11.7).
REFERENCE_S = 0.006
REFERENCE_OUT = (
    '{"0": "42", "1": "60", "2": "60", "3": "195/4", "4": "33", "5": "39/2", '
    '"6": "10", "7": "35/8", "8": "5/3", "9": "1/2", "10": "1/11"}'
)


class Sink:
    """Stands in for sys.stdout during a job; keeps what was written."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def fastest(passes: list[list[dict]], key: str) -> float:
    """Per job, the fastest sample over the passes, summed over the job list.

    The host this was built on alternates between a fast phase and one about
    1.8x slower, each lasting seconds, so a median reads the share of slow
    phases in the run rather than the code.
    """
    return sum(min(s[key] for s in runs) for runs in zip(*passes))


def reference() -> str:
    """Fixed pure-Python work that no change to qwick touches: the perfect
    matchings of 10 points, summed as Fractions by crossing number and
    rendered as JSON, the same kind of work the jobs do.  Its fastest time in
    a run says how fast the host ran during that run."""

    def matchings(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for i, other in enumerate(rest):
            for tail in matchings(rest[:i] + rest[i + 1 :]):
                yield ((first, other),) + tail

    acc = {}
    for m in matchings(tuple(range(10))):
        c = sum(1 for a, b in m for x, y in m if a < x < b < y)
        acc[c] = acc.get(c, Fraction(0)) + Fraction(1, c + 1)
    return json.dumps({str(k): str(v) for k, v in sorted(acc.items())})


def time_reference() -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    out = reference()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if out != REFERENCE_OUT:
        raise RuntimeError(f"reference kernel gave {out}")
    return {"wall": wall, "cpu": cpu}


def run_pass(cli, jobs, argvs, expected) -> list[dict]:
    samples = []
    for job, argv in zip(jobs, argvs):
        sink = Sink()
        crash = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # a crashing job is a failed sample, and the pass goes on;
                # 1 is what `python -m qwick` exits with on an uncaught exception
                rc, crash = 1, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        sha, size, error = workloads.check(job, sink.chunks, rc, expected)
        error = crash or error
        samples.append(
            {"wall": wall, "cpu": cpu, "rc": rc, "sha256": sha, "bytes": size, "error": error}
        )
    return samples


def time_setup(src: Path) -> float:
    """Wall time of a fresh interpreter that imports qwick.cli.  Taken
    between passes, so the samples spread over the run; this process only
    waits meanwhile.  No timeout: with one, the wait polls with sleeps of up
    to 50 ms and the reading snaps to that grid."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qwick.cli"], env=env, check=True)
    return time.perf_counter() - start


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args, argvs) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [" ".join(argv) for argv in argvs],
    }


def measure_plain(cli, jobs, argvs, expected, seconds, src) -> tuple[list, dict]:
    passes, setup, ref = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, jobs, argvs, expected))
        ref.append(time_reference())
        # set-up samples take at most a quarter of the run
        if sum(setup) < SETUP_SHARE * (time.perf_counter() - start):
            setup.append(time_setup(src))
    samples = [s for run in passes for s in run]
    raw = {
        "wall_s": fastest(passes, "wall"),
        "cpu_s": fastest(passes, "cpu"),
        "setup_s": min(setup),
        "reference_wall_s": min(r["wall"] for r in ref),
        "reference_cpu_s": min(r["cpu"] for r in ref),
    }
    wall_scale = REFERENCE_S / raw["reference_wall_s"]
    values = {
        "wall_s": raw["wall_s"] * wall_scale,
        "cpu_s": raw["cpu_s"] * REFERENCE_S / raw["reference_cpu_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": raw["setup_s"] * wall_scale,
        "pass_ratio": sum(s["error"] is None for s in samples) / len(samples),
    }
    return passes, {"values": values, "raw": raw, "setup": setup, "reference": ref}


def measure_traced(cli, jobs, argvs, expected, seconds, spans_out) -> tuple[list, dict]:
    # plain and traced passes alternate until the seconds are spent; the
    # first traced pass gives the spans and counts, and every pass gives
    # samples for the overhead
    plain, traced, first = [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(cli, jobs, argvs, expected))
        tracer = Tracer()
        tracer.install()
        traced.append(run_pass(cli, jobs, argvs, expected))
        tracer.uninstall()
        first = first or tracer
    agg = first.aggregates()
    values = first.metrics(agg)
    values["cli.stdout_bytes"] = sum(s["bytes"] for s in traced[0])
    values["trace.wall_s"] = fastest(traced, "wall")
    values["trace.overhead_s"] = values["trace.wall_s"] - fastest(plain, "wall")
    first.dump(
        spans_out, {"jobs": argvs, "absent": first.absent, "aggregates": agg, "metrics": values}
    )
    return plain + traced, {"values": values, "absent": first.absent}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="result-set file")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "qwick" / "cli.py").is_file():
        print(f"run.py: no qwick source under {src}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the same seed must give the same set orders, hence the same counts
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    sys.path.insert(0, str(src))
    import qwick.cli

    if src not in Path(qwick.cli.__file__).resolve().parents:
        print(f"run.py: qwick imported from {qwick.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = args.out or out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    jobs = workloads.job_list(args.workload, args.seed)
    argvs = [job.argv() for job in jobs]
    expected = workloads.load_expected()
    if args.trace:
        spans_out = out_path.with_suffix(".spans.json.gz")
        passes, extra = measure_traced(qwick.cli, jobs, argvs, expected, args.seconds, spans_out)
    else:
        passes, extra = measure_plain(qwick.cli, jobs, argvs, expected, args.seconds, src)
    values = extra.pop("values")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    samples = [s for run in passes for s in run]
    summary = {
        "correct": all(s["error"] is None for s in samples),
        "attempted": len(samples),
        "failed": sum(s["error"] is not None for s in samples),
        "metrics": metrics,
    }
    record = {**summary, "env": environment(root, args, argvs), "passes": passes, **extra}
    out_path.write_text(json.dumps(record, indent=1))

    print(f"# {json.dumps(record['env'])}")
    print(f"# passes={len(passes)} absent={record.get('absent', [])}")
    failures = Counter(
        (" ".join(argv), sample["error"].strip().splitlines()[-1])
        for run in passes
        for argv, sample in zip(argvs, run)
        if sample["error"] is not None
    )
    for (cmd, error), count in failures.items():
        print(f"# FAIL x{count} {cmd}: {error}")
    for name, metric in metrics.items():
        print(f"{name:34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
