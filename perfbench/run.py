"""The pomsetblock benchmark: CLI wall time on three workloads.

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Inputs are generated from ``--seed`` (see
gen.py) into ``perfbench/out/seed-<seed>/``. An untraced run (``--trace 0``)
runs the workload's job list as `python3 -m pomsetblock.cli` subprocesses,
one at a time (a closed loop with one client), pass after pass while
``--seconds`` allows another whole pass, and prints the end-to-end metrics.
A traced run (``--trace 1``) replays one pass in-process through
`pomsetblock.cli.main`, first plain and then with the layers wrapped (see
tracer.py), and prints the per-layer metrics and the tracing overhead.

Every job's exit code is compared with the verdict the oracles expect, and
its stdout is checked by oracles.py and must be byte-identical in every
pass. The last line of stdout is one JSON object: ``correct``,
``attempted`` and ``failed`` jobs, and ``metrics`` by name with unit.
Results and traces are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import gen
import oracles
import selfcheck
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Set-up runs per benchmark run; setup_s is their median.
SETUP_REPS = 5
#: Every run ends within this many seconds; a job still running then is
#: killed and the rest of its pass counts as failed.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_s.p50": "s",
    "slowest_job_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pomset.ideals_of_cardinality.calls": "count",
    "pomset.ideals_of_cardinality.self_s": "s",
    "pomset.ideals_enumerated": "count",
    "pomset.ideals_enumerated_per_distinct": "ratio",
    "pomset.generated_counts.calls": "count",
    "balls.r_ball_size.s": "s",
    "balls.r_sphere_size.calls": "count",
    "balls.i_sphere_size.calls": "count",
    "balls.profile_census.s": "s",
    "balls.profile_census.calls": "count",
    "balls.full_count_structure.s": "s",
    "balls.i_ball.s": "s",
    "balls.membership_tests": "count",
    "balls.membership_hit_ratio": "ratio",
    "weight_dist.weight_distribution.s": "s",
    "weight_dist.weight_shell_size.calls": "count",
    "weight_dist.weight_distribution_enumerated.s": "s",
    "block_space.vectors_yielded": "count",
    "block_space.weight.calls": "count",
    "block_space.weight.self_s": "s",
    "multiset.constructed": "count",
    "codes.verify_perfect.s": "s",
    "codes.dual_code.s": "s",
    "codes.linear.s": "s",
    "codes.min_distance.s": "s",
    "codes.construct.s": "s",
    "codes.from_generators.s": "s",
    "codes.from_generators.words": "count",
    "chain.packing_radius.s": "s",
    "chain.duality_equivalence.s": "s",
    "chain.singleton_report.s": "s",
    "fileio.load_space.s": "s",
    "fileio.load_code.s": "s",
    "cli.job.s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}

SETUP_SCRIPT = """
import sys
from pomsetblock import load_code, load_space
args = iter(sys.argv[1:])
for space_path, code_path in zip(args, args):
    space = load_space(space_path)
    if code_path != "-":
        load_code(space, code_path)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, cwd, timeout):
    """Run ``cmd`` to its end; returns (exit code, wall s, cpu s, peak RSS MB,
    stdout, stderr).

    Output is drained from pipes by two threads (a file would put the
    file system's write-back into the timing), and the child is reaped with
    wait4, so its CPU time and peak RSS are its own.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out: dict[str, bytes] = {}

    def drain(name, pipe):
        out[name] = pipe.read()

    readers = [threading.Thread(target=drain, args=("stdout", proc.stdout)),
               threading.Thread(target=drain, args=("stderr", proc.stderr))]
    killer = threading.Timer(max(timeout, 0.1), proc.kill)
    for t in readers + [killer]:
        t.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
            out["stdout"], out["stderr"])


class Run:
    def __init__(self, workdir: Path, deadline: float):
        self.dir = workdir
        self.deadline = deadline
        self.jobs = json.loads((workdir / "jobs.json").read_text())["jobs"]
        self.problems: list[str] = []  # wrong outputs
        self.failures: list[str] = []  # jobs that did not run to their verdict
        self.attempted = 0
        self.failed = 0

    # ----- untraced ------------------------------------------------------------

    def setup_times(self) -> list[float]:
        pairs = []  # distinct (space, code or "-") pairs the jobs read
        for job in self.jobs:
            space, *code = oracles.job_files(job["argv"])
            pair = (space, code[0] if code else "-")
            if pair not in pairs:
                pairs.append(pair)
        cmd = [sys.executable, "-c", SETUP_SCRIPT, *(p for pair in pairs for p in pair)]
        times = []
        for _ in range(SETUP_REPS):
            code, wall, _, _, _, err = spawn(cmd, self.dir, self.deadline - perf_counter())
            if code != 0:
                self.problems.append(f"set-up exited {code}: {err[-300:]!r}")
            times.append(wall)
        return times

    def run_pass(self) -> tuple[list, float]:
        """One pass over the job list: per-job results (None for a failed
        job) and the pass's wall time."""
        t0 = perf_counter()
        results = []
        for job in self.jobs:
            self.attempted += 1
            left = self.deadline - perf_counter()
            if left <= 0:
                self.failed += 1
                self.failures.append(f"job {' '.join(job['argv'])!r} not started "
                                     "before the deadline")
                results.append(None)
                continue
            code, wall, cpu, rss, stdout, stderr = spawn(
                [sys.executable, "-m", "pomsetblock.cli", *job["argv"]], self.dir, left)
            res = {"exit": code, "wall": wall, "cpu": cpu, "rss": rss,
                   "stdout": stdout}
            if code != job["exit"] or stderr:
                self.failed += 1
                self.failures.append(
                    f"job {' '.join(job['argv'])!r} exited {code} (want {job['exit']}): "
                    f"{stderr[-300:].decode(errors='replace')}")
                res = None
            results.append(res)
        return results, perf_counter() - t0

    def untraced(self, seconds: float) -> dict:
        setup = self.setup_times()
        passes, walls = [], []
        while True:
            results, wall = self.run_pass()
            passes.append(results)
            walls.append(wall)
            # start another whole pass only if it should end within --seconds
            elapsed = sum(walls)
            if (elapsed + elapsed / len(walls) > seconds
                    or perf_counter() + elapsed / len(walls) > self.deadline):
                break
        self.check_outputs([[r and r["stdout"] for r in p] for p in passes])
        for idx, job in enumerate(self.jobs):
            walls_of_job = [p[idx]["wall"] for p in passes if p[idx]]
            job["wall_s"] = statistics.median(walls_of_job) if walls_of_job else None
        done = [[r for r in p if r] for p in passes]
        jobs = [r for p in done for r in p]
        if not jobs:
            return {}
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(sum(r["cpu"] for r in p) for p in done if p),
            "job_s.p50": statistics.median(r["wall"] for r in jobs),
            "slowest_job_s": statistics.median(max(r["wall"] for r in p)
                                               for p in done if p),
            "peak_rss_mb": max(r["rss"] for r in jobs),
        }

    def check_outputs(self, passes) -> None:
        """Oracle-check each job once; later passes must repeat it byte for byte."""
        for idx, job in enumerate(self.jobs):
            outs = [p[idx] for p in passes if p[idx] is not None]
            if not outs:
                continue
            if any(o != outs[0] for o in outs):
                self.problems.append(f"job {' '.join(job['argv'])!r}: stdout differs between passes")
            try:
                found = oracles.check(job["argv"], outs[0].decode(), self.dir)
            except (ValueError, KeyError, IndexError, StopIteration) as exc:
                found = [f"output does not parse: {exc!r}"]
            for text in found:
                self.problems.append(f"job {' '.join(job['argv'])!r}: {text}")

    # ----- traced ------------------------------------------------------------------

    @staticmethod
    def replay(cli, jobs) -> list[tuple[int, bytes, float]]:
        """Run jobs through ``cli.main``; (exit code, stdout, seconds) each."""
        out = []
        for job in jobs:
            buf, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(job["argv"])
                except SystemExit as exc:
                    code = exc.code
            out.append((code, buf.getvalue().encode(), perf_counter() - t0))
        return out

    def traced(self) -> dict:
        """Replay one pass plain, then traced job by job; the per-job
        stats are kept on the job entries for the trace file."""
        sys.path.insert(0, str(SRC))
        import pomsetblock
        import pomsetblock.cli as cli

        here = os.getcwd()
        os.chdir(self.dir)
        spans = tracer.Tracer()
        totals: dict[str, list] = {}
        counts: dict[str, int] = {}
        traced = []
        try:
            plain = self.replay(cli, self.jobs)
            spans.install(pomsetblock)
            try:
                for job in self.jobs:
                    spans.reset()
                    traced += self.replay(cli, [job])
                    job["trace"] = {"stats": spans.stats, "counts": spans.counts}
                    for name, st in spans.stats.items():
                        acc = totals.setdefault(name, [0, 0.0, 0.0])
                        for k in range(3):
                            acc[k] += st[k]
                    for name, c in spans.counts.items():
                        counts[name] = counts.get(name, 0) + c
            finally:
                spans.uninstall()
        finally:
            os.chdir(here)
        for job, (code, _, _), (tcode, _, _) in zip(self.jobs, plain, traced):
            self.attempted += 1
            if code != job["exit"] or tcode != job["exit"]:
                self.failed += 1
                self.failures.append(f"job {' '.join(job['argv'])!r} exited "
                                     f"{code}/{tcode} in-process (want {job['exit']})")
        self.check_outputs([[o for _, o, _ in plain], [o for _, o, _ in traced]])
        distinct = sum(oracles.distinct_ideals(
            oracles.read_space(self.dir / oracles.job_files(j["argv"])[0])) for j in self.jobs)
        return self.layer_metrics(totals, counts, plain, traced, distinct)

    @staticmethod
    def layer_metrics(totals, counts, plain, traced, distinct) -> dict:
        def stat(name, k):
            return totals.get(name, [0, 0.0, 0.0])[k]

        tests = counts.get("balls.membership_tests", 0)
        plain_s = sum(t for _, _, t in plain)
        traced_s = sum(t for _, _, t in traced)
        m = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                m[name] = stat(base, 0)
            elif kind == "s":
                m[name] = stat(base, 1)
            elif kind == "self_s":
                m[name] = stat(base, 2)
        m.update({
            "pomset.ideals_enumerated": counts.get("pomset.ideals_enumerated", 0),
            "pomset.ideals_enumerated_per_distinct":
                counts.get("pomset.ideals_enumerated", 0) / distinct,
            "balls.membership_tests": tests,
            "balls.membership_hit_ratio":
                counts.get("balls.membership_hits", 0) / tests if tests else 0.0,
            "block_space.vectors_yielded": counts.get("block_space.vectors_yielded", 0),
            "multiset.constructed": counts.get("multiset.constructed", 0),
            "codes.construct.s": stat("codes.construct_perfect_full", 1)
                                 + stat("codes.construct_perfect_partial", 1),
            "codes.from_generators.words": counts.get("codes.from_generators.words", 0),
            "cli.job.s": plain_s,
            "cli.stdout_bytes": sum(len(o) for _, o, _ in plain),
            "trace.overhead_s": traced_s - plain_s,
        })
        return m


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    inputs = OUT / f"seed-{seed}"
    gen.generate(seed, inputs, [workload])
    run = Run(inputs / workload, deadline)
    run.problems += selfcheck.run(SRC)
    if trace:
        metrics, units = run.traced(), PER_LAYER
    else:
        metrics, units = run.untraced(seconds), END_TO_END
    # per-job wall times (untraced) or per-job spans and counts (traced)
    (OUT / f"{'trace' if trace else 'jobs'}-{workload}-seed{seed}.json").write_text(
        json.dumps(run.jobs, indent=1) + "\n")
    missing = [k for k in units if k not in metrics]
    if missing:
        run.problems.append(f"no value for {missing}")
    for text in run.failures + run.problems:
        print(f"{workload}: {text}", file=sys.stderr)
    res = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
           "metrics": {k: {"value": metrics[k], "unit": u}
                       for k, u in units.items() if k in metrics}}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    return res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pomsetblock" / "cli.py").is_file():
        print(f"perfbench: no pomsetblock sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = perf_counter() + DEADLINE_S
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        for metric, val in res["metrics"].items():
            print(f"{name}\t{metric}\t{val['value']:.6g}\t{val['unit']}")
        print(f"{name}\tattempted\t{res['attempted']}\tjobs\n{name}\tfailed\t{res['failed']}\tjobs")
    merged = {f"{name}.{k}": v for name, res in results.items()
              for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
