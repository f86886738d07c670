"""Benchmark of the `wiretap` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `wiretap` is imported from its
`src/`.  One process per workload calls `wiretap.cli.main` in-process,
round after round, on input files made from the seed, until `--seconds`
have passed.  Set-up (importing `wiretap` and writing the inputs) is timed
in this process and in SETUP_PROBES fresh processes; the median is
reported.  Times are reported at a reference machine speed (see
`calibrate`).  With `--trace 0` the last line of stdout is a JSON object with
the end-to-end metrics; with `--trace 1` half the time runs untraced and
half traced, and the per-layer metrics are reported instead (see
README.md).  Outputs are checked after each round, outside the timed part.
"""

from __future__ import annotations

import os

# One BLAS thread: every timed figure comes from one single-threaded process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
# Calibration kernel time that defines the reference machine speed.
CAL_REF_S = 0.02
CAL_ITERS = 300


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def calibrate() -> float:
    """Wall time of a fixed kernel of small numpy calls and Python loops.

    On a shared virtual machine the speed of the vCPUs drifts by a third
    for minutes at a time, and wall times with it.  Every time the
    benchmark reports is taken between calibration samples and scaled by
    CAL_REF_S / (calibration time), so it reads in seconds at the speed at
    which this kernel takes CAL_REF_S.  The kernel depends on nothing in
    the program: a change to the program moves scaled times as it moves
    wall times.
    """
    import numpy as np

    a = np.arange(64.0).reshape(8, 8) % 7
    a = a @ a.T + 1j * (a - a.T)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        w = np.linalg.eigvalsh(a)
        k = np.kron(a[:2, :2], a[:4, :4])
        acc += sum(float(x) for x in w) + k[0, 0].real
        d = {j: j * i for j in range(20)}
        acc += sum(d.values())
    return time.perf_counter() - t0


def import_wiretap() -> float:
    """Import `wiretap` from this checkout's `src/`; return the seconds taken."""
    if not (SRC / "wiretap" / "__init__.py").is_file():
        raise BenchError(f"no wiretap package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import wiretap
    import wiretap.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(wiretap.__file__).resolve().parent != SRC / "wiretap":
        raise BenchError(f"wiretap was imported from {wiretap.__file__}, not {SRC}")
    return elapsed


def setup_sample(args, workdir: Path):
    """Time `import wiretap` and the writing of the inputs, in this process,
    between two calibration samples (numpy is loaded by the first)."""
    calibrate()  # warm-up: loads numpy and LAPACK
    cal_before = calibrate()
    import_s = import_wiretap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed, str(workdir))
    calls = wl.write_inputs()
    inputs_s = time.perf_counter() - t0
    cal_s = (cal_before + calibrate()) / 2
    return wl, calls, {"import_s": import_s, "inputs_s": inputs_s, "cal_s": cal_s}


def probe_samples(args) -> list[dict]:
    """Set-up samples from fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs rounds of CLI calls and keeps the counts and check results."""

    def __init__(self, wl, calls):
        from wiretap.cli import main as cli_main

        self.wl = wl
        self.calls = calls
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_stdouts: list[str] | None = None

    def one_round(self) -> float:
        """Run every call once; return their summed wall time."""
        elapsed = 0.0
        stdouts = []
        for argv in self.calls:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli_main(argv)
                except (Exception, SystemExit):
                    traceback.print_exc()
                    rc = None
            elapsed += time.perf_counter() - t0
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                print(f"{argv[0]} failed (exit {rc}):\n{err.getvalue()}", file=sys.stderr)
            stdouts.append(out.getvalue() if rc == 0 else None)
        self.check(stdouts)
        return elapsed

    def check(self, stdouts):
        """Check the first round without a failed call (None); later calls
        must print what the same call printed in that round."""
        if self.first_stdouts is None:
            if None in stdouts:
                return
            self.first_stdouts = stdouts
            try:
                found = self.wl.check(stdouts)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found = [f"unreadable output: {exc!r}"]
            self.problems += found
        elif any(s is not None and s != f for s, f in zip(stdouts, self.first_stdouts)):
            self.problems.append("output differs from the first round's (not deterministic)")

    def finish(self) -> list[str]:
        """The problems found; a run that checked no output is not correct."""
        if self.first_stdouts is None:
            self.problems.append("every round had a failed call, so no output was checked")
        return self.problems

    def rounds(self, budget: float, round_fn=None) -> tuple[list[float], list[float]]:
        """Whole rounds until `budget` seconds are used (at least one).

        Returns each round's wall time and the mean of the calibration
        samples taken just before and just after it.
        """
        round_fn = round_fn or self.one_round
        times: list[float] = []
        cals: list[float] = []
        start = time.perf_counter()
        before = calibrate()
        while True:
            times.append(round_fn())
            after = calibrate()
            cals.append((before + after) / 2)
            before = after
            if time.perf_counter() - start + statistics.median(times) > budget:
                return times, cals


def scaled(seconds: float, cal_s: float) -> float:
    """`seconds` measured when the calibration kernel took `cal_s`, at reference speed."""
    return seconds * CAL_REF_S / cal_s


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
    }


def traced_rounds(runner, budget: float):
    from tracer import Tracer

    tracer = Tracer()
    plain = runner.cli_main
    runner.cli_main = tracer.wrap("cli.main", plain)
    tracer.install()

    def one():
        t = runner.one_round()
        tracer.end_round()
        return t

    try:
        times_and_cals = runner.rounds(budget, one)
    finally:
        tracer.uninstall()
        runner.cli_main = plain
    return tracer, times_and_cals


def run(args) -> dict:
    tag = f"{args.workload}-s{args.seed}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        wl, calls, own = setup_sample(args, workdir)
        if args.probe:
            return own
        setups = [own] + probe_samples(args)
        runner = Runner(wl, calls)
        if args.trace:
            plain_times, plain_cals = runner.rounds(args.seconds / 2)
            tracer, (traced_times, traced_cals) = traced_rounds(runner, args.seconds / 2)
        else:
            plain_times, plain_cals = runner.rounds(args.seconds)
        dense_bytes = wl.dense_bytes(runner.first_stdouts) if runner.first_stdouts else 0.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runner.finish()
    solve_s = statistics.fmean(map(scaled, plain_times, plain_cals))
    if args.trace:
        from tracer import PER_LAYER_UNITS, median_metrics

        table = tracer.span_table()
        values = median_metrics([tracer.round_metrics(table, r) for r in range(tracer.round)])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        values["codesim.dense_bytes"] = dense_bytes
        traced_s = statistics.fmean(map(scaled, traced_times, traced_cals))
        values["trace.overhead_s"] = traced_s - solve_s
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(scaled(s["import_s"] + s["inputs_s"], s["cal_s"])
                                         for s in setups),
            "solve_s": solve_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "round_s": plain_times, "round_cal_s": plain_cals,
              "setup": setups,
              "problems": runner.problems, "environment": environment(), **result}
    if args.trace:
        record["traced_round_s"] = traced_times
        record["traced_round_cal_s"] = traced_cals
        tracer.write(str(OUT / f"trace-{tag}"), table, record)
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
