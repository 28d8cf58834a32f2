"""Run one workload in this process as a closed loop of ``trilevel.cli.main`` calls.

Started by run.py, which pins the BLAS threads and puts the checkout's
``src`` first on PYTHONPATH before this process imports numpy:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --dir TMP [--spans PATH] [--tiny]

It reads the configs run.py wrote to TMP, writes command outputs under
TMP/out and its raw measurements to TMP/result.json.  Each call starts
after the previous one returns.  Rounds run until the next one would end
past ``--seconds`` (at least one round).  With ``--trace 1`` untraced and
traced rounds alternate, at least one of each, and the traced rounds feed
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads
from tracing import Recorder

MAX_FAILURE_MESSAGES = 20


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs rounds of jobs, checks every output, and counts failures."""

    def __init__(self, cli, workload: workloads.Workload, configs: dict, tmp: Path):
        self.cli = cli
        self.workload = workload
        self.configs = configs
        self.tmp = tmp
        self.digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _problems(self, job: workloads.Job, out: Path, status) -> list[str]:
        if status != job.expected_status:
            return [f"exit status {status}, expected {job.expected_status}"]
        digest = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                  for f in sorted(out.iterdir())}
        first = self.digests.get(job.id)
        if first is not None:
            return [] if digest == first else ["outputs differ from an earlier round"]
        found = checks.problems(job, out, self.configs[job.config])
        if not found:
            self.digests[job.id] = digest
        return found

    def run_job(self, job: workloads.Job, recorder: Recorder | None) -> float:
        out = self.tmp / "out" / job.id
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        argv = [job.command, "--config", str(self.tmp / f"{job.config}.conf"),
                "--out", str(out), *job.extra]
        if recorder is not None:
            recorder.request += 1
        start = perf_counter()
        try:
            status, error = self.cli.main(argv), None
        except Exception as exc:  # a crashing command is a failed command
            status, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.attempted += 1
        found = [error] if error else self._problems(job, out, status)
        if found:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(f"{job.id}: {found[0]}")
        if recorder is not None:
            recorder.counters["cli.output_bytes"] += sum(
                f.stat().st_size for f in out.iterdir())
        return elapsed

    def run_round(self, recorder: Recorder | None) -> dict[str, float]:
        if recorder is not None:
            recorder.install()
        try:
            return {job.id: self.run_job(job, recorder) for job in self.workload.jobs}
        finally:
            if recorder is not None:
                recorder.uninstall()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import trilevel
    from trilevel import cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(trilevel.__file__).resolve().parents:
        print(f"trilevel imported from {trilevel.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.get(args.workload, args.tiny)
    runner = Runner(cli, workload, workloads.make_configs(workload, args.seed), args.dir)
    recorder = Recorder() if args.trace else None

    warmup_s = None
    if workload.warmup:
        start = perf_counter()
        runner.run_round(None)
        warmup_s = perf_counter() - start

    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    start = perf_counter()
    while True:
        use_trace = recorder is not None and len(untraced) > len(traced)
        round_start = perf_counter()
        times = runner.run_round(recorder if use_trace else None)
        (traced if use_trace else untraced).append(times)
        last = perf_counter() - round_start
        if recorder is not None and not traced:
            continue
        if perf_counter() - start + last > args.seconds:
            break

    result = {
        "workload": workload.name,
        "sizes": {"atoms": workload.atoms, "n_max": workload.n_max,
                  "n_samples": workload.n_samples},
        "seed": args.seed,
        "warmup_s": warmup_s,
        "untraced_rounds": untraced,
        "traced_rounds": traced,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if recorder is not None:
        result["per_layer"] = recorder.per_layer(len(traced))
        if args.spans is not None:
            with args.spans.open("w") as fh:
                json.dump({"fields": ["id", "parent", "request", "name", "start", "end"],
                           "spans": recorder.spans}, fh, separators=(",", ":"))
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
