"""Benchmark of the trilevel CLI: end-to-end metrics and traced per-layer times.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload paper|collective|long-trajectory \
        --seed N --seconds S --trace 0|1

The workloads and why each exists are described in ``workloads.py``.  This
launcher pins the BLAS threads to 1 before any numpy import (one thread is
the single-threaded baseline and the steady choice on a small shared box),
writes the seeded configs, times fresh set-up processes, and runs the
workload in one worker process (``worker.py``) as a single closed-loop
client.  Command outputs go to a scratch directory under ``.perfbench_out/``
in the checkout, removed at the end; the run record (and, when traced, the
spans) are kept there.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``: median wall time of a fresh process that imports trilevel
  and parses the workload's configs (every CLI invocation pays it);
* ``run_s``: wall time of the timed ``cli.main`` calls per round (their
  total over the run divided by the number of rounds);
* ``peak_rss_mb``: ``ru_maxrss`` of the worker process.

Times are gated as means over the run, not medians.  On a shared host the
CPU speed alternates between a fast and a slow regime, each lasting from
seconds to minutes; a per-run median (or minimum) flips between the two
regimes' values depending on which held most of the run, while the mean
moves smoothly with the share of time spent in each.  Every timing is
printed with its median, its sample count and the highest percentile with
at least ten samples beyond it.  Per-command times (``verify_s``,
``evolve_s``, ``dispersive_compare_s``, ``spectrum_s``, ``weights_s``,
``sweep_s``) and ``failed_ratio`` are printed the same way but not gated:
most exist only on some workloads, some workloads run a command only twice
per run, and ``failed_ratio`` is zero at this commit (it is carried by
``attempted`` and ``failed``).  ``--trace 1`` reports the per-layer metrics
of ``tracing.PER_LAYER``, per traced round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = {"verify": "verify_s", "evolve": "evolve_s",
                   "dispersive-compare": "dispersive_compare_s",
                   "spectrum": "spectrum_s", "weights": "weights_s", "sweep": "sweep_s"}
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
OUTPUT_DIR = ".perfbench_out"


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50..p99.9 with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            rank = max(1, -(-int(p * n) // 100))
            return p, ordered[rank - 1]
    return None


def sample_stats(samples: list[float]) -> dict:
    return {"value": statistics.fmean(samples), "median": statistics.median(samples),
            "n": len(samples), "tail": tail_percentile(samples)}


def command_stats(rounds: list[dict[str, float]], jobs) -> dict[str, dict]:
    """Timing summary of every command the workload runs, over all its calls."""
    out = {}
    for command, metric in COMMAND_METRICS.items():
        ids = [job.id for job in jobs if job.command == command]
        if ids:
            out[metric] = sample_stats([r[i] for r in rounds for i in ids])
    return out


def stats_note(stats: dict) -> str:
    tail = stats["tail"]
    return (f"median {stats['median']:.6g} s, n={stats['n']}, "
            + (f"p{tail[0]:g} {tail[1]:.6g} s" if tail else "no tail percentile (n < 20)"))


def time_setup(env: dict, configs: list[Path], probes: int) -> list[float]:
    """Wall times of fresh set-up processes.

    No timeout is passed: with one, Popen.wait polls in steps of up to 50 ms,
    which would quantize the measurement.
    """
    times = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), *map(str, configs)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def describe(name: str, value: float, unit: str, extra: str = "") -> str:
    return f"  {name:<38} {value:>16.6g} {unit:<15}{extra}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see workloads.TINY_SIZES)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "trilevel" / "__init__.py").is_file():
        print(f"no trilevel package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])

    workload = workloads.get(args.workload, args.tiny)
    results_dir = root / OUTPUT_DIR
    results_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=results_dir))
    started = perf_counter()
    try:
        config_paths = workloads.write_configs(
            workloads.make_configs(workload, args.seed), tmp)
        setup = ([] if args.trace else
                 time_setup(env, list(config_paths.values()), 3 if args.tiny else SETUP_PROBES))
        spans_path = results_dir / f"{workload.name}.spans.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", str(tmp), "--spans", str(spans_path)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S - (perf_counter() - started))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            print(f"worker exited with status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((tmp / "result.json").read_text())
    except subprocess.CalledProcessError as exc:
        print(f"set-up probe failed with status {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("benchmark exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rounds = result["untraced_rounds"]
    commands = command_stats(rounds, workload.jobs)
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": result["sizes"], **result["environment"],
        "warmup_s": result["warmup_s"],
        "rounds": {"untraced": len(rounds), "traced": len(result["traced_rounds"])},
        "samples": {m: s["n"] for m, s in commands.items()},
        "setup_probes_s": setup,
        "failures": result["failures"],
    }
    (results_dir / f"{workload.name}.record.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} commands, {failed} failed")
    if args.trace:
        layers = dict(result["per_layer"])
        layers["trace.overhead_s"] = (
            statistics.fmean(sum(r.values()) for r in result["traced_rounds"])
            - statistics.fmean(sum(r.values()) for r in rounds))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _source) in PER_LAYER.items()}
        for name, metric in metrics.items():
            print(describe(name, metric["value"], metric["unit"]))
    else:
        stats = {"run_s": sample_stats([sum(r.values()) for r in rounds]), **commands}
        values = {"setup_s": statistics.median(setup), "run_s": stats["run_s"]["value"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        notes = {name: stats_note(stats[name]) for name in stats}
        notes["setup_s"] = f"median of {len(setup)} fresh processes"
        for name, metric in metrics.items():
            print(describe(name, metric["value"], metric["unit"], notes.get(name, "")))
        print("  not gated (means; see the module docstring):")
        for name in [n for n in commands if n not in metrics]:
            print(describe(name, stats[name]["value"], "s", notes[name]))
        print(describe("failed_ratio", failed / attempted, "ratio", f"{failed}/{attempted}"))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
