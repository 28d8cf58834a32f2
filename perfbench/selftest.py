"""Self-test of the benchmark at tiny sizes.  Run from the checkout root:

    python3 perfbench/selftest.py

It checks that

* every metric named in BENCHMARK.json is printed with its unit, on every
  workload, untraced (end-to-end) and traced (per-layer);
* seed 0 reproduces the committed configs, and another seed changes the
  couplings but not the dimensions;
* two traced runs of the same seed give identical exact counts;
* a corrupted trajectory counts toward failed_ratio: a temporary copy of
  the package whose CSV writer perturbs the norm column must fail every
  evolve call.

Exits 1 with a message on the first failed check, 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import OUTPUT_DIR  # noqa: E402

EXACT_SUFFIXES = ("_calls", "_n3", "_dim_max", "_bytes", "_built")
CORRUPTION = ("_fmt(record.norm[k])", "_fmt(record.norm[k] * (1.0 + 1e-6))")


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def run_bench(root: Path, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode == 0,
           f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check_metrics_printed(root: Path, spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = run_bench(root, workload, 1, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: outputs not correct: {stdout}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == expected, f"{workload} trace {trace}: metrics {got}")
            table = stdout.splitlines()
            for name, unit in expected.items():
                expect(any(line.split()[:1] == [name] and f" {unit} " in line
                           for line in table),
                       f"{workload} trace {trace}: {name} [{unit}] not printed")


def read_conf(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def check_seeds(root: Path) -> None:
    paper = workloads.get("paper")
    for name, values in workloads.make_configs(paper, 0).items():
        committed = root / "configs" / f"{name}.conf"
        if committed.is_file():
            expect(values == read_conf(committed), f"seed 0 differs from {committed}")
    for workload in map(workloads.get, workloads.WORKLOADS):
        one = workloads.make_configs(workload, 1)
        two = workloads.make_configs(workload, 2)
        for name in workload.configs:
            expect(one[name]["g31"] != two[name]["g31"],
                   f"{workload.name}/{name}: seed does not change g31")
            for key in ("atoms", "n_max", "n_samples"):
                expect(one[name].get(key) == two[name].get(key),
                       f"{workload.name}/{name}: seed changes {key}")


def check_exact_counts(root: Path) -> None:
    first, _ = run_bench(root, "collective", 3, 1)
    second, _ = run_bench(root, "collective", 3, 1)
    for name, metric in first["metrics"].items():
        if name.endswith(EXACT_SUFFIXES):
            expect(metric["value"] == second["metrics"][name]["value"],
                   f"{name}: {metric['value']} then {second['metrics'][name]['value']}")


def check_corruption_counts(root: Path) -> None:
    scratch = root / OUTPUT_DIR
    scratch.mkdir(exist_ok=True)
    copy = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        shutil.copytree(root / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cli = copy / "src" / "trilevel" / "cli.py"
        text = cli.read_text()
        expect(CORRUPTION[0] in text, "cannot find the norm column in the CSV writer")
        cli.write_text(text.replace(*CORRUPTION))
        result, stdout = run_bench(copy, "long-trajectory", 1, 0)
        expect(not result["correct"], "corrupted trajectories were accepted")
        expect(result["failed"] == result["attempted"] > 0,
               f"expected every evolve call to fail: {result}")
        expect(any(line.split()[:1] == ["failed_ratio"] and " 1 " in line
                   for line in stdout.splitlines()), "failed_ratio is not 1")
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    checks = (("metrics printed with units", lambda: check_metrics_printed(root, spec)),
              ("seeded configs", lambda: check_seeds(root)),
              ("exact counts repeat", lambda: check_exact_counts(root)),
              ("corrupted trajectory fails", lambda: check_corruption_counts(root)))
    for name, check in checks:
        try:
            check()
        except SelfTestFailure as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
