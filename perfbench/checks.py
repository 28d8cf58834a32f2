"""Output checks for one CLI call; any problem counts the call as failed.

The checks use only the config values and the README tolerances; they do
not call into ``trilevel``:

* ``report.json`` carries ``overall_pass`` matching the expected exit status;
* every trajectory CSV has ``n_samples`` rows, norm and excitation drift at
  most 1e-10, and pop1 + pop2 + pop3 equal to the atom count within 1e-10;
* the spectrum has ``dim`` eigenvalues summing to the trace of H, computed
  here as the sum over basis states of E.occ + omega * n (the interaction
  has no diagonal);
* the weight table, the SVG and the sweep table are well formed.

Byte-identity across rounds is checked by the caller on the file digests.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import Job, occupations

TOL_CONSERVATION = 1e-10
TOL_TRACE = 1e-9

OUTPUTS = {
    "verify": ("report.json",),
    "evolve": ("trajectory.csv",),
    "dispersive-compare": ("dispersive.json", "dispersive_exact.csv",
                           "dispersive_effective.csv"),
    "weights": ("weights.csv", "weights.svg"),
    "sweep": ("sweep.json",),
    "spectrum": ("spectrum.csv",),
}
TRAJECTORY_HEADER = "t,pop1,pop2,pop3,n_photon,norm,excitation,leakage"


def _trajectory_problems(path: Path, cfg: dict[str, str]) -> list[str]:
    with path.open() as fh:
        header = fh.readline().strip()
        if header != TRAJECTORY_HEADER:
            return [f"{path.name}: unexpected header {header!r}"]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    problems = []
    if data.shape != (int(cfg["n_samples"]), 8):
        problems.append(f"{path.name}: shape {data.shape}")
        return problems
    if not np.all(np.isfinite(data)):
        return [f"{path.name}: non-finite values"]
    norm_drift = float(np.max(np.abs(data[:, 5] - 1.0)))
    exc_drift = float(np.max(np.abs(data[:, 6] - data[0, 6])))
    pop_error = float(np.max(np.abs(data[:, 1:4].sum(axis=1) - int(cfg["atoms"]))))
    for name, value in (("norm drift", norm_drift), ("excitation drift", exc_drift),
                        ("population sum error", pop_error)):
        if value > TOL_CONSERVATION:
            problems.append(f"{path.name}: {name} {value:.3e} > {TOL_CONSERVATION:.0e}")
    return problems


def hamiltonian_trace(cfg: dict[str, str]) -> tuple[float, float, int]:
    """(trace of H, sum of |diagonal|, dim) from the config values alone."""
    energies = [float(cfg[k]) for k in ("E1", "E2", "E3")]
    omega = float(cfg["omega"])
    n_max = int(cfg["n_max"])
    trace = scale = 0.0
    dim = 0
    for occ in occupations(int(cfg["atoms"])):
        atomic = sum(e * o for e, o in zip(energies, occ))
        for n in range(n_max + 1):
            diag = atomic + omega * n
            trace += diag
            scale += abs(diag)
            dim += 1
    return trace, scale, dim


def _spectrum_problems(path: Path, cfg: dict[str, str]) -> list[str]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "index,eigenvalue":
        return [f"{path.name}: unexpected header"]
    values = [float(line.split(",")[1]) for line in lines[1:]]
    trace, scale, dim = hamiltonian_trace(cfg)
    if len(values) != dim:
        return [f"{path.name}: {len(values)} eigenvalues, expected {dim}"]
    error = abs(math.fsum(values) - trace)
    if not error <= TOL_TRACE * max(1.0, scale):
        return [f"{path.name}: eigenvalue sum differs from the trace by {error:.3e}"]
    return []


def problems(job: Job, out: Path, cfg: dict[str, str]) -> list[str]:
    """Everything wrong with the outputs of ``job`` in ``out``; empty if none."""
    missing = [f for f in OUTPUTS[job.command] if not (out / f).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    found: list[str] = []
    if job.command == "verify":
        report = json.loads((out / "report.json").read_text())
        if report.get("overall_pass") is not (job.expected_status == 0):
            found.append(f"report.json: overall_pass is {report.get('overall_pass')!r}")
    elif job.command in ("evolve", "dispersive-compare"):
        for name in OUTPUTS[job.command]:
            if name.endswith(".csv"):
                found += _trajectory_problems(out / name, cfg)
        if job.command == "dispersive-compare":
            summary = json.loads((out / "dispersive.json").read_text())
            if summary.get("command") != "dispersive-compare":
                found.append("dispersive.json: wrong command field")
    elif job.command == "spectrum":
        found += _spectrum_problems(out / "spectrum.csv", cfg)
    elif job.command == "weights":
        table = (out / "weights.csv").read_text().splitlines()
        if len(table) < 2 or not table[0].startswith("operator,"):
            found.append("weights.csv: no table")
        if b"<svg" not in (out / "weights.svg").read_bytes()[:200]:
            found.append("weights.svg: not an SVG document")
    elif job.command == "sweep":
        rows = json.loads((out / "sweep.json").read_text()).get("rows", [])
        if len(rows) != len(cfg["sweep.n_bar"].split(",")):
            found.append(f"sweep.json: {len(rows)} rows")
        elif not all(math.isfinite(r["factor_lambda"]) and math.isfinite(r["factor_vee"])
                     for r in rows):
            found.append("sweep.json: non-finite factor")
    return found
