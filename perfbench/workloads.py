"""Workloads of the benchmark: problem sizes, command rounds, seeded configs.

A workload is a list of jobs (one ``trilevel`` CLI call each) that make up
one round, plus the config files the jobs read.  The configs are drawn from
the benchmark seed:

* seed 0 reproduces the values of the committed ``configs/*.conf`` files
  (at the workload's size);
* any other seed draws ``g31`` and ``g32``/``g21`` from [0.05, 0.15] at the
  committed energies, so every detuning stays 2 and |eps| <= 0.075, and the
  degenerate pair stays exactly degenerate;
* any other seed also draws the initial occupation and Fock number among
  the states whose conserved excitation count lies in [1, n_max - 1].  The
  photon number never exceeds that count, so the top photon slab is never
  populated and every run is truncation-safe by construction; a count of at
  least one keeps the dynamics (and hence the output size) non-trivial.

Why each workload exists:

* ``paper`` -- the paper's own sizes (atoms=1, n_max=8, dim 27).  Dense
  linear algebra is nearly free here, so per-call overhead, operator
  construction, observables and serialization set the time.
* ``collective`` -- A=8, n_max=16 (dim 765), both layouts.  Dense ``eigh``,
  dense matmul and the O(dim^2) Python masks dominate.
* ``long-trajectory`` -- ``evolve`` only, A=4, n_max=12 (dim 195), 100,001
  samples.  The (dim x T) state matrix, the observables and writing the
  trajectory CSV set time and memory.  It is runnable but not listed in
  BENCHMARK.json: with three workloads the benchmark's total time allows
  runs of only about 40 s, too short to be steady on a host whose CPU speed
  alternates between regimes; two workloads allow 60 s runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SCHEME_LAMBDA = "lambda"
SCHEME_VEE = "vee"

# Values of the committed configs/lambda.conf, vee.conf and sweep.conf.
COMMITTED = {
    "lambda": {
        "scheme": "lambda", "omega": "1.0", "E1": "0.0", "E2": "0.0", "E3": "3.0",
        "g31": "0.1", "g32": "0.1", "guard": "2", "t_max": "1000.0",
        "initial.atom": "1,0,0", "initial.field": "fock:0",
    },
    "vee": {
        "scheme": "vee", "omega": "1.0", "E1": "0.0", "E2": "3.0", "E3": "3.0",
        "g31": "0.1", "g21": "0.1", "guard": "2", "t_max": "1000.0",
        "initial.atom": "0,0,1", "initial.field": "fock:0",
    },
    "sweep": {
        "scheme": "lambda", "omega": "1.0", "E1": "0.0", "E2": "0.0", "E3": "3.0",
        "g31": "0.1", "g32": "0.1", "sweep.n_bar": "4,8,16,32",
    },
}

COUPLING_RANGE = (0.05, 0.15)


@dataclass(frozen=True)
class Job:
    """One CLI call of a round: command, config name, extra args, expected exit."""

    command: str
    config: str
    extra: tuple[str, ...] = ()
    expected_status: int = 0

    @property
    def id(self) -> str:
        suffix = "".join(a.lstrip("-") for a in self.extra)
        return f"{self.command}.{self.config}" + (f".{suffix}" if suffix else "")


@dataclass(frozen=True)
class Workload:
    name: str
    atoms: int
    n_max: int
    n_samples: int
    configs: tuple[str, ...]
    jobs: tuple[Job, ...]
    warmup: bool


def _jobs(commands: tuple[str, ...], configs: tuple[str, ...]) -> tuple[Job, ...]:
    return tuple(Job(c, cfg) for cfg in configs for c in commands)


PAPER_JOBS = _jobs(
    ("verify", "evolve", "dispersive-compare", "weights", "spectrum"), ("lambda", "vee")
) + (
    Job("verify", "vee", ("--guard", "0"), expected_status=1),
    Job("sweep", "sweep"),
)
COLLECTIVE_JOBS = _jobs(("verify", "evolve", "dispersive-compare", "spectrum"),
                        ("lambda", "vee"))
LONG_JOBS = _jobs(("evolve",), ("lambda", "vee"))

WORKLOADS = {
    "paper": Workload("paper", 1, 8, 2001, ("lambda", "vee", "sweep"), PAPER_JOBS, True),
    "collective": Workload("collective", 8, 16, 2001, ("lambda", "vee"),
                           COLLECTIVE_JOBS, False),
    "long-trajectory": Workload("long-trajectory", 4, 12, 100001, ("lambda", "vee"),
                                LONG_JOBS, False),
}

# Sizes used by the self-test: (atoms, n_max, n_samples) per workload.
TINY_SIZES = {"paper": (1, 4, 201), "collective": (2, 4, 201),
              "long-trajectory": (1, 4, 2001)}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    if tiny:
        atoms, n_max, n_samples = TINY_SIZES[name]
        w = Workload(w.name, atoms, n_max, n_samples, w.configs, w.jobs, w.warmup)
    return w


def excitation_count(scheme: str, occ: tuple[int, int, int], photons: int) -> int:
    """Conserved count: n + S33 (lambda) or n + S22 + S33 (vee)."""
    return photons + occ[2] + (occ[1] if scheme == SCHEME_VEE else 0)


def occupations(atoms: int) -> list[tuple[int, int, int]]:
    return [(n1, n2, atoms - n1 - n2)
            for n1 in range(atoms, -1, -1) for n2 in range(atoms - n1, -1, -1)]


def _draw_initial(rng: random.Random, scheme: str, atoms: int,
                  n_max: int) -> tuple[str, str]:
    candidates = [
        (occ, n) for occ in occupations(atoms) for n in range(n_max + 1)
        if 1 <= excitation_count(scheme, occ, n) <= n_max - 1
    ]
    occ, n = rng.choice(candidates)
    return ",".join(map(str, occ)), f"fock:{n}"


def _scaled_committed_initial(name: str, atoms: int) -> str:
    """The committed single-atom occupation with every atom in that level."""
    single = COMMITTED[name]["initial.atom"].split(",")
    return ",".join(str(atoms * int(v)) for v in single)


def make_configs(workload: Workload, seed: int) -> dict[str, dict[str, str]]:
    """Config values (key -> text) per config name, drawn from ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    out: dict[str, dict[str, str]] = {}
    for name in workload.configs:
        values = dict(COMMITTED[name])
        values["atoms"] = str(workload.atoms)
        values["n_max"] = str(workload.n_max)
        second = "g32" if values["scheme"] == SCHEME_LAMBDA else "g21"
        if name != "sweep":
            values["n_samples"] = str(workload.n_samples)
            values["initial.atom"] = _scaled_committed_initial(name, workload.atoms)
        if seed != 0:
            values["g31"] = repr(rng.uniform(*COUPLING_RANGE))
            values[second] = repr(rng.uniform(*COUPLING_RANGE))
            if name != "sweep":
                atom, field = _draw_initial(rng, values["scheme"], workload.atoms,
                                            workload.n_max)
                values["initial.atom"], values["initial.field"] = atom, field
        out[name] = values
    return out


def write_configs(configs: dict[str, dict[str, str]], directory: Path) -> dict[str, Path]:
    paths = {}
    for name, values in configs.items():
        path = directory / f"{name}.conf"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        paths[name] = path
    return paths
