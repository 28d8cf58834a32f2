#!/usr/bin/env python3
"""Time the stages of the size ladder and write the next BENCH_<k>.json.

Each rung runs, for the vee layout, the stage list of the ROADMAP tables:
build_hamiltonian, second-order and u3 verify_algebra, rotation_report,
evolve over 2001 samples from (0, 0, A) in the vacuum, the eigenvalues of H,
the quantum weight diagram (diagram_layout), hamiltonian.spectrum, the
dark-state check of verify (hamiltonian.dark_state_residual) and the
transfer-block probe of dispersive-compare (dispersive.compare at n_bar = 0 with
guard 2, which the rung with n_max = 2 allows), each timed as the best of
three runs, then run once more, untimed, under tracemalloc for its
traced peak (the arrays the stage allocates and holds at once).  A stage whose
function the checkout lacks records null, so the script runs on older ones.
Every rung runs in a fresh process, which records its own peak RSS (getrusage)
and the thread count of the loaded OpenBLAS; a rung whose process dies stops
the run with BrokenProcessPool.  The file goes to the root of the checkout this script lives
in, and the package is imported from that checkout's src/, so a copy in another
checkout measures that checkout.

    python scripts/ladder.py
"""

from __future__ import annotations

import ctypes
import glob
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import trilevel.hamiltonian as hamiltonian  # noqa: E402
from trilevel.dispersive import compare, dispersive_params  # noqa: E402
from trilevel.dynamics import TimeGrid, evolve, prepare_initial, InitialState  # noqa: E402
from trilevel.hamiltonian import (  # noqa: E402
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    excitation_count,
    rotation_report,
)
from trilevel.hilbert import SpaceSpec  # noqa: E402
from trilevel.operators import eigenvalues, verify_algebra  # noqa: E402
from trilevel.weights import diagram_layout  # noqa: E402

RUNGS = ((4, 12), (8, 16), (12, 20), (30, 40), (60, 2))  # (60, 2): the atomic space dominates
H = HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.1)
T_MAX, N_SAMPLES = 1000.0, 2001
REPEATS = 3  # the host's speed swings between runs; the best run is the steadiest figure


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


def run_rung(atoms: int, n_max: int) -> dict:
    """Wall time and traced peak of every stage at one size, in this process."""
    spec = SpaceSpec(atoms, n_max)
    stages, peaks = {}, {}

    def timed(name, fn):
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        stages[name] = round(min(times), 4)
        tracemalloc.start()
        try:
            fn()
            peaks[name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
        finally:
            tracemalloc.stop()
        return result

    ham = timed("build_hamiltonian", lambda: build_hamiltonian(spec, H))
    timed("verify_algebra_second_order", lambda: verify_algebra(spec, "second_order"))
    timed("verify_algebra_u3", lambda: verify_algebra(spec, "u3"))
    timed("rotation_report", lambda: rotation_report(spec, H))
    psi0 = prepare_initial(spec, InitialState((0, 0, atoms), ("fock", 0)), H)
    timed("evolve", lambda: evolve(ham, psi0, TimeGrid(T_MAX, N_SAMPLES),
                                   excitation_count(spec, VEE)))
    timed("eigenvalues", lambda: eigenvalues(ham))
    timed("diagram_layout", lambda: diagram_layout(VEE, False, spec))
    for name in ("spectrum", "dark_state_residual"):
        if hasattr(hamiltonian, name):
            timed(name, lambda: getattr(hamiltonian, name)(spec, H))
        else:
            stages[name] = peaks[name] = None
    timed("dispersive_compare", lambda: compare(spec, H, dispersive_params(H, 0.0, atoms), guard=2))
    return {
        "atoms": atoms, "n_max": n_max, "dim": spec.product_dim, "stages_s": stages,
        "traced_peak_mb": peaks,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "blas_threads": blas_threads(),
    }


def next_bench_path(root: Path) -> Path:
    k = 0
    while (root / f"BENCH_{k}.json").exists():
        k += 1
    return root / f"BENCH_{k}.json"


def main(root: Path = ROOT, rungs: tuple = RUNGS) -> Path:
    """Run every rung in its own fresh process and write the next BENCH file; a
    worker that dies raises BrokenProcessPool instead of being replaced."""
    results = []
    for rung in rungs:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            results.append(pool.submit(run_rung, *rung).result())
    path = next_bench_path(root)
    path.write_text(json.dumps({
        "setup": {"layout": VEE, "energies": list(H.energies), "omega": H.omega,
                  "g31": H.g31, "g21": H.g21, "t_max": T_MAX, "n_samples": N_SAMPLES,
                  "initial": "(0, 0, A) in the vacuum", "second_order_guard": 1,
                  "timing": f"best of {REPEATS} runs per stage",
                  "traced_peak": "tracemalloc peak of one more run per stage, MiB"},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "rungs": results,
    }, indent=1) + "\n")
    return path


if __name__ == "__main__":
    print(f"wrote {main()}")
