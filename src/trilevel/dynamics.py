"""Exact unitary evolution and the semiclassical sweep.

Propagation diagonalizes each Hamiltonian block the initial state occupies
and keeps the state on those blocks alone, one bounded time chunk at a
time: no step-size error to tune, no dense state matrix and no array of
rows x samples.  Trajectories record energy <H> and, from basis labels weighted
by |psi|^2, level populations, photon number, norm, the conserved excitation
count and the population of the top photon slab (truncation leakage).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Occupation, SpaceSpec, fock_vector, index_map
from .operators import (CHUNK_ENTRIES, LAMBDA, PRODUCT, VEE, OperatorMatrix,
                        enhancement_factor, hermitian_blocks, stored_stacks)
from .hamiltonian import HamiltonianSpec, bright_atomic_vector, dark_atomic_vector

COHERENT_TAIL_LIMIT = 1e-10
MAX_CUTOFF = 100000  # photons: the largest cutoff required_fock_cutoff returns
LEAKAGE_LIMIT = 1e-6


class TruncationError(RuntimeError):
    """The photon cutoff is too small for the requested state or run."""

    def __init__(self, message: str, required_n_max: int | None = None):
        super().__init__(message)
        self.required_n_max = required_n_max


@dataclass(frozen=True)
class InitialState:
    """Atomic part (occupation triple, "dark", or "bright") and field part
    (("fock", n) or ("coherent", alpha))."""

    atomic: Occupation | str
    field: tuple[str, complex]

    def mean_photon_number(self) -> float:
        """|alpha|^2 of a coherent field, n of a Fock one."""
        kind, value = self.field
        return abs(value) ** 2 if kind == "coherent" else float(value.real)


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.t_max <= 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_samples)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-sample observables of one exact trajectory."""

    times: np.ndarray
    pop1: np.ndarray
    pop2: np.ndarray
    pop3: np.ndarray
    n_photon: np.ndarray
    norm: np.ndarray
    excitation: np.ndarray
    energy: np.ndarray
    leakage: np.ndarray
    truncation_safe: bool

    def population(self, level: int) -> np.ndarray:
        return (self.pop1, self.pop2, self.pop3)[level - 1]

    def max_drift(self) -> tuple[str, float]:
        """Largest departure from t = 0 among the conserved quantities, as
        (name, drift); each drift is relative to max(1, |value at t = 0|).
        A non-finite trajectory drifts by inf."""
        drifts = {}
        for name, series in (("norm", self.norm), ("excitation", self.excitation),
                             ("energy", self.energy)):
            drift = float(np.max(np.abs(series - series[0]))) / max(1.0, abs(series[0]))
            drifts[name] = drift if math.isfinite(drift) else math.inf
        worst = max(drifts, key=drifts.__getitem__)
        return worst, drifts[worst]


def coherent_amplitudes(alpha: complex, n_max: int) -> tuple[np.ndarray, float]:
    """Truncated coherent-state amplitudes and the discarded tail weight; the
    recurrence starts at the first amplitude that is a normal float (those before
    it are 0): exp(-|alpha|^2 / 2) at n = 0, from log space (lgamma) past it."""
    lam = abs(alpha) ** 2
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    start, magnitude = 0, math.exp(-lam / 2)
    while not magnitude >= np.finfo(float).smallest_normal and start <= n_max:
        start += 1
        magnitude = math.exp((start * math.log(lam) - math.lgamma(start + 1) - lam) / 2)
    if start <= n_max:
        amps[start] = cmath.rect(magnitude, start * cmath.phase(alpha)) if start else magnitude
    for n in range(start + 1, n_max + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    return amps, tail


def required_fock_cutoff(alpha: complex) -> int:
    """Smallest cutoff keeping the coherent tail below COHERENT_TAIL_LIMIT.

    The tail is summed from the top, smallest weights first, so it carries the rounding
    of its own terms only: down from the first photon number past |alpha|^2 whose
    Poisson weight exp(-lam) lam^n / n! (from log space) is below 1e-40, as the weights
    past it sum to less than 1e-34.  ValueError for a cutoff above MAX_CUTOFF photons.
    """
    lam = abs(alpha) ** 2
    if not 0 < lam <= MAX_CUTOFF:  # the vacuum, or a cutoff past |alpha|^2 > MAX_CUTOFF
        n = 0 if lam == 0 else MAX_CUTOFF + 1
    else:
        n = math.ceil(lam)
        while n * math.log(lam) - math.lgamma(n + 1) - lam > -92.0:  # e^-92 < 1e-40
            n += 1
        weight, tail = math.exp(n * math.log(lam) - math.lgamma(n + 1) - lam), 0.0
        while n and tail + weight <= COHERENT_TAIL_LIMIT:  # tail: the weights past n
            tail += weight
            weight *= n / lam
            n -= 1
    if n > MAX_CUTOFF:
        raise ValueError(f"|alpha|^2 = {lam:.6g} is too large for a sensible "
                         f"cutoff (at most {MAX_CUTOFF} photons)")
    return n


def prepare_initial(spec: SpaceSpec, init: InitialState,
                    h: HamiltonianSpec) -> np.ndarray:
    """Unit product-space vector for the requested initial condition.

    Coherent field parts are truncated and renormalized; if the discarded
    tail exceeds 1e-10 the state is rejected with an estimate of the
    required cutoff.
    """
    if isinstance(init.atomic, str):
        if init.atomic == "dark":
            atomic = dark_atomic_vector(h, spec.atoms)
        elif init.atomic == "bright":
            atomic = bright_atomic_vector(h, spec.atoms)
        else:
            raise ValueError(f"unknown named atomic state {init.atomic!r}")
    else:
        atomic = np.zeros(spec.atomic_dim, dtype=np.complex128)
        atomic[index_map(spec).atomic_index(tuple(int(v) for v in init.atomic))] = 1.0

    kind, value = init.field
    if kind == "fock":
        field = fock_vector(spec, int(value.real) if isinstance(value, complex) else int(value))
    elif kind == "coherent":
        alpha = complex(value)
        field, tail = coherent_amplitudes(alpha, spec.n_max)
        if tail > COHERENT_TAIL_LIMIT:
            need = required_fock_cutoff(alpha)
            raise TruncationError(
                f"coherent tail {tail:.2e} exceeds {COHERENT_TAIL_LIMIT:.0e} at "
                f"n_max={spec.n_max}; need n_max >= {need}",
                required_n_max=need,
            )
        field = field / np.linalg.norm(field)
    else:
        raise ValueError(f"unknown field state kind {kind!r}")

    psi = np.kron(atomic, field)
    return psi / np.linalg.norm(psi)


def _trajectory(ham: OperatorMatrix, psi0: np.ndarray, times: np.ndarray):
    """psi(t) = exp(-i H t) psi0 on the blocks of H that psi0 occupies, each
    diagonalized once, walked through ``times`` in chunks of about
    max(1, CHUNK_ENTRIES // rows) samples, so no array grows with rows x T.

    Returns (rows, chunks); each chunk is (span, psi, energy) for the samples
    times[span]: psi[k] = psi(t)[rows[k]], every other index being 0, and energy
    = <psi(t)| H |psi(t)>, summed group by group over the stored stacks of those blocks.
    """
    if not ham.is_hermitian():
        raise ValueError("Hamiltonian is not Hermitian")
    if psi0.shape != (ham.dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match {ham.dim}")
    support = psi0 != 0
    groups = [(idx, stack, w, v, np.einsum("mba,mb->ma", v.conj(), psi0[idx])[:, :, None])
              for (idx, stack), (_, w, v) in zip(stored_stacks(ham, support),
                                                 hermitian_blocks(ham, support))]
    rows = np.concatenate([np.zeros(0, np.intp)] + [idx.ravel() for idx, *_ in groups])
    # Chunks start at multiples of 8 samples where they can, and a one-sample tail
    # joins the chunk before it, so that every sample meets the column blocking of one
    # whole-grid BLAS product (groups of 2, 4 or 8; a single column takes another kernel).
    step = max(1, CHUNK_ENTRIES // max(1, len(rows)))
    if step >= 8:
        step -= step % 8
    starts = list(range(0, len(times), step))
    if len(starts) > 1 and starts[-1] == len(times) - 1:
        starts.pop()

    def chunks():
        for start, stop in zip(starts, starts[1:] + [len(times)]):
            t = times[start:stop]
            psi = np.zeros((len(rows), len(t)), dtype=np.complex128)
            energy = np.zeros(len(t))
            at = 0
            for idx, stack, w, v, coefficients in groups:
                phases = np.exp(np.multiply.outer(w, -1j * t))  # (m, b, t)
                phases *= coefficients
                x = psi[at:at + idx.size].reshape(phases.shape)
                np.matmul(v, phases, out=x)
                energy += np.einsum("mbt,mbt->t", x.conj(), stack @ x).real
                at += idx.size
            yield slice(start, stop), psi, energy

    return rows, chunks()


def propagate(ham: OperatorMatrix, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """psi(t) = exp(-i H t) psi0 for every sample, columns indexed by time;
    rows outside the blocks of H that psi0 occupies are exactly zero."""
    rows, chunks = _trajectory(ham, psi0, times)
    states = np.zeros((ham.dim, len(times)), dtype=np.complex128)
    for span, psi, _ in chunks:
        states[rows, span] = psi
    return states


def evolve(ham: OperatorMatrix, psi0: np.ndarray, grid: TimeGrid,
           count: np.ndarray) -> TrajectoryRecord:
    """Exact evolution with observables sampled on a uniform grid, filled one
    time chunk at a time (see _trajectory); the excitation series reads ``count``, the
    labels of hamiltonian.excitation_count, like the populations read the occupations.

    The record is flagged truncation-unsafe when the top photon slab ever
    holds more than 1e-6 of the population.
    """
    if ham.space != PRODUCT:
        raise ValueError("evolve expects a product-space Hamiltonian")
    spec = ham.spec
    times = grid.times
    rows, chunks = _trajectory(ham, psi0, times)
    table = index_map(spec)
    occupations = table.occupations[rows].T.astype(float)
    photons = table.photons[rows].astype(float)
    excitation = count[rows].astype(float)
    top = (table.photons[rows] == spec.n_max).astype(float)
    # pop1, pop2, pop3, n_photon, norm, excitation, energy, leakage
    series = np.empty((8, len(times)))
    for span, psi, energy in chunks:
        weights = np.abs(psi) ** 2
        series[:3, span] = occupations @ weights
        series[3, span] = photons @ weights
        series[4, span] = np.sqrt(np.sum(weights, axis=0))
        series[5, span] = excitation @ weights
        series[6, span] = energy
        series[7, span] = top @ weights
    return TrajectoryRecord(
        times, *series, truncation_safe=bool(np.max(series[7]) <= LEAKAGE_LIMIT))


@dataclass(frozen=True)
class SweepRow:
    n_bar: float
    n_max: int
    coupling_scale: float
    factor_lambda: float
    factor_vee: float
    rel_difference: float | None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope: float | None


def semiclassical_sweep(atoms: int, n_bars: list[float]) -> SweepResult:
    """Relative difference of the two enhancement factors in coherent fields.

    For each mean photon number the factors (S33 - n) and (S11 + n + 1) are
    evaluated with all ``atoms`` in the respective initial transfer level (1
    for lambda, 3 for vee) and the field in a coherent state truncated at
    max(1, required_fock_cutoff), from the truncated Poisson mean; the
    relative measure |f_vee - |f_lambda|| / n_bar decays like 1 / n_bar, and
    the fitted log-log slope is returned alongside the table.  Couplings are
    rescaled so g sqrt(n_bar) stays constant (recorded per row; the factors
    themselves do not depend on the couplings).
    The n_bar = 0 endpoint is reported without a relative difference.  An n_bar whose
    coupling scale or relative difference is not a finite float raises ValueError.
    """
    reference = next((nb for nb in n_bars if nb > 0), 1.0)
    rows = []
    for n_bar in n_bars:
        if n_bar < 0:
            raise ValueError(f"n_bar must be >= 0, got {n_bar}")
        alpha = math.sqrt(n_bar)
        n_max = max(1, required_fock_cutoff(alpha))
        scale = math.sqrt(reference / n_bar) if n_bar > 0 else 1.0
        weights = np.abs(coherent_amplitudes(alpha, n_max)[0]) ** 2
        mean_n = float(np.arange(n_max + 1) @ weights / np.sum(weights))
        f_lambda = float(enhancement_factor(LAMBDA, (atoms, 0, 0), mean_n))
        f_vee = float(enhancement_factor(VEE, (0, 0, atoms), mean_n))
        rel = abs(f_vee - abs(f_lambda)) / n_bar if n_bar > 0 else None
        if not math.isfinite(scale) or (rel is not None and not math.isfinite(rel)):
            raise ValueError(f"n_bar = {n_bar!r} gives a coupling scale {scale!r} and a "
                             f"relative difference {rel!r}; both must be finite")
        rows.append(SweepRow(n_bar, n_max, scale, f_lambda, f_vee, rel))

    fit_rows = [(r.n_bar, r.rel_difference) for r in rows
                if r.rel_difference is not None and r.rel_difference > 0]
    slope = None
    if len(fit_rows) >= 2:
        xs = np.log([nb for nb, _ in fit_rows])
        ys = np.log([rd for _, rd in fit_rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepResult(tuple(rows), slope)
