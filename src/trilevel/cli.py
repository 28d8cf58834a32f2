"""Command-line entry point: config parsing, dispatch, and serialization.

Commands: verify, evolve, dispersive-compare, weights, sweep, spectrum.
Configs are flat key = value text with dotted keys for the initial state;
outputs are CSV (time series, spectra, weight tables), JSON (structured
summaries), and SVG (diagrams), all byte-deterministic for a fixed config.
Exit codes: 0 success, 1 check failure (a failed identity, a trajectory that
drifts in norm, excitation or energy, or a numerical error), 2 config error
(including a run too large for physical memory or one that runs out of
memory), 3 truncation-unsafe run.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .hilbert import SpaceSpec
from .operators import SCHEMES, apply, eigenvalues, layout, verify_algebra
from .hamiltonian import (
    TOL_DARK_BLOCK,
    HamiltonianSpec,
    build_hamiltonian,
    dark_state,
    excitation_operator,
    free_hamiltonian,
    interaction_hamiltonian,
    rotation_parameters,
    rotation_report,
)
from .dispersive import DEFAULT_GUARD, compare, dispersive_params
from .dynamics import (
    InitialState,
    TimeGrid,
    TrajectoryRecord,
    TruncationError,
    evolve,
    prepare_initial,
    required_fock_cutoff,
    semiclassical_sweep,
)
from .weights import diagram_layout, render_svg, weight_table

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_TRUNCATION = 3

DEFAULT_VERIFY_GUARD = 2
DEFAULT_SWEEP_NBARS = (4.0, 8.0, 16.0, 32.0)
TOL_CONSERVATION = 1e-10
CSV_ROWS = 512  # rows formatted per column call, which bounds the strings held at once

KNOWN_KEYS = {
    "scheme", "atoms", "n_max", "omega", "E1", "E2", "E3",
    "g31", "g32", "g21", "classical_alpha", "t_max", "n_samples",
    "initial.atom", "initial.field", "guard", "out", "sweep.n_bar",
}


class ConfigError(ValueError):
    """Config parse or validation failure; the message names the key."""


@dataclass
class RunConfig:
    """Validated run parameters aggregated from one config document."""

    scheme: str
    atoms: int
    n_max: int
    omega: float
    energies: tuple[float, float, float]
    g31: float = 0.0
    g32: float = 0.0
    g21: float = 0.0
    classical_alpha: complex | None = None
    t_max: float | None = None
    n_samples: int | None = None
    initial_atom: str | None = None
    initial_field: str | None = None
    guard: int | None = None
    out_dir: str | None = None
    n_bars: tuple[float, ...] | None = None

    def space_spec(self) -> SpaceSpec:
        return SpaceSpec(self.atoms, self.n_max)

    def hamiltonian_spec(self) -> HamiltonianSpec:
        return HamiltonianSpec(
            scheme=self.scheme, energies=self.energies, omega=self.omega,
            g31=self.g31, g32=self.g32, g21=self.g21,
        )

    def initial_state(self) -> InitialState:
        if self.initial_atom is None:
            raise ConfigError("initial.atom: required for this command")
        if self.initial_field is None:
            raise ConfigError("initial.field: required for this command")
        atomic: str | tuple[int, int, int]
        if self.initial_atom in ("dark", "bright"):
            atomic = self.initial_atom
        else:
            try:
                parts = tuple(int(v.strip()) for v in self.initial_atom.split(","))
            except ValueError:
                raise ConfigError(
                    f"initial.atom: expected a triple like 1,0,0 or 'dark', got "
                    f"{self.initial_atom!r}"
                ) from None
            if len(parts) != 3:
                raise ConfigError("initial.atom: occupation must have three entries")
            atomic = parts  # type: ignore[assignment]
        return InitialState(atomic, _parse_field(self.initial_field))

    def time_grid(self) -> TimeGrid:
        if self.t_max is None:
            raise ConfigError("t_max: required for this command")
        if self.n_samples is None:
            raise ConfigError("n_samples: required for this command")
        return TimeGrid(self.t_max, self.n_samples)

    def mean_photon_number(self) -> float:
        kind, value = self.initial_state().field
        return abs(value) ** 2 if kind == "coherent" else float(value.real)


def _parse_scalar(key: str, raw: str, kind):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None
    if not cmath.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _parse_field(text: str) -> tuple[str, complex]:
    """``fock:<n>`` or ``coherent:<alpha>`` as (kind, value)."""
    kind, _, raw = text.partition(":")
    if kind not in ("fock", "coherent") or not raw:
        raise ConfigError(
            f"initial.field: expected fock:<n> or coherent:<alpha>, got {text!r}"
        )
    value = _parse_scalar("initial.field", raw, complex if kind == "coherent" else int)
    if kind == "coherent" and not math.isfinite(value.real * value.real + value.imag * value.imag):
        raise ConfigError(f"initial.field: |alpha|^2 must be finite, got {raw!r}")
    return kind, complex(value)


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{key}: unknown key")
        if key in values:
            raise ConfigError(f"{key}: duplicate key")
        values[key] = raw

    for required in ("scheme", "atoms", "n_max", "omega", "E1", "E2", "E3"):
        if required not in values:
            raise ConfigError(f"{required}: missing required key")

    scheme = values["scheme"].lower()
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme: must be 'lambda' or 'vee', got {values['scheme']!r}")

    atoms = _parse_scalar("atoms", values["atoms"], int)
    n_max = _parse_scalar("n_max", values["n_max"], int)
    if atoms < 1:
        raise ConfigError("atoms: must be >= 1")
    if n_max < 1:
        raise ConfigError("n_max: must be >= 1")

    energies = tuple(_parse_scalar(k, values[k], float) for k in ("E1", "E2", "E3"))
    if not (energies[0] <= energies[1] <= energies[2]):
        raise ConfigError("E2: energies must be ordered E1 <= E2 <= E3")

    couplings = {}
    for name in ("g31", "g32", "g21"):
        couplings[name] = _parse_scalar(name, values[name], float) if name in values else 0.0
    for name in (f"g{i}{j}" for i, j in layout(scheme).pairs):
        if name not in values:
            raise ConfigError(f"{name}: required for scheme '{scheme}'")
        if couplings[name] <= 0:
            raise ConfigError(f"{name}: must be > 0")

    n_bars = None
    if "sweep.n_bar" in values:
        n_bars = tuple(_parse_scalar("sweep.n_bar", v.strip(), float)
                       for v in values["sweep.n_bar"].split(","))
        if any(nb < 0 for nb in n_bars):
            raise ConfigError("sweep.n_bar: values must be >= 0")

    if "initial.field" in values:
        _parse_field(values["initial.field"])

    guard = _parse_scalar("guard", values["guard"], int) if "guard" in values else None
    if guard is not None and guard < 0:
        raise ConfigError("guard: must be >= 0")

    return RunConfig(
        scheme=scheme,
        atoms=atoms,
        n_max=n_max,
        omega=_parse_scalar("omega", values["omega"], float),
        energies=energies,  # type: ignore[arg-type]
        g31=couplings["g31"],
        g32=couplings["g32"],
        g21=couplings["g21"],
        classical_alpha=(
            _parse_scalar("classical_alpha", values["classical_alpha"], complex)
            if "classical_alpha" in values else None
        ),
        t_max=_parse_scalar("t_max", values["t_max"], float) if "t_max" in values else None,
        n_samples=(
            _parse_scalar("n_samples", values["n_samples"], int)
            if "n_samples" in values else None
        ),
        initial_atom=values.get("initial.atom"),
        initial_field=values.get("initial.field"),
        guard=guard,
        out_dir=values.get("out"),
        n_bars=n_bars,
    )


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(values: np.ndarray) -> list[str]:
    """repr of each value as a float64, once per distinct bit pattern (-0.0 is not 0.0)."""
    bits, inverse = np.unique(np.asarray(values, float).view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _write_csv(path: Path, header: str, rows: int, columns) -> None:
    """``header``, then the cells ``columns(k)`` of each column for the rows in slice k."""
    with path.open("w") as fh:
        fh.write(header + "\n")
        for k in (slice(start, start + CSV_ROWS) for start in range(0, rows, CSV_ROWS)):
            fh.write("".join(",".join(row) + "\n" for row in zip(*columns(k))))


def write_trajectory_csv(path: Path, record: TrajectoryRecord) -> None:
    _write_csv(path, "t,pop1,pop2,pop3,n_photon,norm,excitation,leakage", len(record.times),
               lambda k: [_fmt(record.times[k]), _fmt(record.pop1[k]), _fmt(record.pop2[k]),
                          _fmt(record.pop3[k]), _fmt(record.n_photon[k]), _fmt(record.norm[k]),
                          _fmt(record.excitation[k]), _fmt(record.leakage[k])])


def _check(name: str, residual: float | None, tolerance: float, passed: bool) -> dict:
    return {"name": name, "residual": None if residual is None else float(residual),
            "tolerance": tolerance, "passed": bool(passed)}


def _applied_norm(op, psi: np.ndarray) -> float:
    """|op psi| from the blocks that psi occupies; their products fill a full vector,
    zero elsewhere, so the norm sums in row order with every block's bits."""
    out = np.zeros_like(psi)
    for idx, block in apply(op, psi, support=psi != 0):
        out[idx] = block
    return float(np.linalg.norm(out))


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    spec = cfg.space_spec()
    h = cfg.hamiltonian_spec()
    guard = cfg.guard if cfg.guard is not None else DEFAULT_VERIFY_GUARD
    checks = [_check(r.name, r.residual, r.tolerance, r.passed)
              for r in verify_algebra(spec, "u3")]
    checks += [_check(f"{r.name} (guard={guard})", r.residual, r.tolerance, r.passed)
               for r in verify_algebra(spec, "second_order", guard=guard)]

    r = rotation_parameters(h)
    if r.degenerate:
        rep = rotation_report(spec, h)
        checks.append(_check("dark-mode decoupling after rotation",
                             rep.dark_coupling_residual, TOL_DARK_BLOCK,
                             rep.dark_coupling_residual <= TOL_DARK_BLOCK))
        coupling_err = abs(rep.extracted_coupling - rep.expected_coupling)
        checks.append(_check("bright coupling equals root-sum-square",
                             coupling_err, 1e-10, coupling_err <= 1e-10))
        h_int = interaction_hamiltonian(spec, h)
        worst = max(_applied_norm(h_int, dark_state(spec, h, n)) for n in range(spec.n_max))
        checks.append(_check("dark state annihilated by the interaction",
                             worst, 1e-12, worst <= 1e-12))
    else:
        checks.append(_check(
            "dark-mode decoupling after rotation (skipped: non-degenerate "
            "pair energies)", None, TOL_DARK_BLOCK, True))

    overall = all(c["passed"] for c in checks)
    _dump_json(out / "report.json", {
        "command": "verify",
        "checks": checks,
        "overall_pass": overall,
    })
    failed = [c for c in checks if not c["passed"]]
    print(f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed")
    for c in failed:
        print(f"  FAIL {c['name']}: residual {c['residual']:.3e} > {c['tolerance']:.0e}")
    return EXIT_OK if overall else EXIT_CHECK_FAILURE


def _conserved(records: dict[str, TrajectoryRecord]) -> bool:
    """Whether no trajectory drifts in norm, excitation or energy beyond
    TOL_CONSERVATION; prints one FAIL line, prefixed by its key, per drift."""
    ok = True
    for label, record in records.items():
        quantity, drift = record.max_drift()
        if drift > TOL_CONSERVATION:
            print(f"  FAIL {label}{quantity} drift {drift:.3e} > {TOL_CONSERVATION:.0e}")
            ok = False
    return ok


def cmd_evolve(cfg: RunConfig, out: Path) -> int:
    spec = cfg.space_spec()
    h = cfg.hamiltonian_spec()
    record = evolve(
        build_hamiltonian(spec, h),
        prepare_initial(spec, cfg.initial_state(), h),
        cfg.time_grid(),
        excitation_operator(spec, h.scheme),
    )
    write_trajectory_csv(out / "trajectory.csv", record)
    print(f"evolve: wrote {out / 'trajectory.csv'} "
          f"({'ok' if record.truncation_safe else 'TRUNCATION-UNSAFE'})")
    if not _conserved({"": record}):
        return EXIT_CHECK_FAILURE
    return EXIT_OK if record.truncation_safe else EXIT_TRUNCATION


def cmd_dispersive_compare(cfg: RunConfig, out: Path) -> int:
    spec = cfg.space_spec()
    h = cfg.hamiltonian_spec()
    guard = cfg.guard if cfg.guard is not None else DEFAULT_GUARD
    p = dispersive_params(h, cfg.mean_photon_number(), spec.atoms)
    ham, model, residual, order = compare(spec, h, p, guard)

    init = cfg.initial_state()
    grid = cfg.time_grid()
    n_exc = excitation_operator(spec, h.scheme)
    psi0 = prepare_initial(spec, init, h)
    exact = evolve(ham, psi0, grid, n_exc)
    effective_ham = free_hamiltonian(spec, h) + model.matrix()
    effective = evolve(effective_ham, psi0, grid, n_exc)
    write_trajectory_csv(out / "dispersive_exact.csv", exact)
    write_trajectory_csv(out / "dispersive_effective.csv", effective)

    deviation = max(
        float(np.max(np.abs(exact.population(l) - effective.population(l))))
        for l in (1, 2, 3)
    )
    _dump_json(out / "dispersive.json", {
        "command": "dispersive-compare",
        "scheme": h.scheme,
        "guard": guard,
        "small_params": {f"eps{i}{j}": eps for (i, j), eps in p.small_params.items()},
        "prefactor": model.prefactor,
        "validity_margin": p.validity_margin,
        "block_residual": residual,
        "order_estimate": order if math.isfinite(order) else None,
        "max_population_deviation": deviation,
    })
    print(f"dispersive-compare: block residual {residual:.3e}, order {order:.2f}")
    if not _conserved({"exact ": exact, "effective ": effective}):
        return EXIT_CHECK_FAILURE
    safe = exact.truncation_safe and effective.truncation_safe
    return EXIT_OK if safe else EXIT_TRUNCATION


def cmd_weights(cfg: RunConfig, out: Path) -> int:
    spec = cfg.space_spec()
    classical = cfg.classical_alpha is not None
    if cfg.classical_alpha == 0:
        raise ConfigError("classical_alpha: must be nonzero (a zero operator has no weight)")
    alpha = cfg.classical_alpha if classical else 1.0
    layout = diagram_layout(cfg.scheme, classical, spec, alpha=alpha)
    (out / "weights.csv").write_text(weight_table(layout))
    (out / "weights.svg").write_bytes(render_svg(layout))
    print(f"weights: wrote {out / 'weights.csv'} and {out / 'weights.svg'}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    h = cfg.hamiltonian_spec()
    n_bars = list(cfg.n_bars) if cfg.n_bars else list(DEFAULT_SWEEP_NBARS)
    specs = [SpaceSpec(cfg.atoms, max(1, required_fock_cutoff(math.sqrt(nb))))
             for nb in n_bars]
    result = semiclassical_sweep(specs, h, n_bars)
    _dump_json(out / "sweep.json", {
        "command": "sweep",
        "rows": [asdict(row) for row in result.rows],
        "slope": result.slope,
    })
    slope = "n/a" if result.slope is None else f"{result.slope:.3f}"
    print(f"sweep: {len(result.rows)} points, log-log slope {slope}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    spectrum = eigenvalues(build_hamiltonian(cfg.space_spec(), cfg.hamiltonian_spec()))
    _write_csv(out / "spectrum.csv", "index,eigenvalue", len(spectrum),
               lambda k: [list(map(str, range(len(spectrum))[k])), _fmt(spectrum[k])])
    print(f"spectrum: wrote {out / 'spectrum.csv'} ({len(spectrum)} eigenvalues)")
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "dispersive-compare": cmd_dispersive_compare,
    "weights": cmd_weights,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
}


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def largest_array_bytes(command: str, cfg: RunConfig) -> int:
    """Bytes of the largest dense array a command allocates: one complex
    product-space matrix or, for the trajectory commands, the complex
    (product_dim, n_samples) state matrix if that is larger."""
    dim = cfg.space_spec().product_dim
    samples = (cfg.n_samples or 0) if command in ("evolve", "dispersive-compare") else 0
    return 16 * dim * max(dim, samples)


def run(command: str, cfg: RunConfig) -> int:
    """Dispatch one command; returns the process exit status.

    Every command but sweep, which builds no matrices, is refused before it
    builds anything when its largest dense array exceeds physical memory.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if command != "sweep":
        need, memory = largest_array_bytes(command, cfg), _physical_memory()
        if need > memory:
            raise ConfigError(
                f"problem size: the largest dense array needs {need:.3e} bytes, "
                f"more than the {memory:.3e} bytes of physical memory"
            )
    out = Path(cfg.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    status = COMMANDS[command](cfg, out)
    print(f"{command}: done in {time.perf_counter() - started:.2f}s")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trilevel",
        description="Collective three-level atoms coupled to a quantized field mode",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--guard", type=int, default=None, help="photon guard band override")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cfg = parse_config(text)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.guard is not None:
            cfg.guard = args.guard
        return run(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:
        print(f"config error: problem size: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
