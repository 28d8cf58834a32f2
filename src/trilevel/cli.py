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

from .hilbert import Occupation, SpaceSpec
from .operators import CHUNK_ENTRIES, TOL_ALGEBRA, verify_algebra
from .hamiltonian import (
    TOL_DARK_BLOCK,
    HamiltonianSpec,
    build_hamiltonian,
    dark_state_residual,
    excitation_count,
    ladder_storage_bytes,
    reduced_hamiltonian,
    rotation_report,
    spectrum,
)
from .dispersive import (DEFAULT_GUARD, compare, small_params, transfer_prefactor,
                         transfer_summary, validity_margin)
from .dynamics import (
    InitialState,
    TimeGrid,
    TrajectoryRecord,
    TruncationError,
    evolve,
    prepare_initial,
    semiclassical_sweep,
)
from .weights import diagram_layout, render_svg, weight_table

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_TRUNCATION = 3
EXIT_CLOSED_STDOUT = 141  # the shell's status of a process ended by SIGPIPE (128 + 13)

DEFAULT_VERIFY_GUARD = 2
DEFAULT_SWEEP_NBARS = (4.0, 8.0, 16.0, 32.0)
TOL_CONSERVATION = 1e-10
CSV_ROWS = 512  # rows formatted per column call, which bounds the strings held at once


class ConfigError(ValueError):
    """Config parse or validation failure; the message names the key."""


@dataclass
class RunConfig:
    """A config's model space and Hamiltonian as the library's own specs, and
    its other keys as parsed (None where a key is absent)."""

    space: SpaceSpec
    hamiltonian: HamiltonianSpec
    classical_alpha: complex | None = None
    t_max: float | None = None
    n_samples: int | None = None
    initial_atom: Occupation | str | None = None
    initial_field: tuple[str, complex] | None = None
    guard: int | None = None
    n_bars: tuple[float, ...] | None = None

    def initial_state(self) -> InitialState:
        if self.initial_atom is None:
            raise ConfigError("initial.atom: required for this command")
        if self.initial_field is None:
            raise ConfigError("initial.field: required for this command")
        return InitialState(self.initial_atom, self.initial_field)

    def time_grid(self) -> TimeGrid:
        if self.t_max is None:
            raise ConfigError("t_max: required for this command")
        if self.n_samples is None:
            raise ConfigError("n_samples: required for this command")
        return TimeGrid(self.t_max, self.n_samples)


def _scalar(kind, nonnegative: bool = False):
    """The parser of one finite ``kind`` (int, float or complex) value."""
    def parse(key: str, raw: str):
        try:
            value = kind(raw)
            finite = cmath.isfinite(value)  # OverflowError for an int beyond the float range
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None
        except OverflowError:
            raise ConfigError(f"{key}: integer too large for a float") from None
        if not finite:
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
        if nonnegative and value < 0:
            raise ConfigError(f"{key}: must be >= 0")
        return value
    return parse


def _n_bars(key: str, raw: str) -> tuple[float, ...]:
    """Comma-separated mean photon numbers, each >= 0."""
    return tuple(_scalar(float, nonnegative=True)(key, v.strip()) for v in raw.split(","))


def _atom(key: str, raw: str) -> Occupation | str:
    """``dark``, ``bright`` or three integers like ``1,0,0`` (IndexMap checks the triple)."""
    if raw in ("dark", "bright"):
        return raw
    parts = tuple(_scalar(int)(key, v.strip()) for v in raw.split(","))
    if len(parts) != 3:
        raise ConfigError(f"{key}: occupation must have three entries")
    return parts  # type: ignore[return-value]


def _field(key: str, raw: str) -> tuple[str, complex]:
    """``fock:<n>`` or ``coherent:<alpha>`` as (kind, value)."""
    kind, _, number = raw.partition(":")
    if kind not in ("fock", "coherent") or not number:
        raise ConfigError(f"{key}: expected fock:<n> or coherent:<alpha>, got {raw!r}")
    value = _scalar(complex if kind == "coherent" else int)(key, number)
    if kind == "coherent" and not math.isfinite(value.real * value.real + value.imag * value.imag):
        raise ConfigError(f"{key}: |alpha|^2 must be finite, got {number!r}")
    return kind, complex(value)


# Every config key with the parser that converts its text, once, to the value
# parse_config passes on; a key not listed here is unknown.
KEYS = {
    "scheme": lambda key, raw: raw.lower(),
    "atoms": _scalar(int),
    "n_max": _scalar(int),
    "omega": _scalar(float),
    "E1": _scalar(float),
    "E2": _scalar(float),
    "E3": _scalar(float),
    "g31": _scalar(float),
    "g32": _scalar(float),
    "g21": _scalar(float),
    "classical_alpha": _scalar(complex),
    "t_max": _scalar(float),
    "n_samples": _scalar(int),
    "initial.atom": _atom,
    "initial.field": _field,
    "guard": _scalar(int, nonnegative=True),
    "sweep.n_bar": _n_bars,
}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in KEYS:
            raise ConfigError(f"{key}: unknown key")
        if key in values:
            raise ConfigError(f"{key}: duplicate key")
        values[key] = KEYS[key](key, raw)

    try:  # the keys the two specs read are the required ones
        space = SpaceSpec(values["atoms"], values["n_max"])
        hamiltonian = HamiltonianSpec(
            scheme=values["scheme"],
            energies=(values["E1"], values["E2"], values["E3"]),
            omega=values["omega"],
            g31=values.get("g31", 0.0),
            g32=values.get("g32", 0.0),
            g21=values.get("g21", 0.0),
        )
    except KeyError as exc:
        raise ConfigError(f"{exc.args[0]}: missing required key") from None
    except ValueError as exc:  # the library's own rule and text
        raise ConfigError(str(exc)) from None
    for name in (f"g{i}{j}" for i, j in hamiltonian.coupled_pairs()):
        if name not in values:
            raise ConfigError(f"{name}: required for scheme '{hamiltonian.scheme}'")
        if values[name] <= 0:
            raise ConfigError(f"{name}: must be > 0")
    return RunConfig(
        space=space,
        hamiltonian=hamiltonian,
        classical_alpha=values.get("classical_alpha"),
        t_max=values.get("t_max"),
        n_samples=values.get("n_samples"),
        initial_atom=values.get("initial.atom"),
        initial_field=values.get("initial.field"),
        guard=values.get("guard"),
        n_bars=values.get("sweep.n_bar"),
    )


def _create(path: Path) -> Path:
    """``path``, its directory created: ``--out`` appears with a command's first file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _dump_json(path: Path, payload: dict) -> None:
    _create(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(values: np.ndarray) -> list[str]:
    """repr of each value as a float64, once per distinct bit pattern (-0.0 is not 0.0)."""
    bits, inverse = np.unique(np.asarray(values, float).view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _write_csv(path: Path, header: str, rows: int, columns) -> None:
    """``header``, then the cells ``columns(k)`` of each column for the rows in slice k."""
    with _create(path).open("w") as fh:
        fh.write(header + "\n")
        for k in (slice(start, start + CSV_ROWS) for start in range(0, rows, CSV_ROWS)):
            fh.write("".join(",".join(row) + "\n" for row in zip(*columns(k))))


def write_trajectory_csv(path: Path, record: TrajectoryRecord) -> None:
    _write_csv(path, "t,pop1,pop2,pop3,n_photon,norm,excitation,leakage", len(record.times),
               lambda k: [_fmt(record.times[k]), _fmt(record.pop1[k]), _fmt(record.pop2[k]),
                          _fmt(record.pop3[k]), _fmt(record.n_photon[k]), _fmt(record.norm[k]),
                          _fmt(record.excitation[k]), _fmt(record.leakage[k])])


def _check(name: str, residual: float | None, tolerance: float) -> dict:
    """One report row; a None residual is a skipped check and passes, NaN fails."""
    return {"name": name, "residual": None if residual is None else float(residual),
            "tolerance": tolerance, "passed": bool(residual is None or residual <= tolerance)}


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    spec = cfg.space
    h = cfg.hamiltonian
    guard = cfg.guard if cfg.guard is not None else DEFAULT_VERIFY_GUARD
    checks = [_check(name, r, TOL_ALGEBRA) for name, r in verify_algebra(spec, "u3")]
    checks += [_check(f"{name} (guard={guard})", r, TOL_ALGEBRA)
               for name, r in verify_algebra(spec, "second_order", guard=guard)]

    if reduced_hamiltonian(h) is not None:  # where spectrum uses the rotated frame
        checks.append(_check("mode rotation maps H onto the reduced Hamiltonian",
                             rotation_report(spec, h), TOL_DARK_BLOCK))
        checks.append(_check("dark state annihilated by the interaction",
                             dark_state_residual(spec, h), TOL_ALGEBRA))
    else:
        checks.append(_check(
            "mode rotation maps H onto the reduced Hamiltonian (skipped: non-degenerate "
            "pair energies)", None, TOL_DARK_BLOCK))

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
    spec = cfg.space
    h = cfg.hamiltonian
    record = evolve(
        build_hamiltonian(spec, h),
        prepare_initial(spec, cfg.initial_state(), h),
        cfg.time_grid(),
        excitation_count(spec, h.scheme),
    )
    write_trajectory_csv(out / "trajectory.csv", record)
    print(f"evolve: wrote {out / 'trajectory.csv'} "
          f"({'ok' if record.truncation_safe else 'TRUNCATION-UNSAFE'})")
    if not _conserved({"": record}):
        return EXIT_CHECK_FAILURE
    return EXIT_OK if record.truncation_safe else EXIT_TRUNCATION


def cmd_dispersive_compare(cfg: RunConfig, out: Path) -> int:
    spec = cfg.space
    h = cfg.hamiltonian
    guard = cfg.guard if cfg.guard is not None else DEFAULT_GUARD
    init = cfg.initial_state()
    margin = validity_margin(h, init.mean_photon_number(), spec.atoms)
    ham, h_eff, residual, order = compare(spec, h, guard)

    grid = cfg.time_grid()
    count = excitation_count(spec, h.scheme)
    psi0 = prepare_initial(spec, init, h)
    exact = evolve(ham, psi0, grid, count)
    effective = evolve(h_eff, psi0, grid, count)
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
        "small_params": {f"eps{i}{j}": eps for (i, j), eps in small_params(h).items()},
        "prefactor": transfer_prefactor(h),
        "validity_margin": margin,
        "block_residual": residual,
        "order_estimate": order if math.isfinite(order) else None,
        "max_population_deviation": deviation,
        "transfer": transfer_summary(spec, h, psi0, exact, margin),
    })
    print(f"dispersive-compare: block residual {residual:.3e}, order {order:.2f}")
    if not _conserved({"exact ": exact, "effective ": effective}):
        return EXIT_CHECK_FAILURE
    safe = exact.truncation_safe and effective.truncation_safe
    return EXIT_OK if safe else EXIT_TRUNCATION


def cmd_weights(cfg: RunConfig, out: Path) -> int:
    classical = cfg.classical_alpha is not None
    if cfg.classical_alpha == 0:
        raise ConfigError("classical_alpha: must be nonzero (a zero operator has no weight)")
    layout = diagram_layout(cfg.hamiltonian.scheme, classical, cfg.space)
    _create(out / "weights.csv").write_text(weight_table(layout))
    (out / "weights.svg").write_bytes(render_svg(layout))
    print(f"weights: wrote {out / 'weights.csv'} and {out / 'weights.svg'}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    n_bars = list(cfg.n_bars) if cfg.n_bars else list(DEFAULT_SWEEP_NBARS)
    result = semiclassical_sweep(cfg.space.atoms, n_bars)
    _dump_json(out / "sweep.json", {
        "command": "sweep",
        "rows": [asdict(row) for row in result.rows],
        "slope": result.slope,
    })
    slope = "n/a" if result.slope is None else f"{result.slope:.3f}"
    print(f"sweep: {len(result.rows)} points, log-log slope {slope}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    values = spectrum(cfg.space, cfg.hamiltonian)
    _write_csv(out / "spectrum.csv", "index,eigenvalue", len(values),
               lambda k: [list(map(str, range(len(values))[k])), _fmt(values[k])])
    print(f"spectrum: wrote {out / 'spectrum.csv'} ({len(values)} eigenvalues)")
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
    """Bytes of the largest storage a command holds: for spectrum on the reduced
    Hamiltonian, the ladder bound of its blocks; for weights, the elements of its six
    operators, at most one (row, column, complex value) of 32 bytes per column each; for
    verify, the basis labels and the largest of its checks, which run one after another:
    the u3 stacks, the second-order columns (more than the dark-state check's elements) and
    U_a, held about four times in the rotation row (README, "Command-line interface");
    otherwise one dense complex product-space matrix or, for the trajectory commands,
    their records (9 * 8 * n_samples bytes each) plus one chunk of CHUNK_ENTRIES
    complex states, if that is larger."""
    if command == "spectrum" and reduced_hamiltonian(cfg.hamiltonian) is not None:
        return ladder_storage_bytes(cfg.space)
    if command == "weights":
        return 6 * 32 * cfg.space.product_dim
    if command == "verify":
        dim, blocks = cfg.space.product_dim, sum(b * b for b in range(1, cfg.space.atoms + 2))
        return 32 * dim + max(81 * 232 * cfg.space.atomic_dim, 12 * 24 * dim, 4 * 16 * blocks)
    records = {"evolve": 1, "dispersive-compare": 2}.get(command, 0)  # held at once
    trajectories = (records * 9 * 8 * (cfg.n_samples or 0) + 16 * CHUNK_ENTRIES) if records else 0
    return max(16 * cfg.space.product_dim ** 2, trajectories)


def run(command: str, cfg: RunConfig, out: Path) -> int:
    """Dispatch one command; returns the process exit status.

    Every command but sweep, which builds no matrices, is refused before it
    builds anything when its largest storage (largest_array_bytes) exceeds
    physical memory.
    """
    if command != "sweep":
        need, memory = largest_array_bytes(command, cfg), _physical_memory()
        if need > memory:
            raise ConfigError(
                f"problem size: the largest array needs {need:.3e} bytes, "
                f"more than the {memory:.3e} bytes of physical memory"
            )
    started = time.perf_counter()
    status = COMMANDS[command](cfg, out)
    # the flush meets a closed stdout here, in main's handler, not at interpreter exit
    print(f"{command}: done in {time.perf_counter() - started:.2f}s", flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trilevel",
        description="Collective three-level atoms coupled to a quantized field mode",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--guard", default=None, help="photon guard band; overrides the guard key")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cfg = parse_config(text)
        if args.guard is not None:
            cfg.guard = KEYS["guard"]("guard", args.guard)
        return run(args.command, cfg, Path(args.out))
    except BrokenPipeError:  # whatever is left to print goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
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
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
