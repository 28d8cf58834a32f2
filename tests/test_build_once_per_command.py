"""evolve builds H alone, dispersive-compare builds H and the closed-form effective
H once per detuning, the verify identities agree exactly with their dense form, and a
run too large for physical memory is refused before anything is built.

The identity reference rebuilds both sides from the lifted collective and
field operators and the dressed transitions of ``dense_reference``.
"""

import json
import math

import numpy as np
import pytest

import dense_reference as dr
import trilevel.cli as cli
import trilevel.dispersive as dispersive
import trilevel.dynamics as dynamics
import trilevel.hamiltonian as hamiltonian
from trilevel.cli import main, parse_config
from trilevel.dispersive import residual_and_order
from trilevel.hilbert import SpaceSpec
from trilevel.operators import CHUNK_ENTRIES, OperatorMatrix, verify_algebra

LAMBDA_CONF = """\
scheme = lambda
atoms = 2
n_max = 5
omega = 1.0
E1 = 0.0
E2 = 0.0
E3 = 3.0
g31 = 0.1
g32 = 0.08
t_max = 40.0
n_samples = 101
initial.atom = 1,1,0
initial.field = fock:1
"""

VEE_CONF = """\
scheme = vee
atoms = 2
n_max = 5
omega = 1.0
E1 = 0.0
E2 = 3.0
E3 = 3.0
g31 = 0.07
g21 = 0.1
t_max = 40.0
n_samples = 101
initial.atom = 0,1,1
initial.field = fock:0
"""


def run(command, text, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    return main([command, "--config", str(conf), "--out", str(tmp_path / "o")])


def counting(calls, name, real):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapper


def count_constructions(monkeypatch) -> list:
    """A list that gains one entry per OperatorMatrix built from now on."""
    built, real = [], OperatorMatrix.__post_init__

    def counted(op):
        built.append(op)
        real(op)

    monkeypatch.setattr(OperatorMatrix, "__post_init__", counted)
    return built


@pytest.mark.parametrize("text", [LAMBDA_CONF, VEE_CONF], ids=["lambda", "vee"])
def test_evolve_builds_only_the_hamiltonian(text, tmp_path, monkeypatch):
    built = count_constructions(monkeypatch)
    assert run("evolve", text, tmp_path) == cli.EXIT_OK
    assert len(built) == 1  # the excitation series reads the labels


@pytest.mark.parametrize("text", [LAMBDA_CONF, VEE_CONF], ids=["lambda", "vee"])
def test_dispersive_compare_builds_each_operator_once(text, tmp_path, monkeypatch):
    calls, built = [], count_constructions(monkeypatch)
    build = counting(calls, "H", hamiltonian.build_hamiltonian)
    for module in (hamiltonian, dispersive, dynamics, cli):
        monkeypatch.setattr(module, "build_hamiltonian", build)
    for name in ("analytic_effective", "_transfer_block"):
        monkeypatch.setattr(dispersive, name, counting(calls, name, getattr(dispersive, name)))
    assert run("dispersive-compare", text, tmp_path) == cli.EXIT_OK
    # one H and one effective H for eps, one each for the eps/2 probe; both evolved at eps
    assert calls.count("H") == 2
    assert calls.count("analytic_effective") == 2
    assert calls.count("_transfer_block") == 1
    assert len(built) == 10  # two generators; per detuning H, H_eff and two rotations


@pytest.mark.parametrize("text", [LAMBDA_CONF, VEE_CONF], ids=["lambda", "vee"])
@pytest.mark.parametrize("guard", [2, 3])
def test_dispersive_json_matches_residual_and_order(text, guard, tmp_path):
    text = text + f"guard = {guard}\n"
    assert run("dispersive-compare", text, tmp_path) == cli.EXIT_OK
    written = json.loads((tmp_path / "o" / "dispersive.json").read_text())
    cfg = parse_config(text)
    spec, h = cfg.space, cfg.hamiltonian
    residual, order = residual_and_order(spec, h, guard)
    assert written["block_residual"] == residual
    assert written["order_estimate"] == (order if math.isfinite(order) else None)


def dense_residuals(spec, guard):
    s = {(i, j): dr.lift_atomic(spec, dr.atomic(spec, i, j)) for (i, j)
         in ((1, 1), (3, 3), (2, 1), (3, 2))}
    num, one = dr.number(spec), np.eye(spec.product_dim)
    x31, x23, x12 = (dr.dressed(spec, i, j) for i, j in ((3, 1), (2, 3), (1, 2)))
    diffs = [
        (x23 @ x31) - (num @ (s[3, 3] + one) @ s[2, 1]),
        (x31 @ x23) - ((num + one) @ s[3, 3] @ s[2, 1]),
        dr.commutator(x31, x23) - ((s[3, 3] - num) @ s[2, 1]),
        dr.commutator(x31, x12) - ((s[1, 1] + num + one) @ s[3, 2]),
    ]
    keep = np.diag(dr.guarded_projector(spec, guard)).real > 0
    out = []
    for diff in diffs:
        sub = diff[np.ix_(keep, keep)]
        out.append(float(np.max(np.abs(sub))) if sub.size else 0.0)
    return out


@pytest.mark.parametrize("atoms,n_max", [(1, 4), (2, 3), (3, 3)])
def test_second_order_residuals_equal_the_dense_ones(atoms, n_max):
    spec = SpaceSpec(atoms, n_max)
    for guard in range(n_max + 1):
        reports = verify_algebra(spec, "second_order", guard=guard)
        assert [r for _, r in reports] == dense_residuals(spec, guard)


SMALL_CONF = LAMBDA_CONF.replace("atoms = 2", "atoms = 1").replace("1,1,0", "1,0,0")
SMALL_DIM = 3 * 6  # atomic_dim 3, field_dim 6


CHUNK = 16 * CHUNK_ENTRIES  # one chunk of complex trajectory states
RECORD = 9 * 8  # bytes per sample of one trajectory record


@pytest.mark.parametrize("command,expected,expected_fewer", [
    ("spectrum", 16 * SMALL_DIM * 2, 16 * SMALL_DIM * 2),  # ladders of at most atoms + 1 = 2
    ("verify", 16 * SMALL_DIM ** 2, 16 * SMALL_DIM ** 2),
    ("weights", 6 * 32 * SMALL_DIM, 6 * 32 * SMALL_DIM),  # six operators' (row, col, value)
    ("evolve", RECORD * 101 + CHUNK, RECORD * 5 + CHUNK),
    ("dispersive-compare", 2 * RECORD * 101 + CHUNK, 2 * RECORD * 5 + CHUNK),
])
def test_largest_array_estimate(command, expected, expected_fewer):
    assert cli.largest_array_bytes(command, parse_config(SMALL_CONF)) == expected
    fewer = SMALL_CONF.replace("n_samples = 101", "n_samples = 5")
    assert cli.largest_array_bytes(command, parse_config(fewer)) == expected_fewer


def test_spectrum_estimate_is_dense_unless_the_pair_is_exactly_degenerate():
    split = SMALL_CONF.replace("E2 = 0.0", f"E2 = {float(np.nextafter(0.0, 1.0))!r}")
    assert cli.largest_array_bytes("spectrum", parse_config(split)) == 16 * SMALL_DIM ** 2


def test_sizes_the_dense_estimate_refused_now_fit():
    """spectrum at A=32, n_max=40 and evolve at A=8, n_max=16 over 700,000 samples need
    8.5e9 and 8.6e9 bytes as dense arrays, weights at A=60, n_max=100 5.8e11; their
    stored forms take under 0.1 GB."""
    big = SMALL_CONF.replace("atoms = 1", "atoms = 32").replace("n_max = 5", "n_max = 40")
    assert cli.largest_array_bytes("spectrum", parse_config(big)) == 16 * 561 * 41 * 33
    long = (SMALL_CONF.replace("atoms = 1", "atoms = 8").replace("n_max = 5", "n_max = 16")
            .replace("n_samples = 101", "n_samples = 700000"))
    assert cli.largest_array_bytes("evolve", parse_config(long)) == RECORD * 700000 + CHUNK
    scale = SMALL_CONF.replace("atoms = 1", "atoms = 60").replace("n_max = 5", "n_max = 100")
    assert cli.largest_array_bytes("weights", parse_config(scale)) == 6 * 32 * 1891 * 101
    assert max(cli.largest_array_bytes("spectrum", parse_config(big)),
               cli.largest_array_bytes("evolve", parse_config(long)),
               cli.largest_array_bytes("weights", parse_config(scale))) < 1e8


def refuse_construction(op):
    raise AssertionError("an operator was built for a refused run")


@pytest.mark.parametrize("command", ["evolve", "dispersive-compare", "spectrum",
                                     "verify", "weights"])
def test_oversized_run_is_refused_before_building(command, tmp_path, monkeypatch, capsys):
    need = cli.largest_array_bytes(command, parse_config(SMALL_CONF))
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(OperatorMatrix, "__post_init__", refuse_construction)
    assert run(command, SMALL_CONF, tmp_path) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1
    assert f"{need:.3e} bytes" in err
    assert not (tmp_path / "o").exists()


def test_run_that_fits_exactly_proceeds(tmp_path, monkeypatch):
    need = cli.largest_array_bytes("evolve", parse_config(SMALL_CONF))
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert run("evolve", SMALL_CONF, tmp_path) == cli.EXIT_OK


def test_sweep_is_exempt_from_the_size_guard(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1)
    assert run("sweep", SMALL_CONF + "sweep.n_bar = 4,8\n", tmp_path) == cli.EXIT_OK
