"""Config rejection of non-finite values and bad initial occupations, the evolve
conservation gate, and the dark-state check of verify."""

from dataclasses import replace
from pathlib import Path

import json

import numpy as np
import pytest

import trilevel.cli as cli
import trilevel.hamiltonian as hamiltonian
from trilevel.cli import ConfigError, main, parse_config
from trilevel.hamiltonian import HamiltonianSpec, bright_atomic_vector, dark_state_residual
from trilevel.hilbert import SpaceSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = """\
scheme = lambda
atoms = 1
n_max = 4
omega = 1.0
E1 = 0.0
E2 = 0.0
E3 = 3.0
g31 = 0.1
g32 = 0.1
t_max = 40.0
n_samples = 101
initial.atom = 1,0,0
initial.field = fock:1
"""


def with_value(key: str, value: str) -> str:
    lines = [line for line in BASE.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


# one case per key family: field frequency, level energies, couplings, time
# span, classical amplitude, sweep points, coherent initial field
NON_FINITE = [
    ("omega", "nan"),
    ("E3", "inf"),
    ("g31", "inf"),
    ("t_max", "inf"),
    ("classical_alpha", "nan+1j"),
    ("sweep.n_bar", "4,inf"),
    ("initial.field", "coherent:nan"),
]


@pytest.mark.parametrize("key,value", NON_FINITE)
def test_non_finite_value_is_config_error(key, value, tmp_path, capsys):
    text = with_value(key, value)
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    assert main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0", "0+0j"])
def test_zero_classical_alpha_is_a_weights_config_error(alpha, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(with_value("classical_alpha", alpha))
    assert main(["weights", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: classical_alpha: ")
    # the other commands ignore the key
    assert main(["spectrum", "--config", str(conf), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("key", ["E1", "g32", "omega"])
def test_negative_infinity_rejected(key):
    with pytest.raises(ConfigError, match=key):
        parse_config(with_value(key, "-inf"))


@pytest.mark.parametrize("quantity,last", [("energy", 1e-8), ("norm", np.nan)])
def test_drifting_trajectory_fails_the_gate(quantity, last, tmp_path, monkeypatch, capsys):
    real_evolve = cli.evolve

    def drifting(*args, **kwargs):
        record = real_evolve(*args, **kwargs)
        series = getattr(record, quantity).copy()
        series[-1] += last
        return replace(record, **{quantity: series})

    monkeypatch.setattr(cli, "evolve", drifting)
    conf = tmp_path / "run.conf"
    conf.write_text(BASE)
    assert main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")]) == 1
    assert f"{quantity} drift" in capsys.readouterr().out
    assert (tmp_path / "o" / "trajectory.csv").exists()


@pytest.mark.parametrize("name", ["lambda.conf", "vee.conf"])
def test_committed_configs_pass_the_gate(name, tmp_path):
    status = main(["evolve", "--config", str(CONFIGS / name), "--out", str(tmp_path)])
    assert status == 0


@pytest.mark.parametrize("atom", ["1,1,0", "-1,1,1"])
def test_bad_initial_occupation_exits_2_with_the_one_message(atom, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(with_value("initial.atom", atom))
    assert main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    triple = tuple(int(v) for v in atom.split(","))
    assert capsys.readouterr().err == (
        f"config error: {triple} is not an occupation triple summing to 1\n")


@pytest.mark.parametrize("alpha", ["1e200", "1e200-1e200j", "1.7e308+1.7e308j"])
@pytest.mark.parametrize("command", ["evolve", "dispersive-compare"])
def test_coherent_amplitude_whose_square_overflows_is_a_config_error(
        command, alpha, tmp_path, capsys):
    """|alpha|^2 overflows a float: one config error line, not an OverflowError traceback."""
    text = (CONFIGS / "vee.conf").read_text().replace("fock:0", f"coherent:{alpha}")
    assert f"coherent:{alpha}" in text
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    assert main([command, "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: initial.field: |alpha|^2 must be finite, got '{alpha}'\n"


HUGE = "1" + "0" * 400  # an int that no float holds


@pytest.mark.parametrize("key,old", [("atoms", "atoms = 1"), ("n_max", "n_max = 8"),
                                     ("n_samples", "n_samples = 2001"), ("guard", "guard = 2"),
                                     ("initial.field", "fock:0")])
def test_integer_too_large_for_a_float_is_a_config_error(key, old, tmp_path, capsys):
    """One config error line naming the key, not an OverflowError traceback."""
    text = (CONFIGS / "vee.conf").read_text()
    assert text.count(old) == 1
    conf = tmp_path / "run.conf"
    conf.write_text(text.replace(old, old.rstrip("0123456789") + HUGE))
    assert main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1


def degenerate_spec(scheme):
    if scheme == "lambda":
        return HamiltonianSpec(scheme, (0.0, 0.0, 3.0), 1.0, g31=0.07, g32=0.11)
    return HamiltonianSpec(scheme, (0.0, 3.0, 3.0), 1.0, g31=0.07, g21=0.11)


def verify_conf(tmp_path, scheme, atoms, n_max):
    lines = [f"scheme = {scheme}", f"atoms = {atoms}", f"n_max = {n_max}", "omega = 1.0",
             "E1 = 0.0", f"E2 = {0.0 if scheme == 'lambda' else 3.0}", "E3 = 3.0",
             "g31 = 0.07", "g32 = 0.11" if scheme == "lambda" else "g21 = 0.11"]
    conf = tmp_path / "run.conf"
    conf.write_text("\n".join(lines) + "\n")
    return conf


def dark_row(out):
    rows = json.loads((out / "report.json").read_text())["checks"]
    (row,) = [c for c in rows if c["name"] == "dark state annihilated by the interaction"]
    return row


@pytest.mark.parametrize("atoms", range(1, 7))
@pytest.mark.parametrize("scheme", ["lambda", "vee"])
def test_dark_state_row_is_the_residual_of_the_writer_elements(scheme, atoms, tmp_path):
    """verify's row is dark_state_residual, bit for bit."""
    spec, h = SpaceSpec(atoms, 5), degenerate_spec(scheme)
    conf = verify_conf(tmp_path, scheme, atoms, spec.n_max)
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path / "o")]) == 0
    norm = dark_row(tmp_path / "o")["residual"]
    assert norm.hex() == dark_state_residual(spec, h).hex()
    assert norm <= 1e-12


@pytest.mark.parametrize("scheme", ["lambda", "vee"])
def test_bright_vector_in_place_of_the_dark_one_fails_the_row(scheme, tmp_path, monkeypatch):
    monkeypatch.setattr(hamiltonian, "dark_atomic_vector", bright_atomic_vector)
    conf = verify_conf(tmp_path, scheme, 3, 4)
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path / "o")]) == 1
    row = dark_row(tmp_path / "o")
    assert not row["passed"] and row["residual"] > 0.01
