"""Config rejection of non-finite values and bad initial occupations, the evolve
conservation gate, and the dark-state check of verify."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trilevel.cli as cli
from trilevel.cli import ConfigError, main, parse_config
from trilevel.hamiltonian import HamiltonianSpec, dark_state, interaction_hamiltonian
from trilevel.hilbert import SpaceSpec
from trilevel.operators import apply

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


def degenerate_spec(scheme):
    if scheme == "lambda":
        return HamiltonianSpec(scheme, (0.0, 0.0, 3.0), 1.0, g31=0.07, g32=0.11)
    return HamiltonianSpec(scheme, (0.0, 3.0, 3.0), 1.0, g31=0.07, g21=0.11)


def all_blocks_norm(op, psi):
    out = np.zeros_like(psi)
    for idx, block in apply(op, psi):
        out[idx] = block
    return float(np.linalg.norm(out))


@pytest.mark.parametrize("atoms", range(1, 7))
@pytest.mark.parametrize("scheme", ["lambda", "vee"])
def test_dark_state_norm_keeps_the_bits_of_every_block(scheme, atoms):
    spec, h = SpaceSpec(atoms, 5), degenerate_spec(scheme)
    h_int = interaction_hamiltonian(spec, h)
    for n in range(spec.n_max):
        psi = dark_state(spec, h, n)
        norm = cli._applied_norm(h_int, psi)
        assert norm.hex() == all_blocks_norm(h_int, psi).hex()
        assert norm <= 1e-12


@pytest.mark.parametrize("scheme", ["lambda", "vee"])
def test_dark_state_check_multiplies_only_the_occupied_blocks(scheme, tmp_path, monkeypatch):
    multiplied, total = [], []
    real_apply = cli.apply

    def recording(op, states, support=None):
        total.append(op.blocks.count)
        for idx, block in real_apply(op, states, support):
            multiplied.append((states[idx] != 0).any(axis=1))  # per block: occupied?
            yield idx, block

    monkeypatch.setattr(cli, "apply", recording)
    lines = [f"scheme = {scheme}", "atoms = 3", "n_max = 4", "omega = 1.0", "E1 = 0.0",
             f"E2 = {0.0 if scheme == 'lambda' else 3.0}", "E3 = 3.0", "g31 = 0.07",
             "g32 = 0.11" if scheme == "lambda" else "g21 = 0.11"]
    conf = tmp_path / "run.conf"
    conf.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path / "o")]) == 0
    assert len(total) == 4  # one dark state per photon number below n_max
    occupied = np.concatenate(multiplied)
    assert occupied.all()
    assert len(occupied) < sum(total)
