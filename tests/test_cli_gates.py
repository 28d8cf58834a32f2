"""Config rejection of non-finite values and the evolve conservation gate."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trilevel.cli as cli
from trilevel.cli import ConfigError, main, parse_config

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
