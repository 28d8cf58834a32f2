"""Numerical failures exit 1 without a traceback, and dispersive-compare
gates the conservation of both of its trajectories."""

from dataclasses import replace

import numpy as np
import pytest

import trilevel.cli as cli
import trilevel.operators as operators
from trilevel.cli import main

LAMBDA_CONF = """\
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


def run(command, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(LAMBDA_CONF)
    return main([command, "--config", str(conf), "--out", str(tmp_path / "o")])


def test_linalg_error_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    def diverging(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverging)
    assert run("spectrum", tmp_path) == cli.EXIT_CHECK_FAILURE
    err = capsys.readouterr().err
    assert err == "numerical error: Eigenvalues did not converge\n"


def test_non_unitary_rotation_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(operators, "TOL_UNITARY", -1.0)
    assert run("dispersive-compare", tmp_path) == cli.EXIT_CHECK_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("numerical error: rotation is not unitary")
    assert err.count("\n") == 1


def test_value_error_stays_a_config_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(LAMBDA_CONF.replace("fock:1", "fock:9"))
    assert main(["evolve", "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("drifting_call,label", [(0, "exact"), (1, "effective")])
def test_dispersive_compare_gates_conservation(drifting_call, label, tmp_path,
                                               monkeypatch, capsys):
    real_evolve = cli.evolve
    calls = []

    def evolve(*args, **kwargs):
        record = real_evolve(*args, **kwargs)
        if len(calls) == drifting_call:
            energy = record.energy.copy()
            energy[-1] += 1e-8
            record = replace(record, energy=energy)
        calls.append(record)
        return record

    monkeypatch.setattr(cli, "evolve", evolve)
    assert run("dispersive-compare", tmp_path) == cli.EXIT_CHECK_FAILURE
    out = capsys.readouterr().out
    assert f"FAIL {label} energy drift" in out
    assert out.count("FAIL") == 1
    for name in ("dispersive.json", "dispersive_exact.csv", "dispersive_effective.csv"):
        assert (tmp_path / "o" / name).exists()


def test_dispersive_compare_passes_the_gate(tmp_path):
    assert run("dispersive-compare", tmp_path) == cli.EXIT_OK
