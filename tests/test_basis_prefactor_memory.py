"""One cached basis object per spec, the transfer prefactor without the
closed-form effective Hamiltonian, and out-of-memory runs as config errors."""

from dataclasses import fields

import numpy as np
import pytest

import trilevel.cli as cli
import trilevel.dispersive as dispersive
import trilevel.dynamics as dynamics
from trilevel.dispersive import transfer_prefactor
from trilevel.dynamics import InitialState, TimeGrid, transfer_experiment
from trilevel.hamiltonian import LAMBDA, VEE, HamiltonianSpec
from trilevel.hilbert import SpaceSpec, index_map


@pytest.mark.parametrize("atoms,n_max", [(1, 3), (3, 2)])
def test_one_cached_index_map_per_spec(atoms, n_max):
    spec = SpaceSpec(atoms, n_max)
    imap = index_map(spec)
    assert index_map(SpaceSpec(atoms, n_max)) is imap
    for flat in range(spec.product_dim):
        occ, n = imap.split(flat)
        assert tuple(imap.occupations[flat]) == occ
        assert imap.photons[flat] == n
    assert not imap.occupations.flags.writeable and not imap.photons.flags.writeable


def dispersive_case(scheme):
    if scheme == LAMBDA:
        h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=0.1, g32=0.1)
        return h, InitialState((1, 0, 0), ("fock", 1))
    h = HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.1)
    return h, InitialState((0, 0, 1), ("fock", 0))


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_transfer_experiment_builds_no_transfer_operator(scheme, monkeypatch):
    spec = SpaceSpec(1, 4)
    h, init = dispersive_case(scheme)
    grid = TimeGrid(200.0, 401)
    expected = transfer_experiment(spec, h, init, grid)
    assert expected.prefactor == transfer_prefactor(h)

    def refuse(*args, **kwargs):
        raise AssertionError("transfer_experiment built the effective Hamiltonian")

    monkeypatch.setattr(dispersive, "analytic_effective", refuse)
    monkeypatch.setattr(dynamics, "analytic_effective", refuse, raising=False)
    summary = transfer_experiment(spec, h, init, grid)
    for f in fields(summary):
        if f.name != "record":
            assert getattr(summary, f.name) == getattr(expected, f.name)
    assert np.array_equal(summary.record.pop2, expected.record.pop2)


CONF = """\
scheme = lambda
atoms = 1
n_max = 4
omega = 1.0
E1 = 0.0
E2 = 0.0
E3 = 3.0
g31 = 0.1
g32 = 0.1
"""


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 8.00 GiB for an array", "Unable to allocate 8.00 GiB for an array"),
    ("", "out of memory"),
])
def test_memory_error_is_a_config_error(message, shown, tmp_path, monkeypatch, capsys):
    def exhausted(cfg, out):
        raise MemoryError(message)

    monkeypatch.setitem(cli.COMMANDS, "spectrum", exhausted)
    conf = tmp_path / "run.conf"
    conf.write_text(CONF)
    status = cli.main(["spectrum", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert status == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: problem size: {shown}\n"
