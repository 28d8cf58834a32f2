"""Numerical failures exit 1 without a traceback, dispersive-compare
gates the conservation of both of its trajectories, a failed mode rotation
is a report row, a command that fails before it writes creates no
output directory, and a closed stdout ends a run without a traceback."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trilevel.cli as cli
import trilevel.hamiltonian as hamiltonian
import trilevel.operators as operators
from trilevel.cli import main
from trilevel.dynamics import required_fock_cutoff
from trilevel.operators import PRODUCT, element_sum, identity_elements

VEE_CONF = (Path(__file__).resolve().parents[1] / "configs" / "vee.conf").read_text()

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


ROTATION_ROW = "mode rotation maps H onto the reduced Hamiltonian"


def test_flipped_layout_sign_is_reported_by_verify(tmp_path, monkeypatch, capsys):
    """A rotation by the wrong sign fails one report row, not the whole command."""
    lay = operators.LAYOUTS["vee"]
    monkeypatch.setitem(operators.LAYOUTS, "vee", replace(lay, sign=-lay.sign))
    conf = tmp_path / "vee.conf"
    conf.write_text(VEE_CONF)
    status = main(["verify", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert status == cli.EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("FAIL") == 1
    checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
    failed = {c["name"]: c["residual"] for c in checks if not c["passed"]}
    assert len(checks) == 87
    # the dark mode keeps the root-sum-square coupling: sqrt(2) 0.1 sqrt(n_max = 8)
    assert failed.keys() == {ROTATION_ROW}
    assert abs(failed[ROTATION_ROW] - 0.4) <= 1e-10


def _identity_rotation(monkeypatch):
    monkeypatch.setattr(hamiltonian, "unitary_exp",
                        lambda gen, theta: element_sum(
                            PRODUCT, gen.spec, [identity_elements(gen.spec.product_dim)]))


def _wrong_bright_coupling(monkeypatch):
    real = hamiltonian.reduced_hamiltonian
    monkeypatch.setattr(hamiltonian, "reduced_hamiltonian",
                        lambda h: replace(real(h), g31=1.001 * real(h).g31))


@pytest.mark.parametrize("sabotage", [_identity_rotation, _wrong_bright_coupling])
def test_a_wrong_rotated_frame_fails_the_one_rotation_row(sabotage, tmp_path, monkeypatch,
                                                          capsys):
    """An unrotated H, or a reduced H with the wrong bright coupling, fails the row
    that compares U H U^dag with the reduced H, and only that row."""
    sabotage(monkeypatch)
    conf = tmp_path / "vee.conf"
    conf.write_text(VEE_CONF)
    status = main(["verify", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert status == cli.EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("FAIL") == 1 and f"FAIL {ROTATION_ROW}:" in captured.out
    checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == [ROTATION_ROW]


def test_a_one_ulp_split_skips_the_rotation_rows(tmp_path, capsys):
    """Paired energies one ulp apart have no reduced H, so the rotation is not checked."""
    conf = tmp_path / "vee.conf"
    conf.write_text(_edit("E3", repr(float(np.nextafter(3.0, 4.0)))))
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
    assert len(checks) == 86
    assert checks[-1] == {"name": f"{ROTATION_ROW} (skipped: non-degenerate pair energies)",
                          "residual": None, "tolerance": 1e-10, "passed": True}
    assert not any("dark state" in c["name"] for c in checks)


def _edit(key, value):
    """configs/vee.conf with ``key`` set to ``value``, or removed when value is None."""
    text = re.sub(rf"^{re.escape(key)} = .*\n", "", VEE_CONF, flags=re.M)
    return text if value is None else text + f"{key} = {value}\n"


@pytest.mark.parametrize("command,text,extra,status,error", [
    ("evolve", _edit("t_max", "-1"), [], 2, "config error: t_max must be > 0"),
    ("evolve", _edit("n_samples", "1"), [], 2, "config error: n_samples must be >= 2"),
    ("evolve", _edit("t_max", None), [], 2, "config error: t_max: required"),
    ("evolve", _edit("initial.field", "fock:9"), [], 2, "config error: photon number 9"),
    ("evolve", _edit("initial.field", "coherent:3"), [], 3, "truncation error: coherent tail"),
    ("verify", VEE_CONF, ["--guard", "9"], 2, "config error: guard must be in [0, 8]"),
    ("dispersive-compare", VEE_CONF, ["--guard", "1"], 2, "config error: guard must be >= 2"),
    ("dispersive-compare", _edit("E3", "3.5"), [], 2, "config error: order probe requires"),
    ("weights", _edit("classical_alpha", "0"), [], 2, "config error: classical_alpha: must be"),
    ("sweep", _edit("sweep.n_bar", "200000"), [], 2, "config error: |alpha|^2 = 200000"),
], ids=["negative-t_max", "one-sample", "no-t_max", "fock-beyond-n_max", "coherent-tail",
        "verify-guard-9", "compare-guard-1", "unequal-detunings", "zero-alpha", "large-n_bar"])
def test_a_command_that_fails_before_writing_creates_no_output_directory(
        command, text, extra, status, error, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--config", str(conf), "--out", str(out), *extra]) == status
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1
    assert not out.exists()


def test_a_coherent_field_past_708_needs_the_cutoff_of_its_tail(tmp_path, capsys):
    """|alpha|^2 = 729 is past the normal range of exp(-|alpha|^2); the estimate is the
    smallest cutoff whose Poisson tail, summed from lgamma, is below 1e-10."""
    conf = tmp_path / "run.conf"
    conf.write_text(_edit("initial.field", "coherent:27"))
    assert main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")]) == 3
    need = int(re.search(r"need n_max >= (\d+)\n$", capsys.readouterr().err).group(1))
    assert lgamma_tail(729.0, need) <= 1e-10 < lgamma_tail(729.0, need - 1)


def lgamma_tail(lam: float, n: int) -> float:
    """P(N > n) for N ~ Poisson(lam), each term exp(-lam + k log lam - lgamma(k + 1))."""
    return math.fsum(math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
                     for k in range(n + 1, int(lam + 60 * math.sqrt(lam))))


def test_a_coherent_field_past_1416_evolves_at_a_sufficient_cutoff(tmp_path):
    """exp(-|alpha|^2 / 2) underflows at |alpha|^2 = 1521: the amplitudes start at the
    first normal one, so the tail is small and the run is truncation-safe."""
    text = VEE_CONF
    for key, value in (("n_max", required_fock_cutoff(39.0) + 20), ("t_max", 10.0),
                       ("n_samples", 101), ("initial.field", "coherent:39")):
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    assert main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_without_a_traceback(unbuffered, tmp_path):
    """``verify | head -c 0``: the reader is gone before the first line; block-buffered
    stdout meets it at the flush in main, unbuffered stdout at the first print."""
    conf = Path(__file__).resolve().parents[1] / "configs" / "lambda.conf"
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "trilevel.cli", "verify", "--config",
                              str(conf), "--out", str(tmp_path / "o")], stdout=write,
                             stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write)
    assert run.stderr == ""
    assert run.returncode == cli.EXIT_CLOSED_STDOUT == 141
    assert json.loads((tmp_path / "o" / "report.json").read_text())["overall_pass"]
