"""Small parameters read from the Hamiltonian spec: the dispersive outputs keep their
bits, dispersive-compare keeps its config errors and their order, and the transfer
script runs end to end."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trilevel.cli import main
from trilevel.dispersive import analytic_effective, compare, transfer_prefactor
from trilevel.hamiltonian import LAMBDA, VEE, HamiltonianSpec
from trilevel.hilbert import SpaceSpec

ROOT = Path(__file__).resolve().parents[1]

# (residual, order, prefactor) as float.hex and the first 16 hex digits of the sha256 of
# analytic_effective's (rows, cols, values) bytes, computed when each of these functions
# still took a DispersiveParams record beside the spec; guard 2, eps = 0.05 and 0.035.
PINNED = {
    (LAMBDA, 1): ("0x1.ff4e36093d400p-15", "0x1.7fb8bc18d22f2p+1", "0x1.cac083126e97ap-9",
                  "d3732a70dbe72371"),
    (LAMBDA, 2): ("0x1.1804f0ed688c0p-12", "0x1.7f345743ccd67p+1", "0x1.cac083126e97ap-9",
                  "72f2880665eaab5a"),
    (LAMBDA, 3): ("0x1.6a051027e4c00p-11", "0x1.7ea9b6f348d65p+1", "0x1.cac083126e97ap-9",
                  "9a0c18562441cbc8"),
    (LAMBDA, 4): ("0x1.7be725f4ce1e0p-10", "0x1.7e26d5f52f276p+1", "0x1.cac083126e97ap-9",
                  "71a884adc76a46fa"),
    (VEE, 1): ("0x1.972072d09fa80p-14", "0x1.7fbac97b556d5p+1", "0x1.cac083126e97ap-9",
               "cce209e9304f56ff"),
    (VEE, 2): ("0x1.bb5156da8fc80p-12", "0x1.7ec0b3019ba16p+1", "0x1.cac083126e97ap-9",
               "a37e1a25c362f084"),
    (VEE, 3): ("0x1.e8c80f9f29fe0p-11", "0x1.7ddfc6381d7ffp+1", "0x1.cac083126e97ap-9",
               "4805d51f5f3c6539"),
    (VEE, 4): ("0x1.a93e8441905e0p-10", "0x1.7d03d8b09fd95p+1", "0x1.cac083126e97ap-9",
               "5ff288f0dac158f7"),
}


def digest(elements) -> str:
    h = hashlib.sha256()
    for x in elements:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("scheme,atoms", sorted(PINNED))
def test_dispersive_outputs_keep_their_bits(scheme, atoms):
    second = "g32" if scheme == LAMBDA else "g21"
    energies = (0.0, 0.0, 3.0) if scheme == LAMBDA else (0.0, 3.0, 3.0)
    h = HamiltonianSpec(scheme, energies, 1.0, g31=0.1, **{second: 0.07})
    spec = SpaceSpec(atoms, atoms + 3)
    _, effective, residual, order = compare(spec, h, 2)
    got = (residual.hex(), order.hex(), transfer_prefactor(h).hex(), digest(effective.elements()))
    assert got == PINNED[scheme, atoms]
    assert digest(analytic_effective(spec, h).elements()) == PINNED[scheme, atoms][3]


def vee_conf(**values) -> str:
    """configs/vee.conf at n_max = 6 and 201 samples, with ``values`` set."""
    text = (ROOT / "configs" / "vee.conf").read_text()
    values = {"n_max": 6, "n_samples": 201, **values}
    for key, value in values.items():
        text = re.sub(rf"^{re.escape(key)} = .*\n", "", text, flags=re.M) + f"{key} = {value}\n"
    return text


@pytest.mark.parametrize("values,error", [
    ({"initial.field": "fock:-1"}, "mean photon number must be >= 0, got -1.0"),
    ({"E2": 1.0, "E3": 1.0}, "pair (3, 1) is resonant (zero detuning)"),
    ({"g31": 2.5, "g21": 2.5}, "eps31 = 1.25 is not a small parameter"),
    ({"guard": 1}, "guard must be >= 2 for dispersive comparisons, got 1"),
    ({"g31": 0.3, "g21": 0.3}, "order probe expects |eps| <= 0.1"),
    ({"E3": 3.5}, "order probe requires equal detunings on the two coupled pairs; "
                  "got 2.5 and 2"),
    ({"E2": 1.0, "E3": 1.0, "guard": 1}, "pair (3, 1) is resonant (zero detuning)"),
    ({"E2": 1.0, "E3": 1.0, "initial.field": "fock:-1"},
     "mean photon number must be >= 0, got -1.0"),
], ids=["negative-n", "resonance", "large-eps", "guard-1", "eps-above-0.1",
        "unequal-detunings", "resonance-before-guard", "n-before-resonance"])
def test_dispersive_compare_config_errors(values, error, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(vee_conf(**values))
    assert main(["dispersive-compare", "--config", str(conf), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_transfer_experiments_script(tmp_path):
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "transfer_experiments.py"),
                          "--out", str(tmp_path)], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    for name in ("lambda_vacuum.csv", "vee_vacuum.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 1 + 2001
    assert run.stdout.splitlines() == [
        "lambda vacuum: max level-2 population 0.000e+00 (bound 10 eps^2 = 0.0250)",
        "vee vacuum: max level-2 population 0.9998, half-period 315.7 (predicted 314.2)",
    ]
