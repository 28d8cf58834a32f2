"""The vacuum-transfer block of ``dispersive.json`` and the peak fit it reads.

``trilevel dispersive-compare`` summarizes its exact trajectory in a ``transfer``
block (dispersive.transfer_summary): the partner level, its largest population,
the enhancement factor at t = 0 and, where the symmetric-vee rule holds, the
predicted and measured half-periods.  The committed configs read the values the
former library experiment gave them; every case that experiment refused, and a pair
that starts equally populated, writes null half-periods and exits 0.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from trilevel.cli import main
from trilevel.dispersive import _first_peak_time

ROOT = Path(__file__).resolve().parents[1]
NULL_HALVES = {"predicted_half_period": None, "measured_half_period": None}


def transfer(tmp_path, name, values=None):
    """The transfer block and validity margin of configs/<name>.conf with ``values`` set,
    and the exit code."""
    text = (ROOT / "configs" / f"{name}.conf").read_text()
    for key, value in (values or {}).items():
        text = re.sub(rf"^{re.escape(key)} = .*\n", "", text, flags=re.M) + f"{key} = {value}\n"
    tmp_path.mkdir(exist_ok=True)
    conf, out = tmp_path / "run.conf", tmp_path / "o"
    conf.write_text(text)
    status = main(["dispersive-compare", "--config", str(conf), "--out", str(out)])
    payload = json.loads((out / "dispersive.json").read_text())
    return payload["transfer"], payload["validity_margin"], status


def test_committed_configs_read_the_experiments(tmp_path):
    vee, _, status = transfer(tmp_path / "vee", "vee")
    assert status == 0
    assert vee == {"partner_level": 2, "max_partner_population": 0.9997616153678149,
                   "enhancement_factor": 1.0, "predicted_half_period": 314.15926535897927,
                   "measured_half_period": 315.72232888872253}
    lam, _, status = transfer(tmp_path / "lambda", "lambda")
    assert status == 0
    assert lam == {"partner_level": 2, "max_partner_population": 0.0,
                   "enhancement_factor": 0.0, **NULL_HALVES}


@pytest.mark.parametrize("field,factor,largest", [
    ("fock:0", 2.0, 0.0), ("fock:1", 3.0, 0.009803921044122208)])
def test_equally_populated_pair_writes_null_half_periods(field, factor, largest, tmp_path):
    """Levels 2 and 3 both start empty: no series can show the transfer, so nothing is
    fitted (the fit read 0.0 and 1.55 against 157.08 and 104.72)."""
    block, _, status = transfer(tmp_path, "vee",
                                {"initial.atom": "1,0,0", "initial.field": field})
    assert status == 0
    assert block == {"partner_level": 2, "max_partner_population": largest,
                     "enhancement_factor": factor, **NULL_HALVES}


@pytest.mark.parametrize("values,margin,fitted", [
    # eps = 0.08: detunings 1.25 at g = 0.1, margin 1.25 / (g sqrt(n + 1))
    ({"E2": 2.25, "E3": 2.25, "initial.field": "fock:1"}, 8.838834764831843, False),
    ({"E2": 2.25, "E3": 2.25}, 12.5, True),
    ({"n_samples": 100}, 20.0, False),
    ({"n_samples": 399}, 20.0, False),
    ({"n_samples": 400}, 20.0, True),
    ({"g21": 0.09}, 20.0, False),  # asymmetric couplings
], ids=["margin-8.84", "margin-12.5", "100-samples", "399-samples", "400-samples",
        "asymmetric"])
def test_half_periods_are_null_off_the_rule(values, margin, fitted, tmp_path):
    block, written, status = transfer(tmp_path, "vee", values)
    assert status == 0 and written == margin
    assert (block["predicted_half_period"] is not None) is fitted
    assert (block["measured_half_period"] is not None) is fitted


@pytest.mark.parametrize("name,atom,partner", [("vee", "0,0,1", 2), ("vee", "0,1,0", 3),
                                               ("lambda", "1,0,0", 2), ("lambda", "0,1,0", 1),
                                               ("lambda", "0,0,1", 2)])
def test_partner_is_the_less_populated_pair_member(name, atom, partner, tmp_path):
    block, _, status = transfer(tmp_path, name, {"initial.atom": atom})
    assert status == 0 and block["partner_level"] == partner


def test_dynamics_imports_nothing_from_dispersive():
    tree = ast.parse((ROOT / "src" / "trilevel" / "dynamics.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dispersive" not in imported and "hamiltonian" in imported


HALF = 314.0
TIMES = np.linspace(0.0, 3 * HALF, 1000)
SIN2 = np.sin(np.pi * TIMES / (2 * HALF)) ** 2


def test_first_peak_of_a_clean_oscillation():
    assert _first_peak_time(TIMES, SIN2) == pytest.approx(HALF, abs=1e-9)
    t = TIMES + 0.37  # the peak between two samples: the parabola is not sin^2
    assert _first_peak_time(t, np.sin(np.pi * t / (2 * HALF)) ** 2) == pytest.approx(
        HALF, rel=1e-5)


@pytest.mark.parametrize("frequency", [37.3, 51.7])
def test_first_peak_averages_fast_ripples_out(frequency):
    rippled = SIN2 + 0.01 * np.sin(2 * np.pi * frequency * TIMES / HALF + 0.4)
    assert abs(TIMES[np.argmax(rippled[:500])] - HALF) > 0.5  # the top sample is off
    assert _first_peak_time(TIMES, rippled) == pytest.approx(HALF, abs=0.05)


def test_first_peak_is_not_a_higher_later_one():
    growing = SIN2 * (1 + 0.002 * TIMES / HALF)
    assert TIMES[np.argmax(growing)] > 2 * HALF
    assert _first_peak_time(TIMES, growing) == pytest.approx(HALF, abs=0.5)


def test_first_peak_of_two_samples_above_90_percent_fits_three():
    """Four samples per half-period: two reach 90 %, so the parabola goes through the
    highest sample and its two neighbours."""
    t = np.arange(0.1, 3.0, 0.25) * HALF
    y = np.sin(np.pi * t / (2 * HALF)) ** 2
    first = y[:6] >= 0.9 * y.max()
    assert first.sum() == 2
    i = int(np.argmax(y[:6]))
    (t0, t1, t2), (y0, y1, y2) = t[i - 1:i + 2], y[i - 1:i + 2]
    vertex = t1 - 0.5 * ((t1 - t0) ** 2 * (y1 - y2) - (t1 - t2) ** 2 * (y1 - y0)) / (
        (t1 - t0) * (y1 - y2) - (t1 - t2) * (y1 - y0))
    peak = _first_peak_time(t, y)
    assert peak == pytest.approx(vertex, rel=1e-12)
    assert abs(peak - HALF) < 0.01 * HALF < abs(t1 - HALF)
