"""Smoke test of the size-ladder script on a tiny rung."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import ladder  # noqa: E402

STAGES = {"build_hamiltonian", "verify_algebra_second_order", "verify_algebra_u3",
          "rotation_report", "evolve", "eigenvalues", "diagram_layout", "spectrum",
          "dark_state_residual", "dispersive_compare"}


def test_tiny_rung_writes_the_next_bench_file(tmp_path):
    (tmp_path / "BENCH_0.json").write_text("{}\n")
    path = ladder.main(tmp_path, rungs=((1, 2),))
    assert path == tmp_path / "BENCH_1.json"
    (rung,) = json.loads(path.read_text())["rungs"]
    assert (rung["atoms"], rung["n_max"], rung["dim"]) == (1, 2, 9)
    assert set(rung["stages_s"]) == STAGES
    assert all(t >= 0 for t in rung["stages_s"].values())
    assert set(rung["traced_peak_mb"]) == STAGES
    assert all(peak > 0 for peak in rung["traced_peak_mb"].values())
    assert rung["peak_rss_mb"] > 0


def test_a_rung_whose_worker_dies_fails_at_once(tmp_path):
    """Driven from stdin, each spawned worker dies at start (it cannot re-run a
    ``__main__`` read from ``<stdin>``); the run must exit non-zero, not wait."""
    script = (f"import sys; sys.path.insert(0, {str(SCRIPTS)!r}); import ladder; "
              f"from pathlib import Path; ladder.main(Path({str(tmp_path)!r}), rungs=((1, 2),))")
    done = subprocess.run([sys.executable, "-"], input=script, capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "BrokenProcessPool" in done.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_a_stage_the_checkout_lacks_records_null(monkeypatch):
    monkeypatch.delattr(ladder.hamiltonian, "dark_state_residual")
    rung = ladder.run_rung(1, 2)
    assert rung["stages_s"]["dark_state_residual"] is None
    assert rung["traced_peak_mb"]["dark_state_residual"] is None
    assert rung["stages_s"]["spectrum"] >= 0
