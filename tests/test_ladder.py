"""Smoke test of the size-ladder script on a tiny rung."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import ladder  # noqa: E402

STAGES = {"build_hamiltonian", "verify_algebra_second_order", "verify_algebra_u3",
          "rotation_report", "evolve", "eigenvalues", "diagram_layout"}


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
