"""The benchmark's tracer finds every package name it wraps.

``perfbench/tracing.py`` replaces package functions and methods by name, and
``install()`` raises AttributeError when one of them is gone, which would
break ``perfbench/run.py --trace 1``.  Install it, build a Hamiltonian and a
weight diagram through the wrapped names, and uninstall it again; a traced
``verify`` records the mode rotation inside the rotation report.
"""

import importlib.util
import sys
from pathlib import Path

import trilevel.cli as cli  # imports every traced module
import trilevel.hamiltonian as hamiltonian
import trilevel.weights as weights
from trilevel.hamiltonian import LAMBDA, HamiltonianSpec
from trilevel.hilbert import IndexMap, SpaceSpec
from trilevel.operators import OperatorMatrix

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "trilevel" or name.startswith("trilevel.")
            for key, value in vars(module).items()}


def test_recorder_installs_and_uninstalls():
    tracing = load_tracing()
    before = package_attributes()
    methods = (OperatorMatrix.__matmul__, OperatorMatrix.__post_init__, IndexMap.split)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=0.1, g32=0.1)
        assert len(hamiltonian.spectrum(SpaceSpec(1, 3), h)) == 12
        layout = weights.diagram_layout(LAMBDA, False, SpaceSpec(1, 3))
        assert len(layout.vectors) == 6
        assert recorder.counters["operators.matrices_built"] > 0
        assert {span[3] for span in recorder.spans} >= {"weights.diagram_layout",
                                                       "hamiltonian.build_hamiltonian"}
    finally:
        recorder.uninstall()
    assert package_attributes() == before
    assert (OperatorMatrix.__matmul__, OperatorMatrix.__post_init__, IndexMap.split) == methods


def test_traced_verify_records_one_mode_rotation_inside_the_report(tmp_path):
    recorder = load_tracing().Recorder()
    recorder.install()
    try:
        status = cli.main(["verify", "--config", str(ROOT / "configs" / "vee.conf"),
                           "--out", str(tmp_path)])
    finally:
        recorder.uninstall()
    assert status == 0
    names = {span[0]: span[3] for span in recorder.spans}
    rotations = [span for span in recorder.spans
                 if span[3] == "hamiltonian.mode_rotation_unitary"]
    assert len(rotations) == 1
    assert names[rotations[0][1]] == "hamiltonian.rotation_report"
