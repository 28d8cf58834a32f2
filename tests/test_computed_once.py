"""Each fact about a block-stored operator is computed once, and lives no longer
than what it describes.

The component search runs once per written operator, in ``element_sum``; no
kernel searches again, and the Hermiticity check runs once per operator.  Nothing of this
may outlive a CLI command: the benchmark calls the CLI many times in one
process, which a one-command process never does.
"""

import ast
import gc
from collections import Counter
from pathlib import Path

import pytest

import trilevel.cli as cli
import trilevel.operators as operators
from trilevel.dynamics import InitialState, TimeGrid, evolve, prepare_initial
from trilevel.hamiltonian import HamiltonianSpec, build_hamiltonian, excitation_count
from trilevel.hilbert import SpaceSpec
from trilevel.operators import BlockPartition, OperatorMatrix, hermitian_blocks

ROOT = Path(__file__).resolve().parents[1]
VEE_H = HamiltonianSpec("vee", (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.1)
LAMBDA_H = HamiltonianSpec("lambda", (0.0, 0.0, 3.0), 1.0, g31=0.1, g32=0.1)


def count_searches(monkeypatch):
    calls = []
    real = operators._component_labels

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(operators, "_component_labels", counting)
    return calls


# --- each fact is computed once ----------------------------------------------

def test_hamiltonian_and_trajectory_compute_each_fact_once(monkeypatch):
    searches = count_searches(monkeypatch)
    checks = Counter()
    body = OperatorMatrix._hermitian_defect.func

    def counting_check(op):
        checks[id(op)] += 1
        return body(op)

    monkeypatch.setattr(OperatorMatrix._hermitian_defect, "func", counting_check)
    spec = SpaceSpec(3, 5)
    ham = build_hamiltonian(spec, VEE_H)
    list(hermitian_blocks(ham))
    psi0 = prepare_initial(spec, InitialState((0, 0, 3), ("fock", 0)), VEE_H)
    evolve(ham, psi0, TimeGrid(10.0, 11), excitation_count(spec, VEE_H.scheme))
    assert searches == [spec.product_dim]  # H's, as written; evolve reads the count's labels
    assert checks == {id(ham): 1}  # one run serves build_hamiltonian and the trajectory


# --- caches die with their operators ---------------------------------------

def collective_conf(scheme: str) -> str:
    """The committed config of ``scheme`` at the benchmark's collective size."""
    text = (ROOT / "configs" / f"{scheme}.conf").read_text()
    atom = {"lambda": "8,0,0", "vee": "0,0,8"}[scheme]
    return (text.replace("atoms = 1", "atoms = 8").replace("n_max = 8", "n_max = 16")
            .replace(f"initial.atom = {atom.replace('8', '1')}", f"initial.atom = {atom}"))


def live_partitions() -> list:
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, BlockPartition)]


@pytest.mark.parametrize("command", ["verify", "evolve", "dispersive-compare", "spectrum"])
@pytest.mark.parametrize("scheme", ["lambda", "vee"])
def test_no_partition_outlives_a_command(command, scheme, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(collective_conf(scheme))
    assert "atoms = 8" in conf.read_text() and "n_max = 16" in conf.read_text()
    before = live_partitions()
    assert cli.main([command, "--config", str(conf), "--out", str(tmp_path / "o")]) == 0
    after = live_partitions()
    cached = {id(p) for p in after if p is operators._one_block(len(p.labels))}
    kept = {id(p) for p in before} | cached
    assert [len(p.labels) for p in after if id(p) not in kept] == []


# --- the benchmark's corruption anchor ---------------------------------------

def test_benchmark_corruption_anchor_occurs_once_in_the_cli():
    """perfbench/selftest.py corrupts the norm column by replacing this text in
    cli.py; if it disappears or repeats, the self-test stops or corrupts more."""
    tree = ast.parse((ROOT / "perfbench" / "selftest.py").read_text())
    anchor, corrupted = next(
        ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "CORRUPTION" for t in node.targets))
    assert anchor != corrupted
    assert (ROOT / "src" / "trilevel" / "cli.py").read_text().count(anchor) == 1
