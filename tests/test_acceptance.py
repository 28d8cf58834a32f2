"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts the criterion, so the suite doubles as a human-readable report.
"""

import math

import numpy as np
import pytest

import dense_reference as dr
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import PRODUCT, TOL_ALGEBRA, element_sum, verify_algebra
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    dark_state_residual,
    excitation_count,
    reduced_hamiltonian,
    rotation_report,
)
from trilevel.dispersive import analytic_effective, residual_and_order
from trilevel.dynamics import (
    InitialState,
    TimeGrid,
    evolve,
    prepare_initial,
    propagate,
    semiclassical_sweep,
    transfer_experiment,
)
from trilevel.weights import diagram_layout, find_reflection
from trilevel.cli import main as cli_main

G = 0.1
EPS = 0.05
DELTA = G / EPS  # 2.0
OMEGA = 1.0


def criterion(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num:2d}: {description}{suffix}")
    assert passed, f"criterion {num}: {description}{suffix}"


def lambda_spec(eps=EPS):
    return HamiltonianSpec(LAMBDA, (0.0, 0.0, OMEGA + G / eps), OMEGA, g31=G, g32=G)


def vee_spec(eps=EPS):
    return HamiltonianSpec(VEE, (0.0, OMEGA + G / eps, OMEGA + G / eps), OMEGA,
                           g31=G, g21=G)


@pytest.fixture(scope="module")
def lambda_vacuum_runs():
    spec = SpaceSpec(1, 4)
    runs = {}
    for eps in (EPS, EPS / 2):
        h = lambda_spec(eps)
        grid = TimeGrid(5.0 / (eps * G), 2001)
        runs[eps] = transfer_experiment(spec, h, InitialState((1, 0, 0), ("fock", 0)), grid)
    return runs


@pytest.fixture(scope="module")
def lambda_kernel_runs():
    # level-3 population equals the photon number: in the transfer kernel,
    # but with genuine detuned dynamics behind the eps^2 bound
    spec = SpaceSpec(1, 4)
    runs = {}
    for eps in (EPS, EPS / 2):
        h = lambda_spec(eps)
        grid = TimeGrid(5.0 / (eps * G), 4001)
        runs[eps] = transfer_experiment(spec, h, InitialState((0, 0, 1), ("fock", 1)), grid)
    return runs


@pytest.fixture(scope="module")
def vee_run():
    spec = SpaceSpec(1, 4)
    h = vee_spec()
    grid = TimeGrid(5.0 / (EPS * G), 2001)
    return transfer_experiment(spec, h, InitialState((0, 0, 1), ("fock", 0)), grid)


def test_criterion_01_first_order_algebra():
    worst = 0.0
    for atoms in (1, 2, 3):
        reports = verify_algebra(SpaceSpec(atoms, 2), "u3")
        assert len(reports) == 81
        worst = max(worst, max(r for _, r in reports))
    criterion(1, "all 81 first-order commutators hold for A in {1,2,3}",
              worst <= 1e-12, f"max residual {worst:.2e}")


def test_criterion_02_second_order_guarded_and_boundary():
    worst = 0.0
    boundary_broken = True
    for atoms in (1, 2):
        spec = SpaceSpec(atoms, 6)
        guarded = verify_algebra(spec, "second_order", guard=2)
        worst = max(worst, max(r for _, r in guarded))
        unguarded = verify_algebra(spec, "second_order", guard=0)
        boundary_broken &= any(not r <= TOL_ALGEBRA for _, r in unguarded)
    criterion(2, "second-order identities pass at guard=2 and fail at guard=0",
              worst <= 1e-12 and boundary_broken,
              f"guarded max residual {worst:.2e}")


def test_criterion_03_dark_state_decoupling():
    worst = 0.0
    for atoms in (1, 2):
        spec = SpaceSpec(atoms, 4)
        for h in (lambda_spec(), vee_spec()):
            worst = max(worst, dark_state_residual(spec, h))
    criterion(3, "dark states are annihilated by the interaction",
              worst <= 1e-12, f"max ||H_int psi|| {worst:.2e}")


def test_criterion_04_rotated_hamiltonian():
    worst = 0.0
    couplings = set()
    for atoms in (1, 2):
        spec = SpaceSpec(atoms, 3)
        for scheme in (LAMBDA, VEE):
            h = (HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=0.3, g32=0.4)
                 if scheme == LAMBDA
                 else HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.3, g21=0.4))
            worst = max(worst, rotation_report(spec, h))
            reduced = reduced_hamiltonian(h)
            couplings.add(tuple(reduced.coupling(i, j) for i, j in h.coupled_pairs()))
    criterion(4, "rotation decouples the dark mode and exposes the bright coupling",
              worst <= 1e-10 and couplings == {(math.hypot(0.3, 0.4), 0.0)},
              f"residual against the reduced H {worst:.2e}, couplings {sorted(couplings)}")


def test_criterion_05_dispersive_convergence():
    spec = SpaceSpec(1, 8)
    ratios = {}
    for name, h in (("lambda", lambda_spec()), ("vee", vee_spec())):
        residual, order = residual_and_order(spec, h, guard=3)
        assert residual > 0.0
        ratios[name] = 2.0 ** order
    criterion(5, "halving eps from 0.05 shrinks the transfer-block residual >= 3.5x",
              all(r >= 3.5 for r in ratios.values()),
              f"shrink factors lambda {ratios['lambda']:.2f}, vee {ratios['vee']:.2f}")


def test_criterion_06_lambda_no_transfer(lambda_vacuum_runs, lambda_kernel_runs):
    bound = 10.0 * EPS**2
    vac_full = lambda_vacuum_runs[EPS].max_partner_population
    vac_half = lambda_vacuum_runs[EPS / 2].max_partner_population
    # the vacuum run is frozen exactly (the initial state is an eigenstate),
    # so the halving clause is checked against a numerical-zero floor and the
    # eps^2 scaling is demonstrated on the in-kernel configuration with real
    # detuned dynamics
    vacuum_ok = vac_full <= bound and vac_half <= max(vac_full / 3.0, 1e-12)
    ker_full = lambda_kernel_runs[EPS].max_partner_population
    ker_half = lambda_kernel_runs[EPS / 2].max_partner_population
    kernel_ok = ker_full <= bound and ker_full >= 3.0 * ker_half
    criterion(6, "no lambda transfer from the vacuum; bound scales as eps^2",
              vacuum_ok and kernel_ok,
              f"vacuum max pop2 {vac_full:.2e}; kernel max pop2 {ker_full:.4f} "
              f"<= {bound}, halving ratio {ker_full / ker_half:.2f}")


def test_criterion_07_vee_vacuum_triggered_transfer(vee_run):
    rel_err = abs(vee_run.measured_half_period - vee_run.predicted_half_period) \
        / vee_run.predicted_half_period
    criterion(7, "vee transfers through the vacuum with the predicted half-period",
              vee_run.max_partner_population >= 0.9 and rel_err <= 0.15,
              f"max pop2 {vee_run.max_partner_population:.4f}, period error "
              f"{100 * rel_err:.1f}%")


def test_criterion_08_kernel_structure():
    spec = SpaceSpec(2, 4)
    imap = index_map(spec)
    h_l, h_v = lambda_spec(), vee_spec()
    lam, vee = (analytic_effective(spec, h).mat
                for h in (h_l, h_v))
    # the transfer terms: the off-diagonal part of each effective H
    lam, vee = (m - np.diag(np.diag(m)) for m in (lam, vee))
    worst_kernel = 0.0
    min_action = math.inf
    for flat in range(spec.product_dim):
        (n1, n2, n3), n = imap.split(flat)
        if n3 == n:
            worst_kernel = max(worst_kernel,
                               float(np.linalg.norm(lam[:, flat])))
        if n2 + n3 >= 1:
            min_action = min(min_action,
                             float(np.linalg.norm(vee[:, flat])))
    criterion(8, "lambda transfer has the exact kernel, vee transfer has none",
              worst_kernel <= 1e-12 and min_action > 0.0,
              f"kernel residual {worst_kernel:.2e}, smallest vee action "
              f"{min_action:.2e}")


def test_criterion_09_classical_reflection_and_commutators():
    spec = SpaceSpec(2, 3)
    lam = diagram_layout(LAMBDA, classical=True, spec=spec)
    vee = diagram_layout(VEE, classical=True, spec=spec)
    firsts = lambda layout: [v.coords for v in layout.vectors if v.order == "first"]
    mat, residual = find_reflection(firsts(lam), firsts(vee))
    alpha = 0.8 + 0.6j
    aspec = SpaceSpec(2, 1)
    s = lambda i, j: dr.atomic(aspec, i, j)
    lam_comm = np.max(np.abs(dr.commutator(alpha * s(3, 1), np.conj(alpha) * s(2, 3))
                             + abs(alpha) ** 2 * s(2, 1)))
    vee_comm = np.max(np.abs(dr.commutator(alpha * s(3, 1), np.conj(alpha) * s(1, 2))
                             - abs(alpha) ** 2 * s(3, 2)))
    criterion(9, "classical weight sets reflect onto each other; second order "
                 "collapses to single transitions",
              residual <= 1e-12 and np.linalg.det(mat) < 0
              and lam_comm <= 1e-12 and vee_comm <= 1e-12,
              f"reflection residual {residual:.2e}, commutator residuals "
              f"{lam_comm:.2e}/{vee_comm:.2e}")


def test_criterion_10_semiclassical_convergence():
    n_bars = [4.0, 8.0, 16.0, 32.0]
    result = semiclassical_sweep(1, n_bars)
    criterion(10, "relative enhancement-factor difference fits slope -1 +/- 0.2",
              result.slope is not None and abs(result.slope + 1.0) <= 0.2,
              f"slope {result.slope:.3f}")


def test_criterion_11_conservation_suite(lambda_kernel_runs, vee_run):
    records = [lambda_kernel_runs[EPS].record, vee_run.record]
    spec = SpaceSpec(1, 24)
    h = lambda_spec()
    psi0 = prepare_initial(spec, InitialState("bright", ("coherent", 1.5)), h)
    ham = build_hamiltonian(spec, h)
    grid = TimeGrid(100.0, 401)
    records.append(evolve(ham, psi0, grid, excitation_count(spec, LAMBDA)))
    worst = 0.0
    for rec in records:
        worst = max(worst, float(np.max(np.abs(rec.norm - 1.0))))
        worst = max(worst, float(np.max(np.abs(rec.excitation - rec.excitation[0]))))
        worst = max(worst, float(np.max(np.abs(rec.energy - rec.energy[0]))))
        total = rec.pop1 + rec.pop2 + rec.pop3
        worst = max(worst, float(np.max(np.abs(total - total[0]))))
    ends = np.array([0.0, grid.t_max])
    psi_t = propagate(ham, psi0, ends)[:, 1]
    rows, cols, values = ham.elements()
    psi_back = propagate(element_sum(PRODUCT, spec, [(rows, cols, -values)]), psi_t, ends)[:, 1]
    fidelity = abs(np.vdot(psi0, psi_back)) ** 2
    criterion(11, "norm, energy, and excitation conserved; time reversal returns",
              worst <= 1e-10 and fidelity >= 1.0 - 1e-9,
              f"max drift {worst:.2e}, reversal infidelity "
              f"{max(0.0, 1.0 - fidelity):.1e}")


BASE_CONF = """\
scheme = lambda
atoms = 1
n_max = 8
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
sweep.n_bar = 1,2
"""


def test_criterion_12_deterministic_outputs(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(BASE_CONF)
    commands = ["verify", "evolve", "dispersive-compare", "weights", "sweep",
                "spectrum"]
    mismatched = []
    for command in commands:
        outs = []
        for label in ("a", "b"):
            out = tmp_path / f"{command}-{label}"
            status = cli_main([command, "--config", str(conf), "--out", str(out)])
            assert status == 0, f"{command} exited {status}"
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        if files_a != files_b:
            mismatched.append(command)
            continue
        for name in files_a:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                mismatched.append(f"{command}/{name}")
    criterion(12, "repeated identical runs produce byte-identical outputs",
              not mismatched, "all CSV/JSON/SVG matched" if not mismatched
              else f"mismatched: {mismatched}")
