#!/usr/bin/env python3
"""Run the contrasting transfer experiments and write their trajectories.

lambda with the field in the vacuum shows no population transfer between
the lower levels; vee transfers through the vacuum-triggered channel with
the half-period predicted by the leading-order dispersive Hamiltonian.
"""

import argparse
from pathlib import Path

from trilevel.hilbert import SpaceSpec
from trilevel.hamiltonian import LAMBDA, VEE, HamiltonianSpec
from trilevel.dynamics import InitialState, TimeGrid, transfer_experiment
from trilevel.cli import write_trajectory_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=float, default=0.1)
    parser.add_argument("--eps", type=float, default=0.05)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()

    delta = args.g / args.eps
    omega = 1.0
    spec = SpaceSpec(1, 4)
    grid = TimeGrid(5.0 / (args.eps * args.g), 2001)
    args.out.mkdir(parents=True, exist_ok=True)

    h_l = HamiltonianSpec(LAMBDA, (0.0, 0.0, omega + delta), omega,
                          g31=args.g, g32=args.g)
    lam = transfer_experiment(spec, h_l, InitialState((1, 0, 0), ("fock", 0)), grid)
    write_trajectory_csv(args.out / "lambda_vacuum.csv", lam.record)
    print(f"lambda vacuum: max level-2 population {lam.max_partner_population:.3e} "
          f"(bound 10 eps^2 = {10 * args.eps**2:.4f})")

    h_v = HamiltonianSpec(VEE, (0.0, omega + delta, omega + delta), omega,
                          g31=args.g, g21=args.g)
    vee = transfer_experiment(spec, h_v, InitialState((0, 0, 1), ("fock", 0)), grid)
    write_trajectory_csv(args.out / "vee_vacuum.csv", vee.record)
    print(f"vee vacuum: max level-2 population {vee.max_partner_population:.4f}, "
          f"half-period {vee.measured_half_period:.1f} "
          f"(predicted {vee.predicted_half_period:.1f})")


if __name__ == "__main__":
    main()
