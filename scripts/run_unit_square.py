#!/usr/bin/env python3
"""Run the unit-square scenario and print a short summary.

Writes norms.csv and VTK snapshots to the output directory; the clamped left
edge plus the downward body force drive the stress into the yield surface
near the wall.
"""

import argparse

from plastiproj.harness_cli import cmd_run, parse_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/unit_square.json")
    ap.add_argument("--out", default="out/unit_square")
    args = ap.parse_args()

    cfg = parse_config(args.config)
    traj = cmd_run(cfg, args.out)
    space = traj.space
    last = traj.states[-1]
    print(f"steps: {cfg.spec.N}, elements: {traj.mesh.n_elements}")
    print(f"final ||v||_H = {space.l2_norm(last.v):.6g}")
    print(f"final ||sigma||_H = {space.stress_l2(last.sigma):.6g}")
    print(f"outputs in {args.out}/")


if __name__ == "__main__":
    main()
