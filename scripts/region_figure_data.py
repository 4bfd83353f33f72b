#!/usr/bin/env python3
"""Emit the existence-region plot data as CSV files.

Drives the fkpp CLI so the files carry the documented column contracts:
the symmetric boundary curves have columns loop_half_1..N, critical_stem
and the two-loop surface grid has loop_half_1, loop_half_2, critical_stem.
No plotting here; point any plotting tool at the CSVs.

Usage: python3 scripts/region_figure_data.py [--outdir figure_data]
       [--samples 200] [--grid-samples 60]
"""

import argparse
import pathlib

from fkpp_graphs.cli import main


def fkpp(argv):
    rc = main(argv)
    if rc:
        raise SystemExit(rc)


def run():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="figure_data", type=pathlib.Path)
    ap.add_argument("--samples", type=int, default=200,
                    help="points along each boundary curve")
    ap.add_argument("--grid-samples", type=int, default=60,
                    help="points per axis of the two-loop surface")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for n in range(1, 6):
        out = args.outdir / f"boundary_curve_{n}_loops.csv"
        fkpp(["region", "--curve", str(n), "--samples", str(args.samples),
              "--out", str(out)])
        print(f"wrote {out}")

    out = args.outdir / "boundary_surface_two_loops.csv"
    fkpp(["region", "--grid", "--samples", str(args.grid_samples),
          "--out", str(out)])
    print(f"wrote {out}")


if __name__ == "__main__":
    run()
