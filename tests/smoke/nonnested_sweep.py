"""Check that every row of a sweep's summary.csv equals its cell run alone.

Usage: python nonnested_sweep.py SUMMARY_CSV PROBLEM [FLAG ...]

PROBLEM and the FLAGs are those the sweep ran with (``burgers --nx 4 --nt
2``, say). For each row, ``python -W error -m iclsq solve`` runs the row's
theta and tolerances alone, and its printed status, iterations, pde_solves
and jvp must equal the row's. A grid whose tolerance pairs are not nested
makes the sweep start a theta's stream of iterates over, so this checks
those restarts. Exits nonzero at the first row that differs.
"""

import csv
import re
import subprocess
import sys


def main(summary, *grid):
    with open(summary, newline="") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    for row in rows:
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "iclsq", "solve", *grid,
             "--theta", row["theta"], "--eps-r", row["eps_r"], "--eps-g", row["eps_g"]],
            capture_output=True, text=True, check=True).stdout
        found = re.search(r": (\w+) after (\d+) iterations .* pde_solves=(\d+), .* jvp=(\d+),", out)
        cell = (row["status"], row["iterations"], row["pde_solves"], row["jvp"])
        if found is None or found.groups() != cell:
            sys.exit(f"sweep row {cell} but solve printed {out}")
    print(len(rows), "sweep cells match their solves:", *grid)


if __name__ == "__main__":
    main(*sys.argv[1:])
