#!/usr/bin/env python3
"""Scan the Heisenberg conjugate locus and cross-check the closed-form
classification against SVD of the numeric exponential differential.

Writes the locus grid as CSV and prints the roots of the conjugate condition
found below the alpha ceiling, together with the number of classification
disagreements (expected: zero).  The numeric rank of each d exp follows the
toolkit's one rank rule; covectors whose rank falls in its ambiguity band are
listed and count as a failure (exit 1) like a disagreement.
"""

import argparse
import sys
import time

import numpy as np

from subriem.flow import d_exp_batch
from subriem.heisenberg import conjugate_locus_rows, heis_conjugate_roots
from subriem.linalg import RANK_REL_TOL, rank_decisions
from subriem.structure import make_structure


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=40, help="grid points per axis")
    ap.add_argument("--u-range", default="0.2:2")
    ap.add_argument("--alpha-range", default="0.25:10")
    ap.add_argument("--out", default="locus.csv")
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()

    u_lo, u_hi = (float(v) for v in args.u_range.split(":"))
    a_lo, a_hi = (float(v) for v in args.alpha_range.split(":"))
    u_vals = np.linspace(u_lo, u_hi, args.grid)
    a_vals = np.linspace(a_lo, a_hi, args.grid)

    rows = conjugate_locus_rows(u_vals, a_vals)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("u0,v0,alpha0,conjugate,class,k1,k2,k3\n")
        for u0, v0, al, flag, tag, k1, k2, k3 in rows:
            fh.write(f"{u0:.12g},{v0:.12g},{al:.12g},{flag},{tag},"
                     f"{k1:.12g},{k2:.12g},{k3:.12g}\n")
    print(f"wrote {len(rows)} rows to {args.out}")

    roots = heis_conjugate_roots(a_hi)
    print("conjugate-condition roots below", a_hi, ":")
    for root in roots:
        print(f"  alpha = {root.alpha:.12f}  ({root.branch})")

    struct = make_structure("heisenberg")
    covs = np.array([[u0, 0.0, al] for u0 in u_vals for al in a_vals])
    t0 = time.perf_counter()
    mats = d_exp_batch(struct, np.zeros(3), covs, tol=args.tol)
    svds = np.linalg.svd(mats, compute_uv=False)
    ranks, ambiguous = rank_decisions(svds, RANK_REL_TOL * svds[:, 0])
    numeric_conjugate = ranks < struct.n
    closed = np.array([flag for _, _, _, flag, *_ in rows], dtype=bool)
    disagreements = int(np.sum((numeric_conjugate != closed) & ~ambiguous))
    print(f"SVD sweep over {len(covs)} covectors in {time.perf_counter()-t0:.1f} s; "
          f"{disagreements} disagreement(s) with the closed-form classification, "
          f"{int(ambiguous.sum())} ambiguous")
    for cov, sv in zip(covs[ambiguous], svds[ambiguous]):
        print(f"  ambiguous rank at covector {cov.tolist()}: singular values {sv.tolist()}")
    return 0 if disagreements == 0 and not ambiguous.any() else 1


if __name__ == "__main__":
    sys.exit(main())
