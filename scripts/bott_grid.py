#!/usr/bin/env python3
"""Print the table of h^q(Omega^p(t)) on P^n next to the brute-force
values from the exterior-power Euler resolution, flagging mismatches.
The line before the verdict counts the hits and misses of the
section-rank cache, which the p-forms of one twist share.

Usage: python scripts/bott_grid.py [n] [t_lo] [t_hi]
"""

import sys

from projmonad.complexes import omega_resolution
from projmonad.hilbert import bott_h
from projmonad.monad import _sections_rank, sheaf_cohomology
from projmonad.scalar import QQ


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    t_lo = int(sys.argv[2]) if len(sys.argv) > 2 else -4
    t_hi = int(sys.argv[3]) if len(sys.argv) > 3 else 4
    mismatches = 0
    for p in range(n + 1):
        print(f"p = {p}")
        for t in range(t_lo, t_hi + 1):
            closed = [bott_h(n, p, q, t) for q in range(n + 1)]
            brute = sheaf_cohomology(omega_resolution(QQ, n, p, t), 0)
            flag = "" if closed == brute else "   <-- MISMATCH"
            if closed != brute:
                mismatches += 1
            print(f"  t = {t:3d}: closed {closed}  resolution {brute}{flag}")
    info = _sections_rank.cache_info()
    print(f"section-rank cache: {info.hits} hits, {info.misses} misses")
    print("all entries agree" if not mismatches else f"{mismatches} mismatches")
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
