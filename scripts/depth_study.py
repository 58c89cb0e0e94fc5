#!/usr/bin/env python3
"""Rank of the truncated monomial family as the truncation depth grows.

For a fixed weight bound the family of ordered monomials is a finite
list of symbolic elements; realizing one at depth r keeps only degrees
up to r.  The family only becomes linearly independent once the depth
is large enough to separate the torus-only monomials, so the rank
climbs with the depth and then saturates at the family size.  This
script prints that profile, which is how the depth-6 deficit of the
bound-3 family at rank 2 was first isolated.

Rank is measured by evaluating v at a few rational points and taking
the best integer rank over the exact field; that certifies a lower
bound, and saturation at the family size certifies independence.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qschur.linalg import evaluation_rank, flatten_family
from qschur.presentation import pbw_family, pbw_monomial


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2, help="matrix rank")
    parser.add_argument("--bound", type=int, default=3,
                        help="weight bound for the monomial family")
    parser.add_argument("--depth-min", type=int, default=2)
    parser.add_argument("--depth-max", type=int, default=9)
    args = parser.parse_args()

    family = pbw_family(args.n, args.bound)
    size = len(family)
    print(f"n={args.n} bound={args.bound}: {size} monomials")
    print(f"{'depth':>5}  {'rank':>5}  {'deficit':>7}")
    for r in range(args.depth_min, args.depth_max + 1):
        rows, _ = flatten_family([pbw_monomial(idx, r) for idx in family])
        rank = evaluation_rank(rows)
        gap = size - rank
        marker = "  <- independent" if gap == 0 else ""
        print(f"{r:>5}  {rank:>5}  {gap:>7}{marker}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
