#!/usr/bin/env python3
"""Scan stratum shapes at a given degree and group them by fate.

For each isomorphism class of stable shapes the scan reports the raw
stratum dimension and the post-deformation bound, then groups classes
into survivors (bound still at least 6d-2) and avoided strata.  The
survivor list is the combinatorial shadow of the geometric statement
that only the trivial stratum and the flagged positive partitions can
meet the generic point conditions.
"""

import argparse
import sys
from collections import Counter

from curvecount.strata import ResourceGuardError, classify_survivors, survivor_threshold


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3, help="curve degree (default 3)")
    parser.add_argument(
        "--max-extra", type=int, default=3,
        help="largest number of extra vertices to scan (default 3)",
    )
    parser.add_argument(
        "--include-circuits", action="store_true",
        help="also scan one-circuit shapes",
    )
    args = parser.parse_args()

    try:
        strata = classify_survivors(
            args.d, args.max_extra, include_circuits=args.include_circuits
        )
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        parser.error(str(exc))
    survivors = [s for s in strata if s.survivor]
    avoided = [s for s in strata if not s.survivor]

    print(f"degree {args.d}, up to {args.max_extra} extra vertices")
    print(f"classes scanned: {len(strata)}")
    print(f"survival threshold: bound >= {survivor_threshold(args.d)}")
    print()

    groups = Counter(
        (s.kind, s.e, s.k, s.dim, s.bound) for s in avoided
    )
    print(f"avoided classes: {len(avoided)}")
    for (kind, e, k, dim, bound), count in sorted(groups.items()):
        dim_text = "empty" if dim is None else str(dim)
        print(
            f"  {kind:>7} e={e} k={k} dim={dim_text:>5} "
            f"bound={bound if bound is not None else '-':>4}  x{count}"
        )
    print()

    print(f"survivors: {len(survivors)}")
    for s in survivors:
        note = f"  [{s.note}]" if s.note else ""
        print(
            f"  {s.kind:>7} dim={s.dim} bound={s.bound} "
            f"mult={s.multiplicity} {s.key}{note}"
        )
    flagged = sum(1 for s in survivors if s.note)
    print()
    print(f"flagged as geometrically avoided: {flagged}")
    print(f"unconditional survivors: {len(survivors) - flagged}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
