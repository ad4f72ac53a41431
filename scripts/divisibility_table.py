#!/usr/bin/env python3
"""Print the mod-3 divisibility table for the rational counts.

The table lists N_d mod 3 next to d mod 3 and flags any row where the
two disagree about divisibility.  A second pass confirms that the
elliptic counts divide exactly up to a larger bound, which is the
integrality statement the divisibility pattern feeds into.
"""

import argparse

from curvecount.counts import (
    JClass,
    RecursionTable,
    divisibility_report,
    elliptic_count,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max", type=int, default=12,
        help="largest degree in the mod-3 table (default 12)",
    )
    parser.add_argument(
        "--integrality-max", type=int, default=30,
        help="largest degree for the exact-division pass (default 30)",
    )
    args = parser.parse_args()
    if args.integrality_max < 3:
        parser.error(f"exact-division pass needs --integrality-max >= 3, got {args.integrality_max}")

    try:
        rows = divisibility_report(args.max)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{'d':>4} {'N_d mod 3':>10} {'d mod 3':>8} {'C(d-1,2) mod 3':>16}  law")
    for row in rows:
        mark = "ANOMALY" if row.anomaly else "ok"
        print(
            f"{row.d:>4} {row.count_mod3:>10} {row.d_mod3:>8} "
            f"{row.binom_mod3:>16}  {mark}"
        )
    anomalies = sum(1 for row in rows if row.anomaly)
    print(f"rows: {len(rows)}, anomalies: {anomalies}")

    table = RecursionTable()
    failed = []
    for d in range(3, args.integrality_max + 1):
        try:
            for j in JClass:
                elliptic_count(d, j, table)
        except Exception as exc:
            failed.append((d, exc))
    if failed:
        for d, exc in failed:
            print(f"integrality FAILED at d={d}: {exc}")
    else:
        print(
            f"exact divisions succeed for every j-class, "
            f"3 <= d <= {args.integrality_max}"
        )
    return 1 if (anomalies or failed) else 0


if __name__ == "__main__":
    raise SystemExit(main())
