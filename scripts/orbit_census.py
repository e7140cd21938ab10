#!/usr/bin/env python3
"""Census of correspondence orbit closures and finite point orbits.

Part one iterates sample correspondences c = b o a^{-1} until the union
of graphs stabilizes and reports the generic orbit size s_c.  Part two
explores finite orbits of exact points under small generator sets,
reporting closure sizes and the induced permutation structure.
"""

import argparse

from commdyn import (
    Budget,
    Correspondence,
    action_table,
    limits,
    orbit,
    orbit_closure,
    parse_map,
    parse_point,
)
from commdyn.errors import BudgetError, NotStabilizedError

CORRESPONDENCE_PANEL = (
    ("identity pair", "z", "z"),
    ("sign flip", "z", "zeta2*z"),
    ("cube-root rotation", "z", "zeta3*z"),
    ("doubling graph", "z", "z^2"),
)

ORBIT_PANEL = (
    ("rotation of order 3", ("zeta3*z",), "1"),
    ("rotation and squaring", ("zeta3*z", "z^2"), "zeta7"),
    ("squaring alone", ("z^2",), "zeta7"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=16,
                        help="closure iteration budget")
    parser.add_argument("--degree-cap", type=int, default=200,
                        help="total union degree before giving up")
    parser.add_argument("--budget", type=int, default=2000,
                        help="orbit point budget")
    args = parser.parse_args()
    with limits(Budget(degree_cap=args.degree_cap, orbit_budget=args.budget,
                       kmax=args.kmax)):
        census(args.kmax)


def census(kmax: int) -> None:
    print("== correspondence closures ==")
    for label, a_text, b_text in CORRESPONDENCE_PANEL:
        c = Correspondence(parse_map(a_text), parse_map(b_text))
        try:
            union, size = orbit_closure(c)
        except NotStabilizedError:
            print(f"  {label}: did not stabilize within kmax = {kmax}")
            continue
        except BudgetError as exc:
            print(f"  {label}: {exc}")
            continue
        print(f"  {label}: s_c = {size}, union bidegree {union.bidegree}")
    print()

    print("== finite orbit exploration ==")
    for label, gen_texts, start_text in ORBIT_PANEL:
        gens = [parse_map(t) for t in gen_texts]
        start = parse_point(start_text)
        run = orbit(gens, start)
        line = f"  {label}: start {start_text}, {len(run)} points, {run.status}"
        if run.closed:
            rows = action_table(gens, run.points)
            flags = ", ".join(
                "bijective" if row.bijection else "collapsing" for row in rows)
            line += f" [{flags}]"
        print(line)


if __name__ == "__main__":
    main()
