#!/usr/bin/env python3
"""Walk the quartic commuting pair end to end.

Builds the pair g = v o u and h = v o rot o u from two quadratics and a
cube-root-of-unity rotation, then prints everything the package can say
about it: commutation, the shared third iterate, the decomposition
sequence, the first-step correspondence bound, common fixed points, and
the interleaved iterate identity.
"""

import argparse
import time

from commdyn import (
    Mobius,
    common_fixed_points,
    common_iterate_equal_degree,
    parse_map,
    ritt_sequence,
    verify_identity_eq8,
    verify_lemma4,
    verify_lemma5,
    verify_multiplier_identity,
    zeta,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-steps", type=int, default=4,
                        help="extend the decomposition past termination")
    args = parser.parse_args()

    u = parse_map("(z^2 - 4)/(z - 1)")
    v = parse_map("(z^2 + 2)/(z + 1)")
    rot = Mobius.scaling(zeta(3)).to_map()
    f = u.compose(v)
    g = v.compose(u)
    h = v.compose(rot).compose(u)

    print("f = u o v =", f)
    print("g = v o u =", g)
    print("h = v o rot o u =", h)
    print()

    print("g == h:", g == h)
    print("g o h == h o g:", g.commutes(h))
    t0 = time.monotonic()
    p = common_iterate_equal_degree(g, h)
    print(f"smallest common iterate exponent: p = {p}"
          f"  ({time.monotonic() - t0:.2f}s)")
    print("g^p == h^p:", g.iterate(p) == h.iterate(p))
    print()

    print(f"decomposition sequence (extended to {args.min_steps} steps):")
    seq = ritt_sequence(g, h, min_steps=args.min_steps)
    for i, step in enumerate(seq.steps):
        print(f"  step {i}: r = {step.r}  deg u = {step.u.degree}"
              f"  pair degree = {step.f_step.degree}")
    print("  terminated:", seq.terminated)
    print()

    print("first-step correspondence bound:")
    report = verify_lemma4(g, h)
    print(f"  p = {report.p}, d = {report.d}")
    print(f"  generic orbit size s_c = {report.s_c}"
          f"  vs bound p*d^p = {report.bound}: "
          + ("within bound" if report.bound_ok else "VIOLATED"))
    print()

    print("tail growth along the extended sequence:")
    for tail in verify_lemma5(seq):
        print(f"  steps {tail.index}->{tail.index + 1}: r = {tail.r},"
              f" s = {tail.s_prev} -> {tail.s_next}:"
              + (" ok" if tail.ok else " VIOLATED"))
    print()

    shared, at_infinity = common_fixed_points(g, h)
    count = shared.degree + int(at_infinity)
    print(f"common fixed points: {count}"
          f" (affine locus {shared}, infinity shared: {at_infinity})")
    print()

    print("multiplier identity for (f, rot) at n = p = 1:",
          verify_multiplier_identity(f, rot, 1, 1))
    print("interleaved iterate identity for (g, h) at N = 1:",
          verify_identity_eq8(g, h, 1))


if __name__ == "__main__":
    main()
