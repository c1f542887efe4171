#!/usr/bin/env python3
"""Flag h-vectors, descent-class dominance, and what they say about a
small complex.

Run:  python3 demos/tour_flags.py
"""

from __future__ import annotations

from earlab.complexes import build_complex, f_h_vectors
from earlab.flags import (
    corollary_gap_coefficients,
    descent_classes,
    dominance_table,
    dominates,
    face_poset_flags,
    w_set,
    weak_leq_by_switches,
)


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    banner("Descent classes of S_4")
    classes = descent_classes(4)
    for S in sorted(classes, key=lambda s: (len(s), sorted(s))):
        print(f"  S={set(S) if S else '{}'}: {len(classes[S])} words")

    banner("Dominance is a matching in the weak order")
    S, T = frozenset({1, 3}), frozenset({1})
    dom, inj = dominates(S, T, 4)
    print(f"does D_{set(S)} dominate D_{set(T)}? {dom}")
    for tau, sigma in sorted(inj.items()):
        ladder = weak_leq_by_switches(tau, sigma)
        print(f"  {tau} -> {sigma}  (reachable by switches: {ladder})")
    rev, _ = dominates(T, S, 4)
    print(f"reverse direction: {rev} (the classes have different sizes)")

    banner("The w-statistic separates selections")
    for sel in [{1}, {1, 2}, {2}]:
        print(f"  w({set(sel)}) on [4] = {set(w_set(sel, 4)) or '{}'}")

    banner("Flag inequalities on a small ball")
    c = build_complex([["a", "b", "c"], ["a", "b", "d"]])
    fK, hK = f_h_vectors(c)
    d = c.dim
    # the face poset below the facets, bounded: its flag h from f(c) alone
    _, fh = face_poset_flags(fK, d + 1)
    print(f"rank subsets live in [1, {d}]")
    pairs = sorted((sorted(S), sorted(T)) for S, T in dominance_table(d + 1) if S != T)
    violations = 0
    for S, T in pairs:
        ok = fh[T] <= fh[S]
        violations += not ok
        print(f"  h_{T or '{}'} = {fh[T]} <= h_{S} = {fh[S]}  ok={ok}")
    print(f"violations: {violations}")

    banner("Flag gaps expand in the h-vector of the underlying complex")
    S, T = frozenset({1}), frozenset()
    a = corollary_gap_coefficients(S, T, d)
    lhs = fh[S] - fh[T]
    rhs = sum(ai * hK[i] for i, ai in enumerate(a))
    print(f"coefficients a_i for the pair ({set(S)}, {{}}): {a}")
    print(f"h_S - h_T = {lhs}, expansion gives {rhs}")

if __name__ == "__main__":
    main()
