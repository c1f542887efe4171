"""Edge labelings of graded posets.

Covers EL verification, the S_r refinement (labels in [r], no repeats along
maximal chains), the min-join labeling derived from an M-chain, the minimal
labeling of a geometric lattice, per-interval chain extraction with Mobius
cross-checks, and lexicographic shelling of the proper part.

A label word is read along a saturated chain; descent positions are 1-based
(a descent at i means the i-th label exceeds the next one), matching the way
rank sets are written elsewhere.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .complexes import ShellingOrder, build_complex, verify_shelling
from .errors import (
    BadParams,
    LabelingInvalid,
    MobiusMismatch,
    NotComparable,
    NotGraded,
    NotMChain,
)
from .lattices import Lattice, _check_saturated, check_geometric
from .posets import (
    Poset,
    maximal_chains,
    mobius,
    saturated_chains_between,
)

__all__ = [
    "EdgeLabeling",
    "descent_set",
    "verify_el",
    "check_el",
    "verify_sr",
    "derive_sn_labeling",
    "minimal_labeling",
    "increasing_and_decreasing_chains",
    "lex_shelling",
    "h_by_descents",
]


class EdgeLabeling:
    """Integer labels on the cover relations of a poset."""

    __slots__ = ("poset", "labels")

    def __init__(self, poset: Poset, labels: Mapping[tuple[str, str], int]):
        self.poset = poset
        self.labels = dict(labels)
        for a, b in poset.cover_pairs():
            if (a, b) not in self.labels:
                raise BadParams(f"labeling misses cover {a!r} < {b!r}")

    def of(self, x: str, y: str) -> int:
        try:
            return self.labels[(x, y)]
        except KeyError:
            raise BadParams(f"({x!r}, {y!r}) is not a cover") from None

    def word(self, chain: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.of(a, b) for a, b in zip(chain, chain[1:]))

    def to_json_field(self) -> dict[str, int]:
        return {f"{a}|{b}": v for (a, b), v in sorted(self.labels.items())}


def descent_set(word: Sequence[int]) -> frozenset[int]:
    """Positions i (1-based) with word[i-1] > word[i]."""
    return frozenset(i for i in range(1, len(word)) if word[i - 1] > word[i])


def verify_el(p: Poset, lab: EdgeLabeling) -> tuple[bool, Optional[tuple]]:
    """EL check over every interval of a graded bounded poset.

    Each interval must have exactly one weakly increasing saturated chain,
    strictly lexicographically before every other chain word. Ties among
    the non-increasing words are fine; a tie with the increasing word is
    not, since then it would not strictly precede everything else.

    Returns (True, None) or (False, witness) with witness =
    (x, y, reason string).
    """
    if not p.graded:
        raise NotGraded("EL verification needs a graded poset")
    for i in range(p.n):
        x = p.elements[i]
        for j in range(p.n):
            if i == j or not p.leq_i(i, j):
                continue
            y = p.elements[j]
            chains = saturated_chains_between(p, x, y)
            words = [lab.word(c) for c in chains]
            rising = [w for w in words if all(a <= b for a, b in zip(w, w[1:]))]
            if len(rising) != 1:
                return False, (
                    x,
                    y,
                    f"{len(rising)} weakly increasing chains (need exactly 1)",
                )
            others = list(words)
            others.remove(rising[0])
            if any(w <= rising[0] for w in others):
                return False, (x, y, "increasing chain is not strictly lex-first")
    return True, None


def check_el(p: Poset, lab: EdgeLabeling) -> None:
    ok, witness = verify_el(p, lab)
    if not ok:
        x, y, why = witness
        raise LabelingInvalid(f"not an EL-labeling on [{x!r}, {y!r}]: {why}")


def verify_sr(p: Poset, lab: EdgeLabeling) -> bool:
    """S_r refinement, r the top rank: labels lie in [r] and no maximal
    chain repeats one.

    Any saturated chain of an interval extends to a maximal chain of the
    whole poset, so scanning maximal chains covers all intervals.
    """
    r = p.max_rank()
    if any(not 1 <= v <= r for v in lab.labels.values()):
        return False
    for c in maximal_chains(p):
        w = lab.word(c)
        if len(set(w)) != len(w):
            return False
    return True


def derive_sn_labeling(
    lat: Lattice, mchain: Optional[Sequence[str]] = None
) -> EdgeLabeling:
    """Labeling from an M-chain z_0 < … < z_r by the min-join rule
    λ(x, y) = min{ i : y ≤ x ∨ z_i }, then verified EL and S_r.

    The verification is also the M-chain test: a saturated chain from
    bottom to top is an M-chain iff its min-join labeling is an S_r
    EL-labeling (McNamara, JCTA 101 (2003), Thm 1), so a chain that fails
    it raises NotMChain. check_mchain tests the definition directly.
    """
    chain = list(mchain) if mchain is not None else list(lat.mchain or ())
    if not chain:
        raise BadParams("no M-chain given and none stored on the lattice")
    p = lat.poset
    _check_saturated(p, chain)
    z = [p.index(e) for e in chain]
    labels = {}
    for a, b in p.cover_pairs():
        ia, ib = p.index(a), p.index(b)
        # z_r is the top, so some i qualifies; i = 0 never does, as b > a
        labels[(a, b)] = next(
            i for i in range(1, len(z)) if p.leq_i(ib, lat.join_i(ia, z[i]))
        )
    lab = EdgeLabeling(p, labels)
    try:
        check_el(p, lab)
    except (LabelingInvalid, NotGraded) as exc:
        raise NotMChain(f"min-join labeling of the chain: {exc}") from exc
    if not verify_sr(p, lab):
        raise NotMChain("min-join labeling of the chain fails the S_r condition")
    return lab


def minimal_labeling(
    lat: Lattice, atom_order: Optional[Sequence[str]] = None
) -> EdgeLabeling:
    """λ(x, y) = min{ i : x ∨ a_i = y } over a fixed atom order of a
    geometric lattice; verified EL before return."""
    check_geometric(lat)
    atoms = list(atom_order) if atom_order is not None else sorted(lat.atoms())
    if sorted(atoms) != sorted(lat.atoms()):
        raise BadParams("atom order must list exactly the atoms")
    p = lat.poset
    a_idx = [p.index(a) for a in atoms]
    labels = {}
    for x, y in p.cover_pairs():
        ix, iy = p.index(x), p.index(y)
        val = next((i for i, ai in enumerate(a_idx, 1) if lat.join_i(ix, ai) == iy), None)
        if val is None:
            raise LabelingInvalid(
                f"no atom completes the cover {x!r} < {y!r}; lattice not geometric?"
            )
        labels[(x, y)] = val
    lab = EdgeLabeling(p, labels)
    check_el(p, lab)
    return lab


def increasing_and_decreasing_chains(
    p: Poset, lab: EdgeLabeling, x: str, y: str
) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """The unique weakly increasing chain of [x, y] and all strictly
    decreasing ones, in canonical order; the decreasing count is checked
    against |μ(x, y)|. One walk up from x collects both: it takes only the
    covers below y that keep the word weakly increasing or strictly
    decreasing, and no cover of y lies below y, so a chain ends there."""
    i, j = p.index(x), p.index(y)
    if not p.leq_i(i, j):
        raise NotComparable(f"{x!r} is not below {y!r}")
    within = p.down_mask(j)
    rising, falling = [], []
    # a chain of indices, its last label, whether its word still rises, still falls
    stack: list = [((i,), None, True, True)]
    while stack:
        chain, last, up, down = stack.pop()
        k = chain[-1]
        if k == j:
            if up:
                rising.append(chain)
            if down:
                falling.append(chain)
        for m in p.covers_up_of(k):
            if within >> m & 1:
                v = lab.of(p.elements[k], p.elements[m])
                rises = up and (last is None or last <= v)
                falls = down and (last is None or last > v)
                if rises or falls:
                    stack.append((chain + (m,), v, rises, falls))
    if len(rising) != 1:
        raise LabelingInvalid(
            f"[{x!r}, {y!r}] has {len(rising)} weakly increasing chains"
        )
    expect = abs(mobius(p, x, y))
    if len(falling) != expect:
        raise MobiusMismatch(
            f"[{x!r}, {y!r}]: {len(falling)} decreasing chains but |mu| = {expect}"
        )
    chains = [tuple(p.elements[k] for k in c) for c in rising + sorted(falling)]
    return chains[0], chains[1:]


def lex_shelling(
    p: Poset, lab: EdgeLabeling
) -> tuple[ShellingOrder, list[tuple[str, ...]]]:
    """Shell the order complex of the proper part by lex label order.

    Returns the certified shelling plus the maximal chains (with bounds) in
    shelling order. Chains are keyed by word, then by elements, so equal
    words cannot make the order nondeterministic.
    """
    if not p.bounded:
        raise BadParams("need a bounded poset")
    chains = sorted(maximal_chains(p), key=lambda c: (lab.word(c), c))
    middles = [c[1:-1] for c in chains]
    if any(not m for m in middles):
        raise BadParams("poset has a chain with no interior; nothing to shell")
    oc = build_complex(middles)
    facet_pos = {f: i for i, f in enumerate(oc.facets)}
    order = [facet_pos[frozenset(m)] for m in middles]
    return verify_shelling(oc, order), chains


def h_by_descents(p: Poset, lab: EdgeLabeling) -> tuple[int, ...]:
    """h_i = number of maximal chains whose label word has i descents."""
    r = p.max_rank()
    h = [0] * r
    for c in maximal_chains(p):
        h[len(descent_set(lab.word(c)))] += 1
    return tuple(h)
