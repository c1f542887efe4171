"""Edge labelings of graded posets.

Covers EL verification, the S_r refinement (labels in [r], no repeats along
maximal chains), the min-join labeling derived from an M-chain, the minimal
labeling of a geometric lattice, an interval's increasing and decreasing
chains (their count checked against μ), and lexicographic shelling.

One walk up from each element, reading each cover once, decides EL and
finds the pairs with no strictly decreasing chain: for an EL-labeling, those
with μ = 0 (Björner, Trans. AMS 260 (1980)).

A label word is read along a saturated chain; descent positions are 1-based
(a descent at i means the i-th label exceeds the next one), matching the way
rank sets are written elsewhere.
"""

from __future__ import annotations

from math import inf
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

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
from .posets import Poset, _bits, maximal_chains, mobius

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
    """Integer labels on exactly the covers of a poset. ``labels`` is
    read-only, as check_el keeps its verdict on the labeling."""

    __slots__ = ("poset", "labels", "_walked")

    def __init__(self, poset: Poset, labels: Mapping[tuple[str, str], int]):
        self.poset = poset
        self.labels = MappingProxyType(dict(labels))
        covers = set(poset.cover_pairs())
        if covers - self.labels.keys():
            a, b = min(covers - self.labels.keys())
            raise BadParams(f"labeling misses cover {a!r} < {b!r}")
        if self.labels.keys() - covers:
            a, b = min(self.labels.keys() - covers)
            raise BadParams(f"labeling has a label on ({a!r}, {b!r}), which is not a cover")
        self._walked: Optional[tuple] = None

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


def _walk(p: Poset, lab: EdgeLabeling) -> tuple[Optional[tuple], Optional[tuple[str, str]]]:
    """verify_el's witness (or None) and the first pair x < y in index order
    with no strictly decreasing chain (or None).

    The walk from x visits x's up-set in rank order. At each y it keeps the
    lex-least word of [x, y] (words there have one length, so it extends a
    lower cover's), the count of weakly increasing words by last label, and
    the largest last label of a strictly decreasing word. x's empty word
    rises and falls to any label."""
    if not p.graded:
        raise NotGraded("EL verification needs a graded poset")
    names = p.elements
    up = [[(m, lab.labels[(names[k], names[m])]) for m in p.covers_up_of(k)] for k in range(p.n)]
    zero = None
    for i, x in enumerate(names):
        above = list(_bits(p.up_mask(i) & ~(1 << i)))
        least, rise, fall = {i: ()}, {i: {-inf: 1}}, {i: inf}
        for k in [i] + sorted(above, key=p.ranks.__getitem__):
            word, rk, fk = least[k], rise[k], fall[k]
            for m, v in up[k]:
                w = word + (v,)
                if m not in least:
                    rise[m], fall[m] = {}, -inf
                least[m] = min(least.get(m, w), w)
                rising = sum(c for last, c in rk.items() if last <= v)
                if rising:
                    rise[m][v] = rise[m].get(v, 0) + rising
                if fk > v > fall[m]:
                    fall[m] = v
        for j in above:
            w, rising = least[j], sum(rise[j].values())
            if rising != 1:
                return (x, names[j], f"{rising} weakly increasing chains (need exactly 1)"), zero
            if any(a > b for a, b in zip(w, w[1:])):
                return (x, names[j], "increasing chain is not strictly lex-first"), zero
            if zero is None and fall[j] == -inf:
                zero = (x, names[j])
    return None, zero


def verify_el(p: Poset, lab: EdgeLabeling) -> tuple[bool, Optional[tuple]]:
    """EL check over every interval of a graded poset.

    Each interval must have exactly one weakly increasing saturated chain,
    strictly lexicographically before every other chain word. Ties among
    the non-increasing words are fine; a tie with the increasing word is
    not, since then it would not strictly precede everything else. So
    [x, y] passes iff it has one weakly increasing word and its lex-least
    word rises, both read off one walk up from x (see _walk).

    Returns (True, None) or (False, witness) with witness =
    (x, y, reason string), for the first failing (x, y) in index order.
    """
    witness, _ = _walk(p, lab)
    return witness is None, witness


def check_el(p: Poset, lab: EdgeLabeling) -> Optional[tuple[str, str]]:
    """Raise LabelingInvalid unless ``lab`` is EL. Return the first pair
    x < y in index order with no strictly decreasing chain, or None: for an
    EL-labeling these are the pairs with μ(x, y) = 0 (Björner 1980). The
    walk is kept on ``lab``, so a second call on ``p`` costs nothing."""
    if lab._walked is None or lab._walked[0] is not p:
        lab._walked = (p, *_walk(p, lab))
    _, witness, zero = lab._walked
    if witness is not None:
        x, y, why = witness
        raise LabelingInvalid(f"not an EL-labeling on [{x!r}, {y!r}]: {why}")
    return zero


def verify_sr(p: Poset, lab: EdgeLabeling) -> bool:
    """S_r refinement, r the top rank: labels lie in [r] and no maximal
    chain repeats one.

    Any two covers a < b <= c < d lie on one maximal chain, so a label v
    repeats on some maximal chain iff a cover labelled v starts at or above
    the top of another.
    """
    r = p.max_rank()
    if any(not 1 <= v <= r for v in lab.labels.values()):
        return False
    starts = dict.fromkeys(lab.labels.values(), 0)  # label -> bitmask of cover bottoms
    for (a, _), v in lab.labels.items():
        starts[v] |= 1 << p.index(a)
    return not any(p.up_mask(p.index(b)) & starts[v] for (_, b), v in lab.labels.items())


def derive_sn_labeling(lat: Lattice) -> EdgeLabeling:
    """Labeling from the lattice's M-chain z_0 < … < z_r by the min-join rule
    λ(x, y) = min{ i : y ≤ x ∨ z_i }, then verified EL and S_r.

    The verification is also the M-chain test: a saturated chain from
    bottom to top is an M-chain iff its min-join labeling is an S_r
    EL-labeling (McNamara, JCTA 101 (2003), Thm 1), so a chain that fails
    it raises NotMChain. check_mchain tests the definition directly.
    """
    if not lat.mchain:
        raise BadParams("no M-chain stored on the lattice")
    p = lat.poset
    _check_saturated(p, lat.mchain)
    z = [p.index(e) for e in lat.mchain]
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
