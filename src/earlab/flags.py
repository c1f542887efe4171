"""Flag f/h vectors, g-vectors, M-vector tests, weak order, dominance.

Conventions used throughout:
  * A graded bounded poset of rank rho has flag subsets S ⊆ [rho-1].
  * Permutations live in S_rho; descent positions are 1-based.
  * Dominance of S over T means an injection D_T -> D_S that moves every
    permutation weakly up in the (right) weak order (Nyman–Swartz, DCG 32
    (2004)), compared by inversion-set containment. ``dominance_table(m)``
    decides every pair once per m. One lexicographic sweep of S_m extends
    each prefix once: placing a value ORs in, from one table lookup, the
    bits it makes with the smaller values still to its right, and appends
    them to the prefix's inversion list. Each leaf lands in its descent
    class, and no permutation is built. Per class the sweep keeps the
    masks, each member's inversion list as ``bytes``, and per inversion
    bit the bitset of the members with it; τ's candidates in D_S are the
    AND of those bitsets over τ's list. A matching (augmenting paths on
    those bitsets) runs only when |D_T| ≤ |D_S| and every τ has a
    candidate, most inverted τ first, so a failing pair fails early.
    w ↦ w0·w·w0 is a weak-order automorphism carrying D_S onto D_{m-S}, so
    (S, T) and (m-S, m-T) are decided together. ``dominates`` matches on
    the same lists and names the injection's permutations through
    ``descent_classes``; the tests diff all of it against the routes it
    replaced and replay witnesses through ``weak_leq_by_switches``, a
    breadth-first search over switches.

The h-vector side: g = the first differences of the lower half of h, and
the M-vector test is the Macaulay binomial growth bound, all in exact
integer arithmetic.

Flag vectors are lists over rank masks (bit i - 1 for rank i) until
returned; ``_subset_transform`` turns flag f into flag h and back, for a
poset's chain counts (``flag_f_and_h``) and for a complex's face poset,
whose flag f is a product rule on f(K) (``face_poset_flags``). Flag
reciprocity, the flag form of h_k(B, ∂B) = h_{d-k}(B) (Stanley,
*Combinatorics and Commutative Algebra*, §II.7), runs it on face counts by
color mask off the ear's masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

from .complexes import SimplicialComplex, _boundary_ridges, _faces_by_size
from .errors import (
    BadParams,
    LengthMismatch,
    NotBall,
    SelfCheckFailed,
    SizeLimit,
)
from .labelings import descent_set
from .posets import Poset, _bits

__all__ = [
    "FlagVector",
    "flag_f_and_h",
    "face_poset_flags",
    "g_vector",
    "macaulay_pseudopower",
    "m_vector_witness",
    "is_m_vector",
    "g_and_m_check",
    "verify_h_inequalities",
    "weak_leq_by_switches",
    "descent_classes",
    "dominates",
    "dominance_table",
    "w_set",
    "verify_flag_inequalities",
    "ball_flag_reciprocity",
    "corollary_gap_coefficients",
    "DOMINANCE_CAP",
]

DOMINANCE_CAP = 8


def _check_class_rank(m: int) -> None:
    """Refuse a rank m that the descent classes of S_m cannot serve."""
    if m < 0:
        raise BadParams(f"m = {m} is negative")
    if m > DOMINANCE_CAP:
        raise SizeLimit(f"rank {m} exceeds the descent-class cap m = {DOMINANCE_CAP}")


@dataclass(frozen=True)
class FlagVector:
    """Map from rank subsets to counts; kind is 'f' or 'h'."""

    kind: str
    rho: int
    entries: Mapping[frozenset[int], int]

    def __getitem__(self, S: Iterable[int]) -> int:
        return self.entries[frozenset(S)]

    def get(self, S: Iterable[int], default: int = 0) -> int:
        return self.entries.get(frozenset(S), default)


def _subset_transform(v: list[int], sign: int) -> list[int]:
    """v[S] becomes Σ over T ⊆ S of sign^|S - T| v[T], in place and returned,
    for S ⊆ [n] as a bitmask (bit i - 1 for i) and len(v) = 2^n. Sign -1
    turns flag f into flag h (inclusion-exclusion), +1 turns h back."""
    bit = 1
    while bit < len(v):
        for S in range(len(v)):
            if S & bit:
                v[S] += sign * v[S ^ bit]
        bit <<= 1
    return v


def flag_f_and_h(p: Poset) -> tuple[FlagVector, FlagVector]:
    """Flag f and h of a bounded graded poset, by chain DP and
    ``_subset_transform``; the f = Σ h round trip is asserted. Each S
    extends the chain counts of S minus its largest rank by one layer."""
    if not (p.graded and p.bounded):
        raise BadParams("flag vectors need a graded bounded poset")
    rho = p.rank_of(p.top)
    if rho < 1:
        raise BadParams("flag vectors need a poset of rank at least 1")
    layers: list[list[int]] = [[] for _ in range(rho + 1)]
    for i, r in enumerate(p.ranks):
        layers[r].append(i)
    f = [0] * (1 << (rho - 1))
    # (S as a rank mask, the number of chains hitting exactly the ranks in S
    # and ending at each element of rank max S)
    stack: list[tuple[int, dict[int, int]]] = [(0, {p._bottom: 1})]
    while stack:
        S, counts = stack.pop()
        f[S] = sum(counts.values())
        for s in range(S.bit_length() + 1, rho):
            nxt: dict[int, int] = {}
            for j in layers[s]:
                down = p._down[j]
                total = sum(c for i, c in counts.items() if (down >> i) & 1)
                if total:
                    nxt[j] = total
            stack.append((S | 1 << (s - 1), nxt))
    return _flag_vectors(f, rho)


def face_poset_flags(f: Sequence[int], rho: int) -> tuple[FlagVector, FlagVector]:
    """Flag f and h of a complex's faces with 1..rho-1 vertices, bounded,
    from f[k], its number of faces with k vertices, with no poset built: the
    chains with face sizes u_1 < … < u_j number f[u_j]·C(u_j, u_{j-1})⋯
    C(u_2, u_1), the empty one f[0] (Stanley, EC1 §3.13); linear in f."""
    if rho < 1:
        raise BadParams("flag vectors need a poset of rank at least 1")
    flag = []
    for S in range(1 << (rho - 1)):
        sizes = [0, *(i + 1 for i in _bits(S))]
        n = f[sizes[-1]]
        for lo, hi in zip(sizes, sizes[1:]):
            n *= comb(hi, lo)
        flag.append(n)
    return _flag_vectors(flag, rho)


def _flag_vectors(f: list[int], rho: int) -> tuple[FlagVector, FlagVector]:
    """Flag f, a list over the rank masks of [rho - 1], and its flag h, as
    ``FlagVector``s; the f = Σ h round trip is asserted."""
    h = _subset_transform(f.copy(), -1)
    if _subset_transform(h.copy(), 1) != f:
        raise SelfCheckFailed("flag f/h round trip failed")
    ranks = [frozenset(i + 1 for i in _bits(S)) for S in range(len(f))]
    return FlagVector("f", rho, dict(zip(ranks, f))), FlagVector("h", rho, dict(zip(ranks, h)))


# -- h-vector side -------------------------------------------------------------


def g_vector(h: Sequence[int]) -> tuple[int, ...]:
    """g_i = h_i - h_{i-1} on the lower half (g_0 = h_0)."""
    if not h:
        raise BadParams("the h-vector is empty")
    d = len(h) - 1
    out = [h[0]]
    for i in range(1, d // 2 + 1):
        out.append(h[i] - h[i - 1])
    return tuple(out)


def macaulay_pseudopower(a: int, i: int) -> int:
    """a^<i> via the greedy binomial representation of a in degree i, each
    of its n found by doubling and then exact integer bisection."""
    if a < 0 or i < 1:
        raise BadParams("need a >= 0 and i >= 1")
    rep = []
    deg = i
    rest = a
    while rest > 0 and deg >= 1:
        lo, hi = deg, deg + 1  # the largest n with comb(n, deg) <= rest is in [lo, hi)
        while comb(hi, deg) <= rest:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if comb(mid, deg) <= rest else (lo, mid)
        rep.append((lo, deg))
        rest -= comb(lo, deg)
        deg -= 1
    return sum(comb(n + 1, d + 1) for n, d in rep)


def m_vector_witness(seq: Sequence[int]) -> Optional[dict]:
    """Macaulay growth test with its witness: None when ``seq`` is an
    O-sequence (starts at 1, no negative entry, each entry from degree 2 on
    within the pseudopower bound of the one before), else the first
    failure."""
    if not seq:
        return {"reason": "empty sequence"}
    if seq[0] != 1:
        return {"index": 0, "reason": "must start at 1"}
    for i, x in enumerate(seq):
        if x < 0:
            return {"index": i, "reason": "negative entry"}
    for i in range(2, len(seq)):  # degree-1 entries are unconstrained
        bound = macaulay_pseudopower(seq[i - 1], i - 1)
        if seq[i] > bound:
            return {"index": i, "value": seq[i], "bound": bound}
    return None


def is_m_vector(seq: Sequence[int]) -> bool:
    """True when ``seq`` is an M-vector; see m_vector_witness."""
    return m_vector_witness(seq) is None


def g_and_m_check(h: Sequence[int]) -> tuple[tuple[int, ...], bool]:
    g = g_vector(h)
    return g, is_m_vector(g)


def verify_h_inequalities(h: Sequence[int]) -> tuple[bool, list[str]]:
    """The two h-vector consequences: h_i ≤ h_{d-i} and, below d/2,
    h_i ≤ h_{i+1}. Returns (ok, failures)."""
    if not h:
        raise BadParams("the h-vector is empty")
    d = len(h) - 1
    bad = []
    for i in range(d // 2 + 1):
        if h[i] > h[d - i]:
            bad.append(f"symmetry: h_{i} = {h[i]} > h_{d - i} = {h[d - i]}")
    i = 0
    while i < d / 2:
        if h[i] > h[i + 1]:
            bad.append(f"growth: h_{i} = {h[i]} > h_{i + 1} = {h[i + 1]}")
        i += 1
    return (not bad), bad


# -- weak order and dominance ---------------------------------------------------


def weak_leq_by_switches(sigma: Sequence[int], tau: Sequence[int]) -> bool:
    """Oracle: walk ascent switches upward from σ looking for τ."""
    if len(sigma) != len(tau):
        raise LengthMismatch("permutations must have the same length")
    start, goal = tuple(sigma), tuple(tau)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            if w == goal:
                return True
            for i in range(len(w) - 1):
                if w[i] < w[i + 1]:
                    u = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    return goal in seen


@lru_cache(maxsize=None)
def descent_classes(m: int) -> dict[frozenset[int], list[tuple[int, ...]]]:
    """All of S_m grouped by descent set."""
    _check_class_rank(m)
    out: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for perm in permutations(range(1, m + 1)):
        out.setdefault(descent_set(perm), []).append(perm)
    return out


@lru_cache(maxsize=None)
def _class_masks(
    m: int,
) -> dict[frozenset[int], tuple[tuple[int, ...], tuple[int, ...], tuple[bytes, ...]]]:
    """Per descent class of S_m, in ``descent_classes`` order: the members'
    inversion masks, where the pair of values a < b owns bit
    (a - 1) * m + b - 1 and is set when a comes after b, so masks compare
    by containment; for each bit the bitset of the members that have it;
    and each member's inversion bits as ``bytes``.

    One lexicographic sweep of S_m extends each prefix once, carrying the
    values still unplaced, the inversion mask and bits so far, and the
    descent bits. ``gain[v][rest]`` holds the bits of the pairs (a, v) with
    a < v in ``rest``, the values still to the right of v, so placing v ORs
    in one lookup and appends its bits, lowest first (a member's list runs
    by placement, not sorted). Leaves land in their class in lex order, and
    classes are met in the order of their lex-first members, as
    ``descent_classes`` lists them; no permutation is built. Written as rows
    of m² binary digits, last member first, the masks give each bit's bitset
    as a column."""
    _check_class_rank(m)
    gain = [
        [
            sum(1 << ((a - 1) * m + v - 1) for a in range(1, v) if (rest >> (a - 1)) & 1)
            for rest in range(1 << m)
        ]
        for v in range(m + 1)
    ]
    gained = [[bytes(_bits(bits)) for bits in row] for row in gain]
    found: dict[int, tuple[list[int], list[bytes]]] = {}  # descent bits -> members
    if m:
        _extend_prefix((1 << m) - 1, 0, b"", 0, 0, 0, gain, gained, found)
    else:
        found[0] = ([0], [b""])  # S_0 holds the empty permutation
    w = m * m
    digits = f"0{w}b"
    out = {}
    for desc, (masks, invs) in found.items():
        rows = "".join([format(mask, digits) for mask in reversed(masks)])
        out[frozenset(_bits(desc))] = (
            tuple(masks),
            tuple(int(rows[w - 1 - k :: w], 2) for k in range(w)),
            tuple(invs),
        )
    return out


def _extend_prefix(
    rest: int,
    mask: int,
    inv: bytes,
    desc: int,
    last: int,
    pos: int,
    gain: list[list[int]],
    gained: list[list[bytes]],
    found: dict[int, tuple[list[int], list[bytes]]],
) -> None:
    """``_class_masks``' sweep below one prefix: place each value of the
    bitmask ``rest``, smallest first, at 0-based position ``pos`` after
    ``last``, and file each finished permutation's mask and inversion bits
    under its descent bits in ``found``."""
    todo = rest
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length()
        right = rest ^ low
        d = desc | 1 << pos if last > v else desc
        if right:
            _extend_prefix(
                right, mask | gain[v][right], inv + gained[v][right], d, v, pos + 1, gain, gained, found
            )
        else:
            masks, invs = found.get(d) or found.setdefault(d, ([], []))
            masks.append(mask)
            invs.append(inv)


def _injection(
    left: Sequence[Iterable[int]],
    right: tuple[tuple[int, ...], tuple[int, ...], tuple[bytes, ...]],
) -> Optional[list[int]]:
    """A matching of D_T, given as each τ's inversion bits, into D_S, given
    as its ``_class_masks`` entry, that moves every permutation weakly up:
    member indices into D_S in D_T's order, or None when there is none.
    Each τ's candidates are the AND of D_S's bitsets over τ's inversion
    bits; the maximum matching runs only when every τ has one."""
    masks, having, _ = right
    if len(left) > len(masks):
        return None
    full = (1 << len(masks)) - 1
    cands = []
    for bits in left:
        cand = full
        for k in bits:
            cand &= having[k]
            if not cand:
                return None
        cands.append(cand)
    return _match(cands)


def _match(cands: Sequence[int]) -> Optional[list[int]]:
    """A matching that covers every left vertex, given each one's
    neighbours as a bitset of right vertices: the right vertex of each, or
    None when there is none.

    Left vertices are taken in order (Kuhn). From each, a depth-first
    search with an explicit stack, so a path's length is not bounded by
    the recursion limit, visits each right vertex at most once: it takes a
    free neighbour when one is left, else passes through the lowest
    unvisited matched one to its partner, and flips the path when it
    reaches a free vertex. When the search from u fails, the matching of
    left vertices 0..u-1 has no augmenting path among 0..u, so by Berge no
    matching covers them all, and the answer is None."""
    match_l = [-1] * len(cands)
    match_r: dict[int, int] = {}
    matched = 0
    for root in range(len(cands)):
        path = [root]  # left vertices from the root down
        via: list[int] = []  # the right vertex between path[k] and path[k + 1]
        seen = 0
        while path:
            rest = cands[path[-1]] & ~seen
            free = rest & ~matched
            if free:
                v = (free & -free).bit_length() - 1
                via.append(v)
                for x, y in zip(path, via):
                    match_l[x] = y
                    match_r[y] = x
                matched |= 1 << v
                break
            if rest:
                low = rest & -rest
                seen |= low
                v = low.bit_length() - 1
                via.append(v)
                path.append(match_r[v])
            else:
                path.pop()
                if via:
                    via.pop()
        else:
            return None
    return match_l


def dominates(
    S: Iterable[int], T: Iterable[int], m: int
) -> tuple[bool, Optional[dict[tuple[int, ...], tuple[int, ...]]]]:
    """Does S dominate T in S_m? Decided by maximum bipartite matching on
    the weak-order relation between descent classes; the injection comes
    back as the witness, its permutations listed by ``descent_classes``."""
    Sf, Tf = frozenset(S), frozenset(T)
    bad = [i for i in Sf | Tf if not 1 <= i <= m - 1]
    if bad:
        raise BadParams(f"rank positions {bad} outside [1, {m - 1}]")
    classes = _class_masks(m)  # refuses m < 0 and m > DOMINANCE_CAP
    match_l = _injection(classes[Tf][2], classes[Sf])
    if match_l is None:
        return False, None
    perms = descent_classes(m)
    return True, {perms[Tf][u]: perms[Sf][v] for u, v in enumerate(match_l)}


@lru_cache(maxsize=None)
def dominance_table(m: int) -> frozenset[tuple[frozenset[int], frozenset[int]]]:
    """Every pair (S, T) of subsets of [m-1] with S dominating T in S_m,
    the diagonal included; built once per m, deciding (S, T) and
    (m-S, m-T) together and trying each D_T's most inverted τ first."""
    classes = _class_masks(m)
    order = {S: k for k, S in enumerate(classes)}
    mirror = {S: frozenset(m - i for i in S) for S in classes}
    table = set()
    for T, (_, _, invs) in classes.items():
        mT = mirror[T]
        if order[mT] < order[T]:
            continue  # decided as (m-S, m-T)
        left = sorted(invs, key=len, reverse=True)
        for S, right in classes.items():
            mS = mirror[S]
            if (T != mT or order[S] <= order[mS]) and (
                S == T or _injection(left, right) is not None
            ):
                table.update([(S, T), (mS, mT)])
    return frozenset(table)


def w_set(S: Iterable[int], n: int) -> frozenset[int]:
    """{ i in [n] : exactly one of i, i+1 lies in S }."""
    Sf = frozenset(S)
    bad = [i for i in Sf if not 1 <= i <= n]
    if bad:
        raise BadParams(f"{bad} outside [1, {n}]")
    return frozenset(i for i in range(1, n + 1) if (i in Sf) + (i + 1 in Sf) == 1)


def verify_flag_inequalities(p: Poset) -> dict:
    """Check h_T ≤ h_S for every dominating pair (S, T) of rank subsets,
    read from ``dominance_table(rho)``.

    ``p`` must be graded and bounded (callers add bounds to rank selections
    first). Violations are counted in the report and never raised; the
    caller inspects it.
    """
    if not (p.graded and p.bounded):
        raise BadParams("need a graded bounded poset")
    _check_class_rank(p.rank_of(p.top))  # before the 2^(rho-1) chain counts
    return _inequality_report(flag_f_and_h(p)[1])


def _inequality_report(fh: FlagVector) -> dict:
    """The report of ``verify_flag_inequalities`` on a flag h of rank at
    most ``DOMINANCE_CAP``: one row per dominating pair (S, T), S ≠ T."""
    rho = fh.rho
    subsets = [frozenset(S) for k in range(rho) for S in combinations(range(1, rho), k)]
    table = dominance_table(rho)
    pairs = [
        {"S": sorted(S), "T": sorted(T), "h_S": fh[S], "h_T": fh[T], "ok": fh[T] <= fh[S]}
        for S in subsets
        for T in subsets
        if S != T and (S, T) in table
    ]
    return {"rho": rho, "pairs": pairs, "violations": sum(not row["ok"] for row in pairs)}


# -- ball flag reciprocity -------------------------------------------------------


def ball_flag_reciprocity(
    ear: SimplicialComplex,
    colors: Mapping[str, int],
    d: int,
) -> bool:
    """The flag reciprocity identity of a rank-colored (d-1)-ball or
    sphere: for every W ⊆ [d], h_int(W) = h([d] - W) + χ̃·(-1)^(d-|W|),
    with h the ear's flag h, h_int its interior's (the nonempty faces in
    no boundary ridge) and χ̃ its reduced Euler characteristic, which
    vanishes on a ball. Both flag h's come from ``_subset_transform`` on
    face counts by color mask (color c is bit c - 1), read off the ear's
    masks."""
    if ear.is_void or ear.dim != d - 1 or not ear.pure:
        raise NotBall(f"expected a pure complex of dimension {d - 1}")
    full = (1 << d) - 1
    bit = {c: 1 << (c - 1) for c in range(1, d + 1)}
    hue = [bit.get(colors[v], 0) for v in ear.vertices]
    paint = {0: 0}  # each face's color mask; a face one bit smaller is painted first
    for size in _faces_by_size(ear.masks, d)[1:]:
        for s in size:
            low = s & -s
            paint[s] = paint[s ^ low] | hue[low.bit_length() - 1]
    if any(paint[f] != full for f in ear.masks):
        raise NotBall("facet misses a rank color")
    # every facet carries all d colors, so no two vertices of a face share one
    bd = set().union(*_faces_by_size(_boundary_ridges(ear.masks), d - 1))
    h = [0] * (full + 1)
    h_int = [0] * (full + 1)
    for s, cs in paint.items():
        h[cs] += 1
        if s and s not in bd:
            h_int[cs] += 1
    chi = sum((-1) ** (cs.bit_count() + 1) * n for cs, n in enumerate(h))
    h, h_int = _subset_transform(h, -1), _subset_transform(h_int, -1)
    return all(
        h_int[W] == h[full ^ W] + chi * (-1) ** (d - W.bit_count()) for W in range(full + 1)
    )


def corollary_gap_coefficients(
    S: Iterable[int], T: Iterable[int], d: int
) -> tuple[int, ...]:
    """Coefficients a_0..a_{d+1} with
    h_S(Δ) - h_T(Δ) = Σ_i a_i h_i(K)
    for every d-dimensional complex K and S, T ⊆ [1, d], where Δ is the
    order complex of the face poset of K minus the empty face. Both sides
    are linear in h(K), so a_i is the gap ``face_poset_flags`` gives on the
    f-vector of h = e_i, f_k = C(d + 1 - i, k - i)."""
    Sf, Tf = frozenset(S), frozenset(T)
    if any(not 1 <= i <= d for i in Sf | Tf):
        raise BadParams(f"rank sets must lie in [1, {d}]")
    a = []
    for i in range(d + 2):
        _, fh = face_poset_flags([0] * i + [comb(d + 1 - i, j) for j in range(d + 2 - i)], d + 1)
        a.append(fh[Sf] - fh[Tf])
    return tuple(a)
