"""Finite posets: construction, validation, chains, rank selection, Mobius.

Elements are opaque strings. Each poset assigns a canonical index to its
elements at build time (sorted order), and every operation that enumerates
elements or chains does so deterministically with respect to that index, so
repeated runs produce identical output. Order relations are stored as integer
bitmasks, which keeps the desk-scale computations (a few hundred elements)
fast without any third-party dependency.

>>> p = build_poset(["a", "b", "t", "s"], [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
>>> p.bottom, p.top
('s', 't')
>>> mobius(p, "s", "t")
1
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    BadParams,
    CycleDetected,
    DanglingCover,
    EmptySelection,
    Inconsistent,
    NotComparable,
    NotGraded,
    RangeError,
)

__all__ = [
    "Poset",
    "build_poset",
    "mobius",
    "rank_select",
    "proper_part",
    "maximal_chains",
    "with_bounds",
    "poset_to_json",
    "poset_from_json",
    "canonical_dumps",
    "VIRTUAL_BOTTOM",
    "VIRTUAL_TOP",
]

VIRTUAL_BOTTOM = "_bot_"
VIRTUAL_TOP = "_top_"


class Poset:
    """An immutable finite poset over string elements.

    Not constructed directly; use :func:`build_poset` or one of the family
    constructors. ``ranks`` follows the longest-chain-from-a-minimal-element
    convention unless the poset came out of :func:`rank_select`, which
    renumbers ranks 1..|S|.
    """

    __slots__ = (
        "elements",
        "covers",
        "ranks",
        "graded",
        "_index",
        "_up",
        "_down",
        "_covers_up",
        "_covers_down",
        "_bottom",
        "_top",
        "_mobius_memo",
    )

    def __init__(self, elements, covers, ranks, graded, up, down):
        self.elements: tuple[str, ...] = elements
        self.covers: tuple[tuple[int, int], ...] = covers
        self.ranks: tuple[int, ...] = ranks
        self.graded: bool = graded
        self._index = {e: i for i, e in enumerate(elements)}
        self._up = up
        self._down = down
        n = len(elements)
        cu = [[] for _ in range(n)]
        cd = [[] for _ in range(n)]
        for lo, hi in covers:
            cu[lo].append(hi)
            cd[hi].append(lo)
        self._covers_up = tuple(tuple(sorted(v)) for v in cu)
        self._covers_down = tuple(tuple(sorted(v)) for v in cd)
        mins = self.minimal_indices()
        maxs = self.maximal_indices()
        self._bottom = mins[0] if len(mins) == 1 else None
        self._top = maxs[0] if len(maxs) == 1 else None
        self._mobius_memo: dict[tuple[int, int], int] = {}

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DanglingCover(f"unknown element {name!r}") from None

    def has_element(self, name: str) -> bool:
        return name in self._index

    def leq_i(self, i: int, j: int) -> bool:
        return (self._up[i] >> j) & 1 == 1

    def leq(self, x: str, y: str) -> bool:
        return self.leq_i(self.index(x), self.index(y))

    def rank_of(self, x: str) -> int:
        return self.ranks[self.index(x)]

    def up_mask(self, i: int) -> int:
        """Bitmask of indices j with i <= j (including i)."""
        return self._up[i]

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def covers_up_of(self, i: int) -> tuple[int, ...]:
        return self._covers_up[i]

    def minimal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not self._covers_down[i])

    def maximal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not self._covers_up[i])

    @property
    def bottom(self) -> Optional[str]:
        return self.elements[self._bottom] if self._bottom is not None else None

    @property
    def top(self) -> Optional[str]:
        return self.elements[self._top] if self._top is not None else None

    @property
    def bounded(self) -> bool:
        return self._bottom is not None and self._top is not None

    def max_rank(self) -> int:
        return max(self.ranks) if self.ranks else 0

    def cover_pairs(self) -> list[tuple[str, str]]:
        return [(self.elements[a], self.elements[b]) for a, b in self.covers]

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"


def _closure_masks(
    n: int, cover_adj: Sequence[Sequence[int]]
) -> tuple[list[int], list[int], list[int]]:
    """Reachability masks (reflexive) computed in reverse topological order,
    and that order."""
    indeg = [0] * n
    for i in range(n):
        for j in cover_adj[i]:
            indeg[j] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for j in cover_adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise CycleDetected("cover relation contains a cycle")
    up = [1 << i for i in range(n)]
    for i in reversed(order):
        m = up[i]
        for j in cover_adj[i]:
            m |= up[j]
        up[i] = m
    down = [1 << i for i in range(n)]
    for i in order:
        for j in cover_adj[i]:
            down[j] |= down[i]
    return up, down, order


def build_poset(
    elements: Iterable[str],
    covers: Iterable[tuple[str, str]],
    *,
    graded: bool = True,
) -> Poset:
    """Build a poset from elements and (lower, upper) relation pairs.

    The input pairs may contain transitively implied relations; the stored
    cover relation is the transitive reduction of the generated order.
    Raises Inconsistent for an element listed twice, and CycleDetected /
    DanglingCover / NotGraded accordingly (the graded check runs only when
    ``graded=True``).
    """
    names = sorted(elements)
    twice = next((a for a, b in zip(names, names[1:]) if a == b), None)
    if twice is not None:
        raise Inconsistent(f"element {twice!r} is listed twice")
    index = {e: i for i, e in enumerate(names)}
    n = len(names)
    adj = [set() for _ in range(n)]
    for lo, hi in covers:
        if lo not in index:
            raise DanglingCover(f"cover mentions unknown element {lo!r}")
        if hi not in index:
            raise DanglingCover(f"cover mentions unknown element {hi!r}")
        if lo == hi:
            raise CycleDetected(f"self-relation on {lo!r}")
        adj[index[lo]].add(index[hi])
    up, down, order = _closure_masks(n, [sorted(s) for s in adj])
    # transitive reduction: keep (i, j) iff nothing sits strictly between;
    # ranks, the longest chains from a minimal element, grow in topological order
    red: list[tuple[int, int]] = []
    ranks = [0] * n
    for i in order:
        for j in adj[i]:
            if up[i] & down[j] == 1 << i | 1 << j:
                red.append((i, j))
                ranks[j] = max(ranks[j], ranks[i] + 1)
    red.sort()
    is_graded = all(ranks[j] == ranks[i] + 1 for i, j in red)
    if graded and not is_graded:
        bad = next((i, j) for i, j in red if ranks[j] != ranks[i] + 1)
        raise NotGraded(
            f"cover {names[bad[0]]!r} < {names[bad[1]]!r} spans ranks "
            f"{ranks[bad[0]]}..{ranks[bad[1]]}"
        )
    return Poset(tuple(names), tuple(red), tuple(ranks), is_graded, up, down)


def induced_subposet(p: Poset, keep: Iterable[str]) -> Poset:
    """The subposet on ``keep`` with the inherited comparability order."""
    kept = 0
    for e in set(keep):
        kept |= 1 << p.index(e)
    pairs = []
    for i in _bits(kept):
        pairs += [(p.elements[i], p.elements[j]) for j in _bits(p.up_mask(i) & kept & ~(1 << i))]
    return build_poset([p.elements[i] for i in _bits(kept)], pairs, graded=False)


def with_bounds(p: Poset) -> Poset:
    """Adjoin a bottom and a top (used to take flag vectors of selections),
    named VIRTUAL_BOTTOM and VIRTUAL_TOP with ``_`` appended until neither
    name is an element of ``p``."""
    bottom, top = VIRTUAL_BOTTOM, VIRTUAL_TOP
    while p.has_element(bottom) or p.has_element(top):
        bottom, top = bottom + "_", top + "_"
    pairs = list(p.cover_pairs())
    for i in p.minimal_indices():
        pairs.append((bottom, p.elements[i]))
    for i in p.maximal_indices():
        pairs.append((p.elements[i], top))
    return build_poset(list(p.elements) + [bottom, top], pairs, graded=p.graded)


def proper_part(p: Poset) -> Poset:
    """Remove the (unique) bottom and top."""
    if not p.bounded:
        raise BadParams("poset has no unique bottom/top")
    keep = [e for e in p.elements if e not in (p.bottom, p.top)]
    if not keep:
        raise EmptySelection("proper part is empty")
    return induced_subposet(p, keep)


def rank_select(p: Poset, ranks: Iterable[int]) -> Poset:
    """Induced subposet on the elements whose rank lies in ``ranks``.

    New ranks are renumbered 1..|S| (position within sorted(S)). The input
    poset must be graded.
    """
    if not p.graded:
        raise NotGraded("rank selection requires a graded poset")
    S = sorted(set(ranks))
    if not S:
        raise EmptySelection("empty rank set")
    present = set(p.ranks)
    missing = [s for s in S if s not in present]
    if missing:
        raise RangeError(f"ranks {missing} do not occur in the poset")
    pos = {s: k + 1 for k, s in enumerate(S)}
    q = induced_subposet(p, [e for e, rk in zip(p.elements, p.ranks) if rk in pos])
    # p is graded, so each kept cover joins consecutive selected ranks
    new_ranks = tuple(pos[p.rank_of(e)] for e in q.elements)
    return Poset(q.elements, q.covers, new_ranks, True, q._up, q._down)


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _chain_extensions(p: Poset, prefix: list[int], within: int, out: list[tuple[int, ...]]):
    """Append to ``out`` every extension of ``prefix`` by covers whose
    indices lie in the bitmask ``within``, each taken until no such cover
    is left."""
    ended = True
    for j in p.covers_up_of(prefix[-1]):
        if within >> j & 1:
            ended = False
            prefix.append(j)
            _chain_extensions(p, prefix, within, out)
            prefix.pop()
    if ended:
        out.append(tuple(prefix))


def maximal_chains(p: Poset) -> list[tuple[str, ...]]:
    """All maximal chains, each listed from lowest to highest element, in
    lexicographic order of their element indices."""
    out: list[tuple[int, ...]] = []
    everything = (1 << p.n) - 1
    for i in p.minimal_indices():
        _chain_extensions(p, [i], everything, out)
    out.sort()
    return [tuple(p.elements[i] for i in idx) for idx in out]


def mobius(p: Poset, x: str, y: str) -> int:
    """Mobius function mu(x, y), memoized per poset."""
    i, j = p.index(x), p.index(y)
    if not p.leq_i(i, j):
        raise NotComparable(f"{x!r} is not below {y!r}")
    return _mobius_i(p, i, j)


def _mobius_i(p: Poset, i: int, j: int) -> int:
    if i == j:
        return 1
    memo = p._mobius_memo
    key = (i, j)
    if key in memo:
        return memo[key]
    mask = p.up_mask(i) & p.down_mask(j) & ~(1 << j)
    total = sum(_mobius_i(p, i, k) for k in _bits(mask))
    memo[key] = -total
    return -total


# -- serialization --------------------------------------------------------


def canonical_dumps(obj) -> str:
    """Stable JSON encoding used for every report and wire file."""
    return json.dumps(obj, ensure_ascii=True, separators=(",", ":"), sort_keys=False) + "\n"


def poset_to_json(p: Poset) -> dict:
    """The poset document, without labels."""
    return {
        "schema": "earlab.poset/1",
        "elements": list(p.elements),
        "covers": [[a, b] for a, b in p.cover_pairs()],
        "graded": p.graded,
    }


def _array(value) -> Sequence:
    """``value`` when it is a JSON array; a string, which would iterate as
    one too, raises TypeError."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected an array, got {value!r}")
    return value


def poset_from_json(data: Mapping) -> Poset:
    try:
        elements = list(_array(data["elements"]))
        covers = [(a, b) for a, b in map(_array, _array(data["covers"]))]
        graded = data.get("graded", True)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed poset JSON: {exc}") from exc
    if not isinstance(graded, bool):
        raise BadParams(f"malformed poset JSON: graded is {graded!r}, not true or false")
    bad = [x for x in elements + [x for c in covers for x in c] if not isinstance(x, str)]
    if bad:
        raise BadParams(f"malformed poset JSON: element {bad[0]!r} is not a string")
    return build_poset(elements, covers, graded=graded)


def labels_from_json(p: Poset, data: Mapping) -> Optional[dict[tuple[str, str], int]]:
    raw = data.get("labels")
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise BadParams("labels must be an object")
    out = {}
    for key, v in raw.items():
        parts = key.split("|")
        if len(parts) != 2:
            raise BadParams(f"bad label key {key!r}")
        if type(v) is not int:
            raise BadParams(f"label {key!r} is {v!r}, not an integer")
        a, b = parts
        p.index(a), p.index(b)
        out[(a, b)] = v
    return out
