"""A small matroid engine: bases, rank, closure, circuits, nbc-bases.

Matroids are stored as explicit basis lists over an ordered ground set of
atom names; everything else is brute force. Atom order is the sorted order
of the ground names and is what "lexicographic" means throughout.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BadParams, ExchangeAxiomFailed, Inconsistent, NotSimple
from .lattices import Lattice
from .posets import build_poset

__all__ = [
    "Matroid",
    "build_matroid",
    "uniform_matroid",
    "graphic_matroid",
    "rank_and_closure",
    "circuits_of",
    "broken_circuits",
    "nbc_bases",
    "lattice_of_flats",
    "flat_name",
    "matroid_to_json",
    "matroid_from_json",
]


class Matroid:
    """Ground set (ordered atom names) plus the list of bases.

    Bases are frozensets of atom names; ``rank`` is their common size.
    The atom order used by nbc machinery is the position in ``ground``.
    """

    __slots__ = ("ground", "bases", "rank", "_pos")

    def __init__(self, ground: Sequence[str], bases: Sequence[frozenset[str]]):
        self.ground: tuple[str, ...] = tuple(ground)
        self.bases: tuple[frozenset[str], ...] = tuple(bases)
        if not self.bases:
            raise Inconsistent("a matroid needs at least one basis")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise Inconsistent(f"bases of unequal sizes {sorted(sizes)}")
        self.rank: int = sizes.pop()
        self._pos = {a: i for i, a in enumerate(self.ground)}

    def atom_pos(self, a: str) -> int:
        try:
            return self._pos[a]
        except KeyError:
            raise BadParams(f"unknown atom {a!r}") from None

    def is_independent(self, A: Iterable[str]) -> bool:
        s = frozenset(A)
        return any(s <= b for b in self.bases) if len(s) <= self.rank else False

    def rank_of(self, A: Iterable[str]) -> int:
        # rank(S) = max over bases of |S ∩ B|: any maximal independent
        # subset of S extends to a basis, and S ∩ B is always independent.
        s = frozenset(A)
        return max(len(s & b) for b in self.bases)

    def __repr__(self):
        return f"Matroid(rank {self.rank}, {len(self.ground)} atoms, {len(self.bases)} bases)"


def _check_exchange(bases: Sequence[frozenset[str]]) -> None:
    """Basis exchange: for B1, B2 and x in B1-B2, some y in B2-B1 has
    B1 - x + y a basis."""
    bset = set(bases)
    for b1 in bases:
        for b2 in bases:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in bset for y in b2 - b1):
                    raise ExchangeAxiomFailed(
                        f"no exchange for {sorted(b1)} minus {x!r} toward {sorted(b2)}"
                    )


def build_matroid(
    ground: Sequence[str],
    bases: Optional[Iterable[Iterable[str]]] = None,
    circuits: Optional[Iterable[Iterable[str]]] = None,
) -> Matroid:
    """Build and validate a matroid from bases or from circuits.

    With circuits, the independent sets are those containing no circuit and
    bases are the maximum-size independent sets (brute force over subsets).
    """
    names = [str(g) for g in ground]
    if len(set(names)) != len(names):
        raise Inconsistent("duplicate atoms in ground set")
    order = sorted(names)
    if bases is not None:
        raw = {frozenset(str(x) for x in b) for b in bases}
        for b in raw:
            for x in b:
                if x not in names:
                    raise Inconsistent(f"basis atom {x!r} not in ground set")
        bs = sorted(raw, key=lambda b: sorted(order.index(x) for x in b))
        m = Matroid(order, bs)
        _check_exchange(m.bases)
        return m
    if circuits is not None:
        circ = [frozenset(str(x) for x in c) for c in circuits]
        for c in circ:
            for x in c:
                if x not in names:
                    raise Inconsistent(f"circuit atom {x!r} not in ground set")
            if not c:
                raise Inconsistent("empty circuit")
        best: list[frozenset[str]] = []
        for k in range(len(order), -1, -1):
            found = [
                frozenset(s)
                for s in combinations(order, k)
                if not any(c <= frozenset(s) for c in circ)
            ]
            if found:
                best = found
                break
        return build_matroid(order, bases=best)
    raise BadParams("need bases or circuits")


def uniform_matroid(r: int, n: int) -> Matroid:
    """U_{r,n} on atoms named '1'..'n'."""
    if not 0 < r <= n:
        raise BadParams("need 0 < r <= n")
    ground = [str(i) for i in range(1, n + 1)]
    return build_matroid(ground, bases=combinations(ground, r))


def graphic_matroid(vertices: int, edges: Sequence[tuple[int, int]]) -> Matroid:
    """Cycle matroid of a graph; atoms are edge positions '1'..'m'.

    Bases = spanning forests of maximum size, found by brute force.
    """
    if vertices < 1:
        raise BadParams("need at least one vertex")
    for u, v in edges:
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise BadParams(f"edge ({u},{v}) out of range")
        if u == v:
            raise BadParams("loops are not allowed")
    m = len(edges)
    ground = [str(i) for i in range(1, m + 1)]

    def acyclic(idxs: Sequence[int]) -> bool:
        parent = list(range(vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in idxs:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    best: list[frozenset[str]] = []
    for k in range(m, -1, -1):
        found = [
            frozenset(ground[i] for i in idxs)
            for idxs in combinations(range(m), k)
            if acyclic(idxs)
        ]
        if found:
            best = found
            break
    return build_matroid(ground, bases=best)


def rank_and_closure(m: Matroid, A: Iterable[str]) -> tuple[int, frozenset[str]]:
    """Rank of A and its closure {e : rank(A + e) = rank(A)}."""
    s = frozenset(A)
    r = m.rank_of(s)
    closed = set(s)
    for e in m.ground:
        if e not in s and m.rank_of(s | {e}) == r:
            closed.add(e)
    return r, frozenset(closed)


def circuits_of(m: Matroid) -> list[frozenset[str]]:
    """All circuits: minimal dependent sets, by size then lex."""
    out: list[frozenset[str]] = []
    for k in range(1, m.rank + 2):
        for sub in combinations(m.ground, k):
            s = frozenset(sub)
            if m.is_independent(s):
                continue
            if any(c < s for c in out):
                continue
            out.append(s)
    return sorted(out, key=lambda c: (len(c), sorted(m.atom_pos(x) for x in c)))


def broken_circuits(m: Matroid) -> list[frozenset[str]]:
    """Each circuit with its least atom (in ground order) removed."""
    out = []
    for c in circuits_of(m):
        least = min(c, key=m.atom_pos)
        out.append(c - {least})
    return sorted(set(out), key=lambda b: (len(b), sorted(m.atom_pos(x) for x in b)))


def nbc_bases(m: Matroid) -> list[tuple[str, ...]]:
    """Bases containing no broken circuit, lexicographic in atom order.

    Each basis comes back as its atoms sorted in ground order.
    """
    broken = broken_circuits(m)
    keep = []
    for b in m.bases:
        if not any(bc <= b for bc in broken):
            keep.append(tuple(sorted(b, key=m.atom_pos)))
    keep.sort(key=lambda bt: [m.atom_pos(x) for x in bt])
    return keep


# -- lattice of flats --------------------------------------------------------


def flat_name(atoms: Iterable[str]) -> str:
    """Canonical name for a flat: '+'-joined sorted atoms, '0' when empty."""
    xs = sorted(atoms)
    return "+".join(xs) if xs else "0"


def check_simple(m: Matroid) -> None:
    for a in m.ground:
        if not m.is_independent({a}):
            raise NotSimple(f"atom {a!r} is a loop")
    for a, b in combinations(m.ground, 2):
        if not m.is_independent({a, b}):
            raise NotSimple(f"atoms {a!r}, {b!r} are parallel")


def lattice_of_flats(m: Matroid) -> Lattice:
    """Closed sets of a simple matroid ordered by inclusion.

    Flat names use flat_name; the atoms of the lattice are the singleton
    flats, named after their atom.
    """
    check_simple(m)
    rank: dict[frozenset[str], int] = {}
    for k in range(0, m.rank + 1):
        for sub in combinations(m.ground, k):
            r, cl = rank_and_closure(m, sub)
            rank[cl] = r
    flist = sorted(rank, key=lambda f: (len(f), sorted(f)))
    covers = []
    for f in flist:
        for g in flist:
            if f < g and rank[g] == rank[f] + 1:
                # cover iff no flat strictly between; flats of rank one more
                # containing f are exactly the covers
                covers.append((flat_name(f), flat_name(g)))
    elements = [flat_name(f) for f in flist]
    return Lattice(build_poset(elements, covers))


# -- serialization -----------------------------------------------------------


def matroid_to_json(m: Matroid) -> dict:
    return {
        "schema": "earlab.matroid/1",
        "ground": list(m.ground),
        "bases": [sorted(b, key=m.atom_pos) for b in m.bases],
    }


def matroid_from_json(data: Mapping) -> Matroid:
    try:
        if "graph" in data:
            g = data["graph"]
            edges = [(int(u), int(v)) for u, v in g["edges"]]
            return graphic_matroid(int(g["vertices"]), edges)
        ground = [str(x) for x in data["ground"]]
        if "bases" in data:
            return build_matroid(ground, bases=data["bases"])
        if "circuits" in data:
            return build_matroid(ground, circuits=data["circuits"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed matroid JSON: {exc}") from exc
    raise BadParams("matroid JSON needs bases, circuits, or graph")
