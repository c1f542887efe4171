"""A small matroid engine: bases, flats, circuits, nbc-bases.

Matroids are stored as explicit basis lists over an ordered ground set of
atom names. The exchange check and the flats use int bitmasks over atom
positions; graphic_matroid's forests (of the rank's size only),
circuits_of and bases from circuits are brute force over subsets. Atom
order is the sorted order of the ground names and is what
"lexicographic" means throughout.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Mapping, Optional, Sequence

from .complexes import face_name
from .errors import BadParams, ExchangeAxiomFailed, Inconsistent, NotSimple
from .lattices import Lattice
from .posets import _array, build_poset

__all__ = [
    "Matroid",
    "build_matroid",
    "uniform_matroid",
    "graphic_matroid",
    "circuits_of",
    "broken_circuits",
    "nbc_bases",
    "lattice_of_flats",
    "matroid_to_json",
    "matroid_from_json",
]


class Matroid:
    """Ground set (ordered atom names) plus the list of bases.

    Bases are frozensets of atom names; ``rank`` is their common size.
    The atom order used by nbc machinery is the position in ``ground``.
    """

    __slots__ = ("ground", "bases", "rank", "_pos", "_masks")

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
        self._masks = [sum(1 << self._pos[a] for a in b) for b in self.bases]

    def atom_pos(self, a: str) -> int:
        try:
            return self._pos[a]
        except KeyError:
            raise BadParams(f"unknown atom {a!r}") from None

    def is_independent(self, A: Iterable[str]) -> bool:
        s = frozenset(A)
        return any(s <= b for b in self.bases) if len(s) <= self.rank else False

    def __repr__(self):
        return f"Matroid(rank {self.rank}, {len(self.ground)} atoms, {len(self.bases)} bases)"


def _check_exchange(m: Matroid) -> None:
    """Basis exchange: for B1, B2 and x in B1-B2, some y in B2-B1 has
    B1 - x + y a basis. With Y the y making B1 - x + y a basis (x among
    them), x fails toward B2 iff B2 misses Y; in a matroid Y is a cocircuit,
    so the first basis missing each Y is cached. Reported: the first failing
    B1, then B2, and its least failing x."""
    masks = m._masks
    bset = set(masks)
    n = len(m.ground)
    first: dict[int, Optional[int]] = {}  # Y -> index of the first basis missing it
    for i, b1 in enumerate(masks):
        hits = []
        for x in range(n):
            if b1 >> x & 1:
                ys = sum(1 << y for y in range(n) if b1 ^ 1 << x | 1 << y in bset)
                if ys not in first:
                    first[ys] = next((j for j, b2 in enumerate(masks) if not b2 & ys), None)
                if first[ys] is not None:
                    hits.append((first[ys], x))
        if hits:
            j, x = min(hits)
            raise ExchangeAxiomFailed(
                f"no exchange for {sorted(m.bases[i])} minus {m.ground[x]!r} toward {sorted(m.bases[j])}"
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
        _check_exchange(m)
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

    Bases = spanning forests: the edge sets of size rank = n - components
    (one union-find pass over all edges) that are acyclic.
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

    def joins(idxs: Iterable[int]) -> int:
        """How many of the edges ``idxs`` join two components, in order."""
        parent = list(range(vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        count = 0
        for i in idxs:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                count += 1
        return count

    rank = joins(range(m))
    bases = [
        frozenset(ground[i] for i in idxs)
        for idxs in combinations(range(m), rank)
        if joins(idxs) == rank
    ]
    return build_matroid(ground, bases=bases)


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


def check_simple(m: Matroid) -> None:
    for a in m.ground:
        if not m.is_independent({a}):
            raise NotSimple(f"atom {a!r} is a loop")
    for a, b in combinations(m.ground, 2):
        if not m.is_independent({a, b}):
            raise NotSimple(f"atoms {a!r}, {b!r} are parallel")


def lattice_of_flats(m: Matroid) -> Lattice:
    """Closed sets of a simple matroid ordered by inclusion.

    A flat is named by complexes.face_name of its atoms, so the atoms of
    the lattice, the singleton flats, are named after their atom; a ground
    set on which two flats get one name (an atom "0", or "a+b" beside the
    flat of a and b) is refused with Inconsistent.

    Precondition: ``m`` satisfies basis exchange, as build_matroid checks.
    The flats covering F are cl(I + e) for e not in F, with I an independent
    set spanning F (Oxley, Matroid Theory, 2nd ed., ch. 1); the closure of
    an independent J adds each y for which J + y lies in no basis.
    """
    check_simple(m)
    n = len(m.ground)
    indep = {0}
    for b in m._masks:
        sub = b
        while sub:
            indep.add(sub)
            sub = (sub - 1) & b
    spans = {0: 0}  # flat -> an independent set spanning it
    flats = [0]
    covers = []
    for f in flats:  # grows as flats are found, rank by rank
        done = f  # the covers of f partition the atoms outside it
        for e in range(n):
            if not done >> e & 1:
                j = spans[f] | 1 << e
                g = j | sum(1 << y for y in range(n) if j | 1 << y not in indep)
                done |= g
                covers.append((f, g))
                if g not in spans:
                    spans[g] = j
                    flats.append(g)
    atoms = {f: [m.ground[i] for i in range(n) if f >> i & 1] for f in flats}
    name = {f: face_name(atoms[f]) for f in flats}
    first: dict[str, int] = {}
    for f, x in name.items():
        g = first.setdefault(x, f)
        if g != f:
            raise Inconsistent(
                f"flats {atoms[g]} and {atoms[f]} are both named {x!r}: a flat's name "
                "joins its atoms with '+', and '0' names the empty flat"
            )
    return Lattice(build_poset(name.values(), [(name[f], name[g]) for f, g in covers]))


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
            edges = [(u, v) for u, v in map(_array, _array(g["edges"]))]
            bad = [x for x in (g["vertices"], *chain(*edges)) if type(x) is not int]
            if bad:  # a float, a string or a bool is no JSON integer
                raise TypeError(f"expected an integer, got {bad[0]!r}")
            return graphic_matroid(g["vertices"], edges)
        ground = [str(x) for x in _array(data["ground"])]
        if "bases" in data:
            return build_matroid(ground, bases=[_array(b) for b in _array(data["bases"])])
        if "circuits" in data:
            return build_matroid(ground, circuits=[_array(c) for c in _array(data["circuits"])])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed matroid JSON: {exc}") from exc
    raise BadParams("matroid JSON needs bases, circuits, or graph")
