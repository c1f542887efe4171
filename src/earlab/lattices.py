"""Lattice operations and built-in families (Boolean, partition, flats).

A Lattice wraps a bounded Poset and serves joins from an n x n table
built once, by one rule, for every lattice. The upper bounds of x and y
have a least element k exactly when they form the principal filter of k
(Stanley, EC1, ch. 3), so join(x, y) is the element whose up-mask equals
up(x) & up(y), found by dictionary lookup. Every pair is checked, so a
bounded poset without all joins raises Inconsistent with the offending
pair, whatever its size. A finite bounded poset with all joins is a lattice
(EC1, §3.3), so its meets need no check: meet(x, y) is the element whose
down-mask equals down(x) & down(y), looked up when asked for. The join
table is quadratic in time and memory.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    BadParams,
    Inconsistent,
    NotGeometric,
    NotMChain,
    SizeLimit,
)
from .posets import (
    Poset,
    build_poset,
    maximal_chains,
    poset_from_json,
    poset_to_json,
)

__all__ = [
    "Lattice",
    "boolean_poset",
    "boolean_lattice",
    "partition_lattice",
    "closure_under_ops",
    "check_mchain",
    "check_geometric",
    "lattice_to_json",
    "lattice_from_json",
]


def _bound_table(p: Poset) -> list[list[int]]:
    """table[i][j] = the k whose up-mask is up(i) & up(j), the join of i
    and j; no such k means the upper bounds have no least element."""
    masks = [p.up_mask(i) for i in range(p.n)]
    owner = {mask: k for k, mask in enumerate(masks)}
    table = [[owner.get(mi & mj) for mj in masks] for mi in masks]
    for i, row in enumerate(table):
        if None in row:
            j = row.index(None)
            raise Inconsistent(
                f"{p.elements[i]!r}, {p.elements[j]!r} have no unique least upper bound"
            )
    return table


class Lattice:
    """A finite lattice: bounded poset plus join/meet.

    ``mchain`` is an optional distinguished maximal chain carried along for
    the supersolvable constructions; it is data, not something the lattice
    verifies on its own (see check_mchain).
    """

    __slots__ = ("poset", "mchain", "_join", "_meet")

    def __init__(self, poset: Poset, mchain: Optional[Sequence[str]] = None):
        if not poset.bounded:
            raise Inconsistent("a lattice needs a unique bottom and top")
        self.poset = poset
        self.mchain = tuple(mchain) if mchain is not None else None
        self._join = _bound_table(poset)
        self._meet = {poset.down_mask(i): i for i in range(poset.n)}

    # -- operations --------------------------------------------------------

    def join_i(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet_i(self, i: int, j: int) -> int:
        return self._meet[self.poset.down_mask(i) & self.poset.down_mask(j)]

    def join(self, x: str, y: str) -> str:
        p = self.poset
        return p.elements[self.join_i(p.index(x), p.index(y))]

    def meet(self, x: str, y: str) -> str:
        p = self.poset
        return p.elements[self.meet_i(p.index(x), p.index(y))]

    def join_of(self, names: Iterable[str]) -> str:
        """Join of a collection (bottom for the empty collection)."""
        p = self.poset
        acc = p._bottom
        for x in names:
            acc = self.join_i(acc, p.index(x))
        return p.elements[acc]

    def atoms(self) -> tuple[str, ...]:
        p = self.poset
        return tuple(p.elements[i] for i in p.covers_up_of(p._bottom))

    @property
    def bottom(self) -> str:
        return self.poset.bottom

    @property
    def top(self) -> str:
        return self.poset.top

    @property
    def rank(self) -> int:
        return self.poset.rank_of(self.poset.top)

    def __repr__(self):
        return f"Lattice({self.poset.n} elements, rank {self.rank})"


# -- families --------------------------------------------------------------


def subset_name(s: Iterable[int]) -> str:
    """Canonical name for a subset of [r]: sorted digits, '0' when empty."""
    digits = sorted(s)
    return "".join(str(d) for d in digits) if digits else "0"


def boolean_poset(r: int) -> Poset:
    """All subsets of [r] ordered by inclusion, each named once by subset_name."""
    if r < 1:
        raise BadParams("rank must be at least 1")
    if r > 9:
        raise SizeLimit("boolean lattice supported up to rank 9")
    universe = range(1, r + 1)
    name = {frozenset(s): subset_name(s) for k in range(r + 1) for s in combinations(universe, k)}
    covers = [(n, name[s | {x}]) for s, n in name.items() for x in universe if x not in s]
    return build_poset(list(name.values()), covers)


def boolean_lattice(r: int) -> Lattice:
    """All subsets of [r] ordered by inclusion."""
    mchain = [subset_name(range(1, k + 1)) for k in range(r + 1)]
    return Lattice(boolean_poset(r), mchain=mchain)


def partition_name(blocks: Iterable[Iterable[int]]) -> str:
    bs = sorted(tuple(sorted(b)) for b in blocks)
    return "/".join("".join(str(x) for x in b) for b in bs)


def _set_partitions(n: int):
    """All set partitions of [n], via restricted growth strings."""
    return _partitions_extending(1, n, [])


def _partitions_extending(i: int, n: int, blocks: list[list[int]]):
    """Every partition of [n] that extends ``blocks``, a partition of
    [i - 1] that is changed in place and restored: i joins each block in
    turn, then a block of its own."""
    if i > n:
        yield [tuple(b) for b in blocks]
        return
    for b in blocks:
        b.append(i)
        yield from _partitions_extending(i + 1, n, blocks)
        b.pop()
    blocks.append([i])
    yield from _partitions_extending(i + 1, n, blocks)
    blocks.pop()


def partition_lattice(n: int) -> Lattice:
    """Set partitions of [n] ordered by refinement (finer below coarser)."""
    if not 2 <= n <= 8:
        raise SizeLimit("partition lattice supported for 2 <= n <= 8")
    elements = []
    covers = []
    for blocks in _set_partitions(n):
        name = partition_name(blocks)
        elements.append(name)
        # covers above: merge any two blocks
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                merged = [blk for k, blk in enumerate(blocks) if k not in (a, b)]
                merged.append(tuple(sorted(blocks[a] + blocks[b])))
                covers.append((name, partition_name(merged)))
    mchain = [
        partition_name([tuple(range(1, k + 1))] + [(j,) for j in range(k + 1, n + 1)])
        for k in range(1, n + 1)
    ]
    return Lattice(build_poset(elements, covers), mchain=mchain)


# -- sublattices and structure tests ----------------------------------------


def closure_under_ops(lat: Lattice, seed: Iterable[str]) -> list[str]:
    """Smallest join- and meet-closed subset containing seed, 0-hat, 1-hat.

    Returned sorted by element name.
    """
    p = lat.poset
    current = {p.index(x) for x in seed}
    current.add(p._bottom)
    current.add(p._top)
    frontier = list(current)
    while frontier:
        new = set()
        members = list(current)
        for i in frontier:
            for j in members:
                for k in (lat.join_i(i, j), lat.meet_i(i, j)):
                    if k not in current:
                        new.add(k)
        current |= new
        frontier = list(new)
    return sorted(p.elements[i] for i in current)


def _distributive_on(lat: Lattice, names: Sequence[str]) -> Optional[tuple[str, str, str]]:
    """First triple violating x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z), else None."""
    idx = [lat.poset.index(x) for x in names]
    for i in idx:
        for j in idx:
            for k in idx:
                lhs = lat.meet_i(i, lat.join_i(j, k))
                rhs = lat.join_i(lat.meet_i(i, j), lat.meet_i(i, k))
                if lhs != rhs:
                    e = lat.poset.elements
                    return (e[i], e[j], e[k])
    return None


def _check_saturated(p: Poset, chain: Sequence[str]) -> None:
    """Raise NotMChain unless ``chain`` runs from bottom to top by covers,
    the shape every M-chain candidate must have."""
    if not chain or chain[0] != p.bottom or chain[-1] != p.top:
        raise NotMChain("candidate chain must run from bottom to top")
    for a, b in zip(chain, chain[1:]):
        if p.index(b) not in p.covers_up_of(p.index(a)):
            raise NotMChain(f"candidate chain is not saturated at {a!r} < {b!r}")


def check_mchain(lat: Lattice, chain: Sequence[str]) -> None:
    """Verify that ``chain`` is an M-chain: a maximal chain whose pairwise
    sublattice with every maximal chain is distributive.

    Raises NotMChain with a witness on failure. Distributivity of each
    generated sublattice is checked only on that sublattice, which suffices:
    sublattices of distributive lattices are distributive, so checking the
    maximal chains covers all chains.
    """
    p = lat.poset
    c = list(chain)
    _check_saturated(p, c)
    for d in maximal_chains(p):
        names = closure_under_ops(lat, c + list(d))
        bad = _distributive_on(lat, names)
        if bad is not None:
            raise NotMChain(
                "sublattice generated with chain "
                f"{'<'.join(d)} is not distributive "
                f"(witness triple {bad})"
            )


def check_geometric(lat: Lattice) -> None:
    """Geometric = graded + atomistic + semimodular; raise NotGeometric.

    In a finite graded lattice both are local (EC1, §3.3): it is atomistic
    iff every element with exactly one lower cover is an atom, and
    semimodular iff any two upper covers of one element join two ranks
    above it."""
    p = lat.poset
    if not p.graded:
        raise NotGeometric("lattice is not graded")
    for i, x in enumerate(p.elements):
        if len(p._covers_down[i]) == 1 and p.ranks[i] != 1:
            raise NotGeometric(f"{x!r} is not a join of atoms")
        for a, b in combinations(p.covers_up_of(i), 2):
            if p.ranks[lat.join_i(a, b)] != p.ranks[i] + 2:
                raise NotGeometric(
                    f"{p.elements[a]!r}, {p.elements[b]!r} cover {x!r}, but their join covers neither"
                )


# -- serialization -----------------------------------------------------------


def lattice_to_json(lat: Lattice) -> dict:
    out = poset_to_json(lat.poset)
    out["schema"] = "earlab.lattice/1"
    if lat.mchain is not None:
        out["mchain"] = list(lat.mchain)
    return out


def lattice_from_json(data: Mapping, p: Optional[Poset] = None) -> Lattice:
    """The lattice of a lattice or poset document; stored ``joins`` and
    ``meets`` tables, optional, must agree with the order. ``p``, when
    given, is ``poset_from_json(data)``, already parsed by the caller."""
    if p is None:
        p = poset_from_json(data)
    mchain = data.get("mchain")
    if mchain is not None and not (
        isinstance(mchain, list) and all(isinstance(x, str) for x in mchain)
    ):
        raise BadParams("mchain must be a list of element names")
    lat = Lattice(p, mchain=mchain)
    for field, op in (("joins", lat.join), ("meets", lat.meet)):
        table = data.get(field)
        if table is None:
            continue
        if not isinstance(table, Mapping):
            raise BadParams(f"{field} must be an object")
        for key, val in table.items():
            parts = key.split("|")
            if len(parts) != 2:
                raise BadParams(f"bad {field} key {key!r}")
            if op(parts[0], parts[1]) != val:
                raise Inconsistent(
                    f"stored {field} entry {key!r} -> {val!r} disagrees with the order"
                )
    return lat
