"""Simplicial complexes: shellings, f/h-vectors, exact homology, CM, balls.

Complexes are stored by their facets (maximal faces) over string vertices.
The two degenerate complexes both occur here and are kept distinct: the
void complex (no faces at all, ``facets == ()``) and the empty complex
``{∅}`` (one empty facet), which plays the role of a sphere of dimension -1.

Names appear only at the API. The kernels read facets as masks over the
sorted ``vertices`` (bit i is ``vertices[i]``, so bit order is name order):
a shelling keeps per vertex the bitset of the placed facets holding it, the
CM check reads links and vertex deletions off the masks, and a ball's
boundary is certified as ridge masks in its own bits, no complex kept.
Only ``faces()`` lists faces as name sets; the face poset names its masks.

All homology is reduced and over the rationals, computed by integer
pivot-column reduction with clearing (its oracle in the tests: fraction-free
elimination), so there are no floating-point numbers anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Container, Iterable, Mapping, Optional, Sequence

from .errors import (
    BadParams,
    Inconsistent,
    NotCertified,
    NotPure,
    NotShelling,
    SelfCheckFailed,
    SizeLimit,
)
from .posets import Poset, _bits, build_poset, maximal_chains

__all__ = [
    "SimplicialComplex",
    "ShellingOrder",
    "build_complex",
    "order_complex",
    "face_poset",
    "face_name",
    "f_h_vectors",
    "verify_shelling",
    "h_from_shelling",
    "search_shelling",
    "boundary_complex",
    "gluing_diff",
    "homology_ranks",
    "is_cm_and_2cm",
    "certify_sphere_or_ball",
    "union_complexes",
    "intersection_complexes",
    "complex_to_json",
    "complex_from_json",
]


class SimplicialComplex:
    """An abstract simplicial complex given by its facets, and by their
    masks over ``vertices``."""

    __slots__ = ("vertices", "facets", "dim", "pure", "masks")

    def __init__(self, vertices: tuple[str, ...], facets: tuple[frozenset[str], ...]):
        self.vertices = vertices
        self.facets = facets
        self.dim = max((len(f) for f in facets), default=0) - 1
        self.pure = len({len(f) for f in facets}) <= 1
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        self.masks = tuple(sum(map(bit.__getitem__, f)) for f in facets)

    def face(self, mask: int) -> frozenset[str]:
        """The vertex names of a mask."""
        return frozenset(map(self.vertices.__getitem__, _bits(mask)))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        """True for the one-face complex {∅}."""
        return len(self.facets) == 1 and not next(iter(self.facets))

    def faces(self) -> set[frozenset[str]]:
        """Every face, the empty set included (unless void)."""
        return {self.face(m) for size in _faces_by_size(self.masks, self.dim + 1) for m in size}

    def has_face(self, face: Iterable[str]) -> bool:
        s = frozenset(face)
        return any(s <= f for f in self.facets)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and set(self.facets) == set(
            other.facets
        )

    def __hash__(self):
        return hash(frozenset(self.facets))

    def __repr__(self):
        return f"SimplicialComplex(dim {self.dim}, {len(self.facets)} facets)"


def build_complex(facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Normalize facets (dedupe, drop faces contained in others).

    A set can only lie strictly inside a larger one, so each set is tested
    against the strictly larger sets alone; pure input does no comparisons.
    """
    by_size: dict[int, set[frozenset[str]]] = {}
    for f in facets:
        g = frozenset(str(v) for v in f)
        by_size.setdefault(len(g), set()).add(g)
    maximal: list[frozenset[str]] = []
    larger: list[frozenset[str]] = []
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        maximal.extend(f for f in group if not any(f < g for g in larger))
        larger.extend(group)
    maximal.sort(key=facet_key)
    vertices = tuple(sorted({v for f in maximal for v in f}))
    return SimplicialComplex(vertices, tuple(maximal))


def facet_key(f: Iterable[str]) -> tuple[int, list[str]]:
    """The order of ``build_complex``'s facets: by size, then by sorted names."""
    names = sorted(f)
    return len(names), names


def order_complex(p: Poset) -> SimplicialComplex:
    """Chains of p as faces. The caller strips bounds if it wants to."""
    return build_complex(maximal_chains(p))


def face_name(face: Iterable[str]) -> str:
    xs = sorted(face)
    return "+".join(xs) if xs else "0"


def face_poset(
    c: SimplicialComplex, include_empty: bool = False, graded: bool = False
) -> Poset:
    """Faces under inclusion, named by face_name from their masks (two
    faces with one name are refused with Inconsistent); a face covers its
    masks with one bit cleared. Rank ends up being cardinality
    (minus one without the empty face). Pass ``graded=True`` when a rank
    function is needed downstream; non-pure complexes may then be rejected."""
    faces = _faces_by_size(c.masks, c.dim + 1)[0 if include_empty else 1 :]
    names = _named([s for size in faces for s in size], c.vertices, "face", "vertices")
    covers = [
        (names[s ^ 1 << i], x) for s, x in names.items() for i in _bits(s) if s ^ 1 << i in names
    ]
    return build_poset(list(names.values()), covers, graded=graded)


def _named(masks: Iterable[int], parts: Sequence[str], kind: str, of: str) -> dict[int, str]:
    """Each mask named by face_name of its parts (bit i is ``parts[i]``);
    Inconsistent names the first two masks that get one name."""
    owner: dict[str, int] = {}
    for s in masks:
        x = face_name(map(parts.__getitem__, _bits(s)))
        if (g := owner.setdefault(x, s)) != s:
            a, b = ([parts[i] for i in _bits(m)] for m in (g, s))
            raise Inconsistent(
                f"{kind}s {a} and {b} are both named {x!r}: a {kind}'s name joins its {of} "
                f"with '+', and '0' names the empty {kind}"
            )
    return {s: x for x, s in owner.items()}


def _faces_by_size(masks: Iterable[int], top: int) -> list[set[int]]:
    """The submasks of ``masks`` (of at most ``top`` bits) by size 0..top,
    each size's from the masks of that size and one bit cleared one size up."""
    sizes: list[set[int]] = [set() for _ in range(top + 1)]
    for m in masks:
        sizes[m.bit_count()].add(m)
    for k in range(top, 0, -1):
        below = sizes[k - 1]
        for f in sizes[k]:
            rest = f
            while rest:
                low = rest & -rest
                below.add(f ^ low)
                rest ^= low
    return sizes


def f_h_vectors(c: SimplicialComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(f, h) with the h-vector from the standard binomial transform.

    The identity h_d = (-1)^(d+1) * reduced Euler characteristic is asserted
    on the way out; it cannot fail, it is here to catch transform bugs.
    """
    if not c.pure:
        raise NotPure("h-vector needs a pure complex")
    if c.is_void:
        raise BadParams("void complex has no h-vector")
    d = c.dim + 1
    f = [len(s) for s in _faces_by_size(c.masks, d)]  # f[i]: faces of cardinality i
    h = []
    for k in range(d + 1):
        h.append(sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1)))
    chi = sum((-1) ** (i + 1) * n for i, n in enumerate(f))  # reduced Euler characteristic
    if h[d] != (-1) ** (d + 1) * chi:
        raise SelfCheckFailed("h_d does not match the Euler characteristic")
    return tuple(f), tuple(h)


# -- shellings ----------------------------------------------------------------


@dataclass(frozen=True)
class ShellingOrder:
    """A verified shelling: facet order plus restriction faces."""

    complex: SimplicialComplex
    order: tuple[int, ...]
    restrictions: tuple[frozenset[str], ...]

    def facet_sequence(self) -> list[frozenset[str]]:
        return [self.complex.facets[i] for i in self.order]


def _shelling_step(f: Sequence[int], holders: Sequence[int], earlier: int) -> tuple[list[int], int]:
    """r(f), the vertices x of f (sorted vertex indices) with f - x inside a
    placed facet, and the placed facets holding r(f): f may come next iff
    none. Bit k of holders[v] marks that the k-th placed facet holds v, and
    ANDs start at ``earlier``, the mask of the placed facets."""
    suffix = [earlier]
    for v in reversed(f):
        suffix.append(suffix[-1] & holders[v])
    r, prefix = [], earlier
    for v, rest in zip(f, suffix[-2::-1]):  # rest: the AND over f's vertices after v
        if prefix & rest:
            r.append(v)
        prefix &= holders[v]
    common = earlier
    for v in r:
        common &= holders[v]
    return r, common


def verify_shelling(c: SimplicialComplex, order: Sequence[int]) -> ShellingOrder:
    """Check a shelling order by its restriction faces and return them.

    ``order`` is a permutation of facet indices. The restriction face
    r(F_j) collects the vertices x with F_j - x a ridge of an earlier facet
    (read from per-vertex bitsets of the earlier facets). The order is a
    shelling iff no r(F_j) with j >= 1 is a face of an earlier facet, which
    is equivalent to the pairwise criterion: for every i < j some k < j has
    F_i ∩ F_j ⊆ F_k ∩ F_j and |F_k ∩ F_j| = |F_j| - 1. On failure the
    witness is the first failing j and the first i < j whose facet contains
    r(F_j), a pair that violates the pairwise criterion.
    """
    if not c.pure:
        raise NotPure("shellings are defined here for pure complexes only")
    if c.is_void:
        raise BadParams("void complex cannot be shelled")
    if sorted(order) != list(range(len(c.facets))):
        raise BadParams("order must be a permutation of all facet indices")
    rows, holders = [list(_bits(m)) for m in c.masks], [0] * len(c.vertices)
    restrictions = []
    for j, k in enumerate(order):
        r, common = _shelling_step(rows[k], holders, (1 << j) - 1)
        if common:
            i = order[(common & -common).bit_length() - 1]
            raise NotShelling(
                f"facets {sorted(c.facets[i])} and {sorted(c.facets[k])} violate the "
                "pairwise criterion",
                i=i,
                j=k,
            )
        restrictions.append(frozenset(map(c.vertices.__getitem__, r)))
        for v in rows[k]:
            holders[v] |= 1 << j
    return ShellingOrder(c, tuple(order), tuple(restrictions))


def h_from_shelling(s: ShellingOrder) -> tuple[int, ...]:
    """Histogram of restriction-face sizes."""
    d = s.complex.dim + 1
    h = [0] * (d + 1)
    for r in s.restrictions:
        h[len(r)] += 1
    return tuple(h)


_SEARCH_CAP = 16  # facets; the search is exhaustive


def search_shelling(c: SimplicialComplex) -> Optional[ShellingOrder]:
    """Backtracking shelling search (None when there is none); refuses
    complexes with more than _SEARCH_CAP facets."""
    if not c.pure or c.is_void:
        return None
    n = len(c.facets)
    if n > _SEARCH_CAP:
        raise SizeLimit(f"shelling search capped at {_SEARCH_CAP} facets ({n} given)")
    prefix: list[int] = []
    rows = [list(_bits(m)) for m in c.masks]
    if not _extend_shelling(rows, prefix, [False] * n, [0] * len(c.vertices)):
        return None
    return verify_shelling(c, prefix)


def _extend_shelling(
    rows: Sequence[Sequence[int]], prefix: list[int], used: list[bool], holders: list[int]
) -> bool:
    """Extend the shelling ``prefix`` (facet indices, marked in ``used`` and
    in bits 0.. of ``holders``) to all of ``rows`` by backtracking, in place;
    False, with ``prefix`` as it was, when no extension exists."""
    bit = 1 << len(prefix)
    if len(prefix) == len(rows):
        return True
    for j, f in enumerate(rows):
        if used[j] or _shelling_step(f, holders, bit - 1)[1]:
            continue
        used[j] = True
        prefix.append(j)
        for v in f:
            holders[v] |= bit
        if _extend_shelling(rows, prefix, used, holders):
            return True
        for v in f:
            holders[v] ^= bit  # backtrack: clear facet j's bit
        prefix.pop()
        used[j] = False
    return False


# -- boundary, links, constructions -------------------------------------------


def boundary_complex(c: SimplicialComplex) -> SimplicialComplex:
    """Complex generated by the codimension-1 faces lying in exactly one facet."""
    if not c.pure:
        raise NotPure("boundary of a non-pure complex is not defined here")
    return build_complex(map(c.face, _boundary_ridges(c.masks)))


def _ridge_map(masks: Sequence[int]) -> dict[int, list[int]]:
    """Each ridge mask f ^ bit of a facet mask f, with the indices of its facets."""
    on_ridge: dict[int, list[int]] = {}
    for k, f in enumerate(masks):
        for i in _bits(f):
            on_ridge.setdefault(f ^ 1 << i, []).append(k)
    return on_ridge


def _boundary_ridges(masks: Sequence[int]) -> list[int]:
    """The ridge masks that lie in exactly one of the facet masks."""
    return [r for r, ids in _ridge_map(masks).items() if len(ids) == 1]


def gluing_diff(
    ear: SimplicialComplex, holders: Mapping[str, int], earlier: int
) -> list[frozenset[str]]:
    """The faces of ``ear`` in the earlier ears or in its boundary but not
    both, in build_complex's order (empty iff the ear meets the earlier ears
    exactly in its boundary). Bit k of ``holders[v]`` marks that the k-th
    facet of the earlier ears holds v, and ``earlier`` is the mask of those
    facets: a face is in the earlier ears when the AND of ``holders`` over
    it, started at ``earlier``, is non-zero, and in the boundary when inside
    a ridge that lies in one facet only."""
    hold = [holders.get(v, 0) for v in ear.vertices]
    common = {0: earlier}  # each face of the ear with its AND, by size
    for size in _faces_by_size(ear.masks, ear.dim + 1)[1:]:
        for s in size:
            low = s & -s
            common[s] = common[s ^ low] & hold[low.bit_length() - 1]
    want = set().union(*_faces_by_size(_boundary_ridges(ear.masks), ear.dim))
    have = {s for s, a in common.items() if a}
    return sorted(map(ear.face, have ^ want), key=facet_key)


def union_complexes(*cs: SimplicialComplex) -> SimplicialComplex:
    return build_complex(f for c in cs for f in c.facets)


def intersection_complexes(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Faces common to both; generated by pairwise facet intersections."""
    return build_complex({f & g for f in a.facets for g in b.facets})


# -- exact homology ------------------------------------------------------------


def _reduce(
    rows: Iterable[Mapping[int, int] | Iterable[tuple[int, int]]], cleared: Container[int]
) -> set[int]:
    """Pivot-column reduction of an integer sparse matrix; returns its pivot
    columns, one per unit of rank.

    Each row is a mapping or an iterable of (column, value) pairs; a row
    whose index is in ``cleared`` is skipped unread. A row is reduced
    against the stored pivot whose column is its largest one until that
    column is new, then stored there. The update is ``pv*row - v*pivot``, a
    signed sum when |pv| = |v|, and the row is divided by the gcd of its
    entries, so everything stays an exact integer.
    """
    pivots: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        if i in cleared:
            continue
        row = dict(row)
        while row:
            top = max(row)
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            pv, v = pivot[top], row[top]
            if pv != v and pv != -v:
                row = {k: pv * x for k, x in row.items()}
            s = -1 if pv == v else 1 if pv == -v else -v
            for k, x in pivot.items():
                y = row.pop(k, 0) + s * x
                if y:
                    row[k] = y
            g = gcd(*row.values())
            if g > 1:
                row = {k: x // g for k, x in row.items()}
    return set(pivots)


def homology_ranks(c: SimplicialComplex) -> tuple[int, ...]:
    """Reduced Betti numbers (β̃_0, …, β̃_dim) over the rationals, () for void and {∅}."""
    return _betti(c.masks, c.dim)


def _betti(masks: Iterable[int], d: int) -> tuple[int, ...]:
    """Reduced Betti numbers (β̃_0, …, β̃_d) of the complex generated by
    ``masks``, () when d = -1 (void or {∅}). The ranks depend neither on the
    bits the masks use nor on the face order: each dimension's faces are
    listed in integer order, indexing the rows of ∂_k and the columns of
    ∂_{k+1}. The boundary maps are reduced from the top down, with
    clearing: a pivot τ of a reduced ∂_{k+1} row is the largest term of a
    k-boundary, hence of a k-cycle, so row τ of ∂_k lies in the span of the
    rows before it, and skipping such rows (never building them) leaves
    rank ∂_k unchanged; ``_reduce`` keeps each pivot the largest column."""
    faces = [sorted(s) for s in _faces_by_size(masks, d + 1)]  # faces[k + 1]: the k-faces
    # ranks[k]: rank of ∂_k : C_k -> C_{k-1}, with C_{-1} the empty-face line
    ranks = [0] * (d + 2)
    cleared: Container[int] = ()
    for k in range(d, -1, -1):
        index = {f: i for i, f in enumerate(faces[k])}
        rows = (
            ((index[f ^ 1 << v], -1 if j & 1 else 1) for j, v in enumerate(_bits(f)))
            for f in faces[k + 1]
        )
        cleared = _reduce(rows, cleared)
        ranks[k] = len(cleared)
    return tuple(len(faces[k + 1]) - ranks[k] - ranks[k + 1] for k in range(d + 1))


def is_cm_and_2cm(c: SimplicialComplex) -> tuple[bool, bool]:
    """CM by link homology, and doubly CM: each vertex deletion c - v CM at
    dim c, read in c's own bits. A CM c is pure, so c - v is pure of dim c
    iff no facet f through v has its ridge f - v on the boundary (lying in
    no other facet, f - v would be a smaller facet of c - v); then the
    facets of c - v are the masks without bit v."""
    if not _is_cm(c.masks, c.dim):
        return False, False
    facets, boundary = set(c.masks), _boundary_ridges(c.masks)
    return True, all(
        not any((r | b) in facets for r in boundary)
        and _is_cm([f for f in c.masks if not f & b], c.dim)
        for b in (1 << i for i in range(len(c.vertices)))
    )


def _is_cm(masks: Sequence[int], d: int) -> bool:
    """Reisner's criterion on facet masks: nonempty, pure of dimension d
    (a lower facet's link {∅} is too small), and no link with homology
    below its top. Pure, the f ^ s for f ⊇ s are distinct of d + 1 - |s|
    bits, so they are the link's facets. Links with |s| ≥ d (points or {∅})
    cannot fail, so [:d] skips them; for {∅} itself, d = -1, it is empty."""
    if not masks or any(f.bit_count() != d + 1 for f in masks):
        return False
    for size, faces in enumerate(_faces_by_size(masks, d + 1)[:d]):
        for s in faces:
            if any(_betti([f ^ s for f in masks if f & s == s], d - size)[:-1]):
                return False
    return True


# -- sphere / ball certificates -------------------------------------------------


def _is_closed_pseudomanifold(masks: Sequence[int]) -> bool:
    """Nonempty, pure, each ridge in two facets, and ridge-connected."""
    if not masks or len({f.bit_count() for f in masks}) > 1:
        return False
    on_ridge = _ridge_map(masks)  # in dimension 0, the empty ridge of every point
    if any(len(ids) != 2 for ids in on_ridge.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        f = masks[stack.pop()]
        for i in _bits(f):
            for j in on_ridge[f ^ 1 << i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(seen) == len(masks)


def _sphere_fault(betti: tuple[int, ...], masks: Sequence[int]) -> str:
    """What fails the sphere test: closed pseudomanifold, homology (0, …, 0, 1)."""
    if betti != (0,) * (len(betti) - 1) + (1,):
        return f"homology {betti}"
    return "" if _is_closed_pseudomanifold(masks) else "not a closed pseudomanifold"


def certify_sphere_or_ball(c: SimplicialComplex, shelling: Optional[ShellingOrder]) -> str:
    """The verdict "SPHERE" or "BALL" on ``c``, else raise NotCertified.

    SPHERE: passes the sphere test (in dimension 0, two points); {∅} is
    the (-1)-sphere. BALL: acyclic, shelled by ``shelling``, and its
    boundary ridges, masks in c's bits, pass the sphere test; in dimension
    0, one point. ``shelling`` is a ShellingOrder of ``c`` from
    ``verify_shelling`` (not checked again), or None when none is known,
    which refuses a ball of positive dimension; no shelling is searched
    for. Ambient polytopality of reference spheres is an assumption of the
    callers, not something this code proves.
    """
    if shelling is not None and shelling.complex != c:
        raise BadParams("the shelling is of another complex")
    if c.is_void:
        raise NotCertified("void complex")
    if c.is_irrelevant:
        return "SPHERE"
    if not c.pure:
        raise NotCertified("not pure")
    betti = homology_ranks(c)
    if not _sphere_fault(betti, c.masks):
        return "SPHERE"
    if any(betti):
        raise NotCertified(f"homology {betti} fits neither sphere nor ball")
    if c.dim == 0:  # acyclic points: one point
        return "BALL"
    if shelling is None:
        raise NotCertified("no shelling given")
    bd = _boundary_ridges(c.masks)
    if not bd:
        raise NotCertified("acyclic closed complex is not a ball")
    if fault := _sphere_fault(_betti(bd, c.dim - 1), bd):
        raise NotCertified(f"boundary is not a sphere: {fault}")
    return "BALL"


# -- serialization ---------------------------------------------------------------


def complex_to_json(c: SimplicialComplex) -> dict:
    return {
        "schema": "earlab.complex/1",
        "vertices": list(c.vertices),
        "facets": [sorted(f) for f in c.facets],
    }


def complex_from_json(data: Mapping) -> SimplicialComplex:
    try:
        facets = data["facets"]
        declared = data.get("vertices", [])
    except (KeyError, TypeError) as exc:
        raise BadParams(f"malformed complex JSON: {exc}") from exc
    arrays = [declared, *facets] if isinstance(facets, list) else [facets]
    if not all(isinstance(a, list) and all(isinstance(v, str) for v in a) for a in arrays):
        raise BadParams("malformed complex JSON: vertices and each facet must be arrays of strings")
    c = build_complex(facets)
    if declared and set(declared) != set(c.vertices):
        extra = sorted(set(declared) - set(c.vertices))
        missing = sorted(set(c.vertices) - set(declared))
        raise Inconsistent(
            f"vertex list disagrees with facets (unused {extra}, undeclared {missing})"
        )
    return c
