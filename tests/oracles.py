"""Reference routes that the tests diff the package against.

Each is the plain definition of something the package computes by another
route, or decides through a check that raises; no caller of the package
needs them, so they live with the tests:

* ``exact_rank``: the rank of a sparse integer matrix by ``_reduce``, the
  pivot-column reduction that ``homology_ranks`` runs with clearing;
* ``reduced_euler``: the alternating face count;
* ``flag_h_from_descents``, ``h_from_flag_h`` and
  ``flag_f_from_complex_fvector``: flag vectors by descent sets, by
  summing over rank sets of one size, and from the f-vector alone;
* ``flag_h_by_inclusion_exclusion``: each flag h entry as its own
  signed sum over the subsets of S, the route ``flags._subset_transform``
  replaced;
* ``face_poset_below_facets`` and ``face_poset_flags_by_chains``: a
  complex's face poset built, its ranks below the facets selected and
  bounded, and its flag vectors by the chain DP of ``flag_f_and_h``, and
  ``corollary_gap_coefficients_by_expansion``: the gap coefficients with
  both flag h's expanded by hand into products of binomials, the two
  routes ``flags.face_poset_flags`` replaced;
* ``inversion_mask`` and ``weak_leq``: a permutation's inversion set as
  a bitmask, and the weak order by inversion-set containment;
* ``class_masks_per_permutation``, ``dominance_table_all_pairs`` and
  ``flag_f_per_subset``: the inversion masks and inversion bits of each
  descent class by ``inversion_mask`` and by reading each permutation,
  member by member, the dominance table by deciding every ordered pair
  with each D_T in class order through ``match_by_augmenting``, and each
  flag f entry counted from the bottom rank on its own, with ``leq_i`` on
  every pair of consecutive selected layers;
* ``match_by_augmenting``: the left-covering matching on candidate
  bitsets by Kuhn's augmenting search from every left vertex in turn,
  with no greedy pass first, the route ``flags._match`` replaced;
* ``join_table`` and ``meet_table``: every pair's join and meet by
  up-mask and down-mask lookup, the two tables ``Lattice`` once built;
* ``is_distributive`` and ``is_mchain``: the brute-force lattice
  properties, as booleans;
* ``is_geometric``: graded, every element the join of the atoms below it,
  and rank submodular on every pair;
* ``is_subcomplex``: every facet of one complex is a face of the other;
* ``faces_by_subsets``, ``boundary_by_name_sets`` and
  ``closed_pseudomanifold_by_name_sets``: faces, boundary and the closed
  pseudomanifold test on frozensets of names (``subfaces`` and ``ridges``
  are their helpers), the routes the mask kernels replaced;
* ``certify_by_boundary_complex``: the sphere/ball certificate that built a
  ball's ``boundary_complex`` and certified it by a recursive call, the
  route that certifying the boundary ridges in the ball's own bits replaced;
* ``face_poset_by_name_sets`` and ``cm_and_2cm_by_name_sets``: the face
  poset with covers found by removing each name from each face, and the
  CM and doubly-CM checks walking every face as a sorted name set through
  ``link_of`` (each link as a complex of its own) and every vertex
  deletion through ``deletion`` (each c - v rebuilt by ``build_complex``),
  the routes the mask kernels replaced;
* ``shelling_by_face_sets`` and ``search_by_face_sets``: the shelling
  check and the backtracking search with every face and ridge of the
  placed facets in hash sets (``shelling_step_by_face_sets``), and
  ``gluing_witnesses_by_face_sets``: the gluing axiom of ``verify_ced``
  against one running face set of the earlier ears;
* ``sigma_word`` and ``class_map_by_classifier``: the class word of a
  selected flag read off its gap-filled label word (the lex-least word of
  the descent class whose sphere holds the flag), and the class map by
  classifying every selected flag and sorting each class by reverse lex
  order of its frame words (``_fill_word``, ``_frame_of``, ``_frame_word``
  and ``_selected_flags`` are its helpers);
* ``ear_coords`` and ``switch_closure_violations``: an ear's chains in
  copy coordinates, and the chains whose ascent switches leave their ear;
* ``ambient_by_permutations``: an ear's reference sphere by walking the
  permutations of each interval's pool in host names, per copy and frame;
* ``coordinate_sphere_by_names``: K, the coordinate sphere of a rank set,
  built as a complex over named coordinate sets, with each vertex's set,
  the route that listing K's masks straight from ``_sphere`` replaced;
* ``polytope_entries_by_ambients``: the polytope axiom of ``verify_ced``
  per ear, by building each ear's reference sphere with
  ``ambient_by_permutations``, certifying it on its own (``certified_kind``)
  and comparing the ear with it by ``is_subcomplex`` and facet sets;
* ``ced_axioms_certifying_each_ear``: the kinds, polytope entries and
  gluing witnesses of ``verify_ced`` with every ear certified on its own,
  not once per pulled-back ear, K built by name and certified too, and the
  witnesses by running face sets;
* ``_concatenated_histogram``: h(Δ) as the restriction histogram of the
  whole complex shelled in the concatenated ear order, where that order
  shells it (None elsewhere), against which ``verify_ced``'s ear sum is
  diffed;
* ``partition_problems``: whether the ears partition the maximal chains
  of the selected poset, by a set of every chain placed so far and the
  set of every maximal chain, against which ``verify_ced``'s
  ``axiom_union`` and ``chain_partition`` are diffed;
* ``union_and_partition_by_listing``: those two sections themselves, with
  Δ listed by ``order_complex`` and compared facet by facet, the route that
  counting Δ's facets in flag f replaced;
* ``reciprocity_by_polynomials``: the flag reciprocity identity as two
  polynomials in ν_i, expanded term by term (``_poly_add_term``) from the
  name sets of the ear's faces and of its ``boundary_complex``, compared
  coefficient by coefficient;
* ``reciprocity_rows_per_ear``: the rows of ``verify --what reciprocity``
  with a check run on every ear, which lets a test read a refused coloring
  as a failure;
* ``pulled_back_name_keys``: each ear's facets pulled back into K as sets
  of K's vertex names, against which the mask keys of ``verify_ced``'s
  certificate memo are diffed;
* ``subset_novelty_scan``: a chain is new when no earlier copy's name set
  contains it, by scanning every earlier copy;
* ``restriction_novelty``: the face-poset rule, a chain of shelling step j
  is new when its top face contains the step's restriction face, read in
  the copy's coordinates, against which the one novelty rule of
  ``_assemble`` is diffed on face posets;
* ``macaulay_pseudopower_by_scan``: a^<i> with each n of the greedy
  binomial representation found by a linear scan, the route the bisection
  replaced;
* ``graphic_matroid_by_all_sizes``: the bases of a cycle matroid as the
  acyclic edge sets of the largest size that has any, trying every size
  from the number of edges down;
* ``saturated_chains_between``: every saturated chain of one interval;
* ``chains_by_filter``: the increasing and decreasing chains of an
  interval by listing all its saturated chains and filtering their words;
* ``el_by_intervals``: ``verify_el`` by listing the saturated chains of
  each interval separately and comparing their words;
* ``first_zero_mobius``: the first comparable pair in index order with
  μ = 0, by the Mobius recursion on every pair;
* ``sr_by_maximal_chains``: the S_r condition by reading the word of
  every maximal chain;
* ``induced_subposet_by_names``: the induced subposet from a ``leq`` test
  by name on every pair of kept elements;
* ``supersolvable_copies_by_closure``: each Boolean copy of a
  supersolvable lattice as the closure of the increasing and a decreasing
  chain under join and meet, coordinatized by a walk over label sets;
* ``geometric_bases_by_joins``: the nbc bases of the simple matroid
  rebuilt from a geometric lattice by testing every rank-sized set of
  atoms for a join at the top.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

from earlab.complexes import (
    ShellingOrder,
    SimplicialComplex,
    _reduce,
    boundary_complex,
    build_complex,
    certify_sphere_or_ball,
    face_name,
    face_poset,
    facet_key,
    h_from_shelling,
    homology_ranks,
    order_complex,
    search_shelling,
    verify_shelling,
)
from earlab.decompositions import (
    Ear,
    EarDecomposition,
    _pulled_back,
    _sphere,
    intervals_of,
)
from earlab.errors import (
    BadParams,
    EarlabError,
    EmptySelection,
    NotCertified,
    NotComparable,
    NotGraded,
    Inconsistent,
    LabelingInvalid,
    LengthMismatch,
    MobiusMismatch,
    NotBall,
    NotMChain,
    NotShelling,
    RangeError,
)
from earlab.flags import (
    FlagVector,
    ball_flag_reciprocity,
    descent_classes,
    flag_f_and_h,
)
from earlab.labelings import EdgeLabeling, descent_set
from earlab.lattices import (
    Lattice,
    _distributive_on,
    check_mchain,
    closure_under_ops,
)
from earlab.matroids import Matroid, build_matroid, nbc_bases
from earlab.posets import (
    Poset,
    _bits,
    _chain_extensions,
    build_poset,
    maximal_chains,
    mobius,
    rank_select,
    with_bounds,
)


def exact_rank(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of an integer sparse matrix given by rows."""
    return len(_reduce(rows, ()))


def reduced_euler(c: SimplicialComplex) -> int:
    """Σ over faces F, the empty one included, of (-1)^dim F; 0 if void."""
    return sum((-1) ** (len(f) + 1) for f in faces_by_subsets(c))


def flag_h_from_descents(p: Poset, lab: EdgeLabeling) -> FlagVector:
    """Histogram of descent sets of maximal-chain label words."""
    if not (p.graded and p.bounded):
        raise BadParams("need a graded bounded poset")
    rho = p.rank_of(p.top)
    entries: dict[frozenset[int], int] = {
        frozenset(S): 0 for k in range(rho) for S in combinations(range(1, rho), k)
    }
    for c in maximal_chains(p):
        S = descent_set(lab.word(c))
        entries[S] = entries.get(S, 0) + 1
    return FlagVector(rho, entries)


def flag_h_by_inclusion_exclusion(
    f: Mapping[frozenset[int], int], n: int
) -> dict[frozenset[int], int]:
    """Flag h from flag f on the subsets S of [n], by inclusion-exclusion:
    h_S = Σ over T ⊆ S of (-1)^|S - T| f_T, a missing f_T counting 0."""
    return {
        frozenset(S): sum(
            (-1) ** (len(S) - j) * f.get(frozenset(T), 0)
            for j in range(len(S) + 1)
            for T in combinations(S, j)
        )
        for k in range(n + 1)
        for S in combinations(range(1, n + 1), k)
    }


def h_from_flag_h(fh: FlagVector) -> tuple[int, ...]:
    """h_i = Σ over |S| = i of h_S."""
    h = [0] * fh.rho
    for S, v in fh.entries.items():
        h[len(S)] += v
    return tuple(h)


def flag_f_from_complex_fvector(fK: Sequence[int], S: Iterable[int]) -> int:
    """Chains in the face poset with ranks S, from the f-vector alone:
    b_1 = f_{a_1}; b_i = b_{i-1} * C(a_{i-1}, a_i) along S written as a
    decreasing word."""
    word = sorted(set(S), reverse=True)
    if not word:
        return 1
    if word[0] >= len(fK) or word[-1] < 1:
        raise RangeError(f"ranks {word} out of range for f-vector of length {len(fK)}")
    b = fK[word[0]]
    for prev, cur in zip(word, word[1:]):
        b *= comb(prev, cur)
    return b


def face_poset_below_facets(c: SimplicialComplex) -> Poset:
    """The graded bounded poset whose flag vectors the dominance suite
    checks for a complex: proper face ranks only, with the facet rank
    dropped; ``with_bounds`` refuses a facet below rank d - 1 as
    ungraded."""
    d = c.dim + 1
    if d < 2:
        raise BadParams("the complex has no proper face ranks below the facets")
    fp = face_poset(c, include_empty=True, graded=True)
    return with_bounds(rank_select(fp, range(1, d)))


def face_poset_flags_by_chains(c: SimplicialComplex) -> tuple[FlagVector, FlagVector]:
    """Flag f and h of ``face_poset_below_facets(c)`` by chain counts."""
    return flag_f_and_h(face_poset_below_facets(c))


def corollary_gap_coefficients_by_expansion(
    S: Iterable[int], T: Iterable[int], d: int
) -> tuple[int, ...]:
    """``corollary_gap_coefficients`` for S, T ⊆ [1, d - 1]: expand both
    flag h's into flag f's, collapse each flag f to a multiple of one
    f-entry of K via the product rule, then convert f-entries to h-entries
    by the triangular binomial transform."""
    Sf, Tf = frozenset(S), frozenset(T)
    if any(not 1 <= i <= d - 1 for i in Sf | Tf):
        raise BadParams(f"rank sets must lie in [1, {d - 1}]")
    gamma: dict[int, int] = {}

    def add_flag_h(R: frozenset[int], sign: int) -> None:
        rl = sorted(R)
        for k in range(len(rl) + 1):
            for U in combinations(rl, k):
                s = sign * (-1) ** (len(R) - len(U))
                if not U:
                    gamma[0] = gamma.get(0, 0) + s
                    continue
                word = sorted(U, reverse=True)
                c = 1
                for prev, cur in zip(word, word[1:]):
                    c *= comb(prev, cur)
                top = word[0]
                gamma[top] = gamma.get(top, 0) + s * c

    add_flag_h(Sf, +1)
    add_flag_h(Tf, -1)
    dprime = d + 1  # K has h_0..h_{d+1}
    a = []
    for i in range(dprime + 1):
        a.append(
            sum(
                g * comb(dprime - i, k - i)
                for k, g in gamma.items()
                if 0 <= k - i <= dprime - i
            )
        )
    return tuple(a)


def inversion_mask(perm: Sequence[int]) -> int:
    """Bitmask over value pairs (a, b), a < b, set when a appears after b.

    Pair (a, b) owns bit (a - 1) * m + b - 1, so masks of one length m
    compare by containment.
    """
    m = len(perm)
    pos = {v: i for i, v in enumerate(perm)}
    if len(pos) != m or set(pos) != set(range(1, m + 1)):
        raise BadParams(f"{perm!r} is not a permutation of 1..{m}")
    mask = 0
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            if pos[a] > pos[b]:
                mask |= 1 << ((a - 1) * m + b - 1)
    return mask


def weak_leq(sigma: Sequence[int], tau: Sequence[int]) -> bool:
    """σ ≤ τ in the weak order, by inversion-set containment."""
    if len(sigma) != len(tau):
        raise LengthMismatch("permutations must have the same length")
    a, b = inversion_mask(sigma), inversion_mask(tau)
    return a & ~b == 0


def class_masks_per_permutation(m: int) -> dict:
    """``flags._class_masks``: each member's mask by ``inversion_mask``, each
    bit's bitset filled member by member, and each member's inversion bits
    read off the permutation, position by position and, for each, the
    smaller values to its right lowest first."""
    out = {}
    for S, perms in descent_classes(m).items():
        masks = tuple(inversion_mask(perm) for perm in perms)
        having = [0] * (m * m)
        for j, mask in enumerate(masks):
            for k in _bits(mask):
                having[k] |= 1 << j
        invs = tuple(
            bytes(
                (a - 1) * m + b - 1
                for i, b in enumerate(perm)
                for a in sorted(perm[i + 1 :])
                if a < b
            )
            for perm in perms
        )
        out[S] = (masks, tuple(having), invs)
    return out


def dominance_table_all_pairs(m: int) -> frozenset:
    """``flags.dominance_table`` deciding every ordered pair (S, T) on its
    own, each D_T in class order, on the masks of
    ``class_masks_per_permutation``: τ's candidates are the members of D_S
    holding every inversion of τ, matched by ``match_by_augmenting``."""
    classes = class_masks_per_permutation(m)
    table = set()
    for T, (masks, _, _) in classes.items():
        for S, (right, having, _) in classes.items():
            if S != T and len(masks) <= len(right):
                cands = []
                for mask in masks:
                    cand = (1 << len(right)) - 1
                    for k in _bits(mask):
                        cand &= having[k]
                    if not cand:
                        break
                    cands.append(cand)
                else:
                    if match_by_augmenting(cands) is not None:
                        table.add((S, T))
        table.add((T, T))
    return frozenset(table)


def match_by_augmenting(cands: Sequence[int]) -> Optional[list[int]]:
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


def flag_f_per_subset(p: Poset) -> dict[frozenset[int], int]:
    """The flag f entries of ``flags.flag_f_and_h``, each S counted layer
    by layer from the bottom with ``leq_i``."""
    rho = p.rank_of(p.top)
    layers: dict[int, list[int]] = {}
    for i, r in enumerate(p.ranks):
        layers.setdefault(r, []).append(i)
    f_entries: dict[frozenset[int], int] = {}
    for k in range(0, rho):
        for S in combinations(range(1, rho), k):
            counts = {p._bottom: 1}
            for s in S:
                nxt: dict[int, int] = {}
                for j in layers.get(s, []):
                    total = 0
                    for i, c in counts.items():
                        if p.leq_i(i, j):
                            total += c
                    if total:
                        nxt[j] = total
                counts = nxt
                if not counts:
                    break
            f_entries[frozenset(S)] = sum(counts.values())
    return f_entries


def _mask_table(masks: Sequence[int]) -> list[list[Optional[int]]]:
    """table[i][j] = the k with masks[k] == masks[i] & masks[j], or None."""
    owner = {mask: k for k, mask in enumerate(masks)}
    return [[owner.get(mi & mj) for mj in masks] for mi in masks]


def join_table(p: Poset) -> list[list[Optional[int]]]:
    """The join of every pair, None where the upper bounds have no least
    element."""
    return _mask_table([p.up_mask(i) for i in range(p.n)])


def meet_table(p: Poset) -> list[list[Optional[int]]]:
    """The meet of every pair, None where the lower bounds have no
    greatest element."""
    return _mask_table([p.down_mask(i) for i in range(p.n)])


def is_distributive(lat: Lattice) -> bool:
    """Brute-force distributivity over all triples."""
    return _distributive_on(lat, lat.poset.elements) is None


def is_mchain(lat: Lattice, chain: Sequence[str]) -> bool:
    """The M-chain definition, ``lattices.check_mchain``, as a boolean."""
    try:
        check_mchain(lat, chain)
    except NotMChain:
        return False
    return True


def is_geometric(lat: Lattice) -> bool:
    """Graded, each element the join of the atoms below it, and
    r(x) + r(y) >= r(x ∨ y) + r(x ∧ y) on every pair."""
    p = lat.poset
    if not p.graded:
        return False
    atoms = [p.index(a) for a in lat.atoms()]
    if any(lat.join_of(p.elements[a] for a in atoms if p.leq_i(a, i)) != x
           for i, x in enumerate(p.elements)):
        return False
    r = p.ranks
    return all(r[i] + r[j] >= r[lat.join_i(i, j)] + r[lat.meet_i(i, j)]
               for i, j in combinations(range(p.n), 2))


def is_subcomplex(small: SimplicialComplex, big: SimplicialComplex) -> bool:
    """Every facet of ``small`` is a face of ``big``. A facet of ``big`` is
    found by one set lookup; only the others are scanned by ``has_face``."""
    tops = set(big.facets)
    return all(f in tops or big.has_face(f) for f in small.facets)


def subfaces(f: frozenset[str]) -> list[frozenset[str]]:
    """Every subset of f, by combinations of its sorted names."""
    fl = sorted(f)
    return [frozenset(c) for k in range(len(fl) + 1) for c in combinations(fl, k)]


def ridges(f: frozenset[str]) -> list[frozenset[str]]:
    return [f - {v} for v in f]


def faces_by_subsets(c: SimplicialComplex) -> set[frozenset[str]]:
    """Every face of c as a set of names: the subsets of each facet."""
    return {g for f in c.facets for g in subfaces(f)}


def boundary_by_name_sets(c: SimplicialComplex) -> SimplicialComplex:
    """The complex of the ridges, as name sets, that lie in exactly one facet."""
    counts: dict[frozenset[str], int] = {}
    for f in c.facets:
        for r in ridges(f):
            counts[r] = counts.get(r, 0) + 1
    once = [r for r, k in counts.items() if k == 1]
    return build_complex(once) if once else SimplicialComplex((), ())


def closed_pseudomanifold_by_name_sets(c: SimplicialComplex) -> bool:
    """Pure, every ridge (a name set) in exactly two facets, and the facets
    connected through ridges; two points in dimension 0."""
    if c.is_void or not c.pure:
        return False
    if c.dim == 0:
        return len(c.facets) == 2
    on_ridge: dict[frozenset[str], list[int]] = {}
    for i, f in enumerate(c.facets):
        for r in ridges(f):
            on_ridge.setdefault(r, []).append(i)
    if any(len(ids) != 2 for ids in on_ridge.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        for r in ridges(c.facets[stack.pop()]):
            for j in on_ridge[r]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(seen) == len(c.facets)


def certify_by_boundary_complex(c: SimplicialComplex) -> str:
    """The kind of sphere or ball that c certifies as, raising NotCertified
    as ``certify_sphere_or_ball`` does: the boundary of an acyclic shellable
    c is built as a complex of its own and must certify as a SPHERE here."""
    if c.is_void:
        raise NotCertified("void complex")
    if c.is_irrelevant:
        return "SPHERE"
    if not c.pure:
        raise NotCertified("not pure")
    betti = homology_ranks(c)
    if betti == tuple([0] * c.dim + [1]) and closed_pseudomanifold_by_name_sets(c):
        return "SPHERE"
    if any(betti):
        raise NotCertified(f"homology {betti} fits neither sphere nor ball")
    if c.dim == 0:
        if len(c.facets) == 1:
            return "BALL"
        raise NotCertified("several points form neither a sphere nor a ball")
    if search_shelling(c) is None:
        raise NotCertified("no shelling found")
    bd = boundary_complex(c)
    if bd.is_void:
        raise NotCertified("acyclic closed complex is not a ball")
    if certify_by_boundary_complex(bd) != "SPHERE":
        raise NotCertified("boundary did not certify as a sphere")
    return "BALL"


def face_poset_by_name_sets(
    c: SimplicialComplex, include_empty: bool = False, graded: bool = False
) -> Poset:
    """Faces as name sets under inclusion, each covering its faces with one
    name removed."""
    faces = c.faces()
    if not include_empty:
        faces = {f for f in faces if f}
    names = {f: face_name(f) for f in faces}
    covers = []
    for f in faces:
        for v in sorted(f):
            sub = f - {v}
            if sub in names:
                covers.append((names[sub], names[f]))
    return build_poset(list(names.values()), covers, graded=graded)


def link_of(c: SimplicialComplex, face: Iterable[str]) -> SimplicialComplex:
    """The link of ``face``: the facets holding it, with it removed."""
    s = frozenset(face)
    facets = [f - s for f in c.facets if s <= f]
    if not facets:
        return SimplicialComplex((), ())
    return build_complex(facets)


def deletion(c: SimplicialComplex, vertex: str) -> SimplicialComplex:
    """c - v: the faces of c without ``vertex``, as a complex of its own."""
    return build_complex([f - {vertex} for f in c.facets])


def is_cm_by_name_sets(c: SimplicialComplex) -> bool:
    """Every link, of the faces as sorted name sets, has the right dimension
    and no reduced homology below its top."""
    if c.is_void:
        return False
    if c.is_irrelevant:
        return True
    for f in sorted(c.faces(), key=lambda f: (len(f), sorted(f))):
        lk = link_of(c, f)
        if lk.is_void:
            continue
        h = homology_ranks(lk)
        for i in range(len(h) - 1):
            if h[i] != 0:
                return False
        if lk.dim != c.dim - len(f):
            return False
    return True


def cm_and_2cm_by_name_sets(c: SimplicialComplex) -> tuple[bool, bool]:
    """CM, and CM with every vertex deletion CM of the same dimension."""
    if not is_cm_by_name_sets(c):
        return False, False
    return True, all(
        not dv.is_void and dv.dim == c.dim and is_cm_by_name_sets(dv)
        for dv in (deletion(c, v) for v in c.vertices)
    )


def shelling_step_by_face_sets(
    f: frozenset[str], earlier_ridges: set[frozenset[str]], earlier_faces: set[frozenset[str]]
) -> tuple[frozenset[str], bool]:
    """r(f) from the ridges of the earlier facets, and whether f may come
    next: r(f) is not a face of an earlier facet."""
    r = frozenset(x for x in f if f - {x} in earlier_ridges)
    return r, r not in earlier_faces


def shelling_by_face_sets(c: SimplicialComplex, order: Sequence[int]) -> tuple[frozenset[str], ...]:
    """The restriction faces of ``order`` with every face and ridge of the
    placed facets kept in hash sets; NotShelling(i, j) with the first
    failing j and the first i < j whose facet contains r(F_j)."""
    seq = [c.facets[i] for i in order]
    earlier_ridges: set[frozenset[str]] = set()
    earlier_faces: set[frozenset[str]] = set()
    restrictions = []
    for j, fj in enumerate(seq):
        r, ok = shelling_step_by_face_sets(fj, earlier_ridges, earlier_faces)
        if not ok:
            i = next(i for i in range(j) if r <= seq[i])
            raise NotShelling("pairwise criterion", i=order[i], j=order[j])
        restrictions.append(r)
        earlier_ridges.update(ridges(fj))
        earlier_faces.update(subfaces(fj))
    return tuple(restrictions)


def search_by_face_sets(c: SimplicialComplex) -> Optional[list[int]]:
    """The first shelling order that backtracking over facet indices finds,
    with the earlier faces and ridges as hash sets; None when there is none."""
    def extend(prefix: list[int], ridge_set: set, face_set: set) -> bool:
        if len(prefix) == len(c.facets):
            return True
        for j, f in enumerate(c.facets):
            if j in prefix or not shelling_step_by_face_sets(f, ridge_set, face_set)[1]:
                continue
            prefix.append(j)
            if extend(prefix, ridge_set.union(ridges(f)), face_set.union(subfaces(f))):
                return True
            prefix.pop()
        return False

    prefix: list[int] = []
    return prefix if extend(prefix, set(), set()) else None


def gluing_witnesses_by_face_sets(ears: Sequence[Ear]) -> list[dict]:
    """``axiom_boundary.witnesses`` of ``verify_ced`` with every face of the
    earlier ears kept in one running set, and each later ear's boundary
    built by ``boundary_by_name_sets``."""
    witnesses = []
    running: set[frozenset[str]] = set()
    for i, ear in enumerate(ears):
        ear_faces = faces_by_subsets(ear.complex)
        if i:
            have = ear_faces & running
            want = faces_by_subsets(boundary_by_name_sets(ear.complex))
            if have != want:
                diff = sorted(have ^ want, key=lambda f: (len(f), sorted(f)))
                witnesses.append({"ear": i + 1, "faces": [sorted(f) for f in diff[:3]]})
        running |= ear_faces
    return witnesses


def _fill_word(chain: Sequence[frozenset[int]], ranks: Sequence[int], rho: int) -> list[int]:
    """Label word of the chain completed by ascending fills in every gap.

    ``chain`` holds one subset of [rho] per selected rank; the unique
    completion with increasing labels adds the missing elements of each gap
    in ascending order, so the word can be read off without building the
    intermediate sets.
    """
    word: list[int] = []
    prev: frozenset[int] = frozenset()
    full = frozenset(range(1, rho + 1))
    for s, xs in zip(ranks, chain):
        if len(xs) != s or not prev <= xs:
            raise BadParams("chain is not a flag over the selected ranks")
        word.extend(sorted(xs - prev))
        prev = xs
    word.extend(sorted(full - prev))
    if len(word) != rho:
        raise BadParams("chain does not live inside [rho]")
    return word


def sigma_word(
    chain: Sequence[Iterable[int]], ranks: Iterable[int], rho: int
) -> tuple[int, ...]:
    """Classifying permutation of a selected chain in a B_rho copy.

    The gap-filled word is cut into runs: ascending runs over the filled
    stretches, descending runs across each interval of the selected ranks
    (two letters for a singleton interval). The result always has descent
    set exactly the selected ranks, and is the lex-least classifier whose
    frame is compatible with the chain.
    """
    sel = sorted(set(int(s) for s in ranks))
    if not sel:
        raise EmptySelection("no ranks selected")
    sets = [frozenset(x) for x in chain]
    w = _fill_word(sets, sel, rho)
    word: list[int] = []
    pos = 1  # next unconsumed step, 1-based
    for a, b in intervals_of(sel):
        word.extend(sorted(w[pos - 1 : a - 1]))
        word.extend(sorted(w[a - 1 : b + 1], reverse=True))
        pos = b + 2
    word.extend(sorted(w[pos - 1 : rho]))
    got = descent_set(word)
    if got != frozenset(sel):
        raise Inconsistent(
            f"classifier {word} has descents {sorted(got)}, wanted {sel}"
        )
    return tuple(word)


def _frame_of(word: Sequence[int], ranks: Sequence[int], rho: int) -> dict[int, frozenset[int]]:
    """Fixed flag elements at the non-selected ranks of a classifier word."""
    fixed = {0: frozenset()}
    acc: set[int] = set()
    for k, letter in enumerate(word, start=1):
        acc.add(letter)
        if k not in ranks:
            fixed[k] = frozenset(acc)
    return fixed


def _frame_word(
    chain: Sequence[frozenset[int]],
    ranks: Sequence[int],
    intervals: Sequence[tuple[int, int]],
    frame: dict[int, frozenset[int]],
) -> tuple[int, ...]:
    """Shelling key: concatenated labels through each interval, including
    the edges down from and up to the frame."""
    by_rank = dict(zip(ranks, chain))
    word: list[int] = []
    for a, b in intervals:
        seq = [frame[a - 1]] + [by_rank[s] for s in range(a, b + 1)] + [frame[b + 1]]
        for lo, hi in zip(seq, seq[1:]):
            diff = hi - lo
            if len(diff) != 1:
                raise Inconsistent("chain is incompatible with its frame")
            word.append(next(iter(diff)))
    return tuple(word)


def _selected_flags(rho: int, ranks: Sequence[int]) -> list[tuple[frozenset[int], ...]]:
    """All flags of subsets of [rho] with sizes equal to the selected ranks."""
    out: list[tuple[frozenset[int], ...]] = []
    _flag_extensions(frozenset(range(1, rho + 1)), ranks, frozenset(), [], out)
    return out


def _flag_extensions(
    universe: frozenset[int],
    ranks: Sequence[int],
    prev: frozenset[int],
    acc: list[frozenset[int]],
    out: list[tuple[frozenset[int], ...]],
) -> None:
    """Append to ``out`` every flag that extends ``acc``, whose last set is
    ``prev``, through the selected ranks still to come."""
    idx = len(acc)
    if idx == len(ranks):
        out.append(tuple(acc))
        return
    for extra in combinations(sorted(universe - prev), ranks[idx] - len(prev)):
        nxt = prev | frozenset(extra)
        acc.append(nxt)
        _flag_extensions(universe, ranks, nxt, acc, out)
        acc.pop()


def class_map_by_classifier(
    rho: int, ranks: Sequence[int]
) -> dict[tuple[int, ...], list[tuple[frozenset[int], ...]]]:
    """The class map of ``_assemble`` by classifying every selected flag with
    ``sigma_word``, words in lex order, and sorting each class by reverse lex
    order of its frame words."""
    ivs = intervals_of(ranks)
    class_map: dict[tuple[int, ...], list[tuple[frozenset[int], ...]]] = {}
    for fl in _selected_flags(rho, ranks):
        class_map.setdefault(sigma_word(fl, ranks, rho), []).append(fl)
    for word, flags in class_map.items():
        frame = _frame_of(word, ranks, rho)
        flags.sort(key=lambda fl: _frame_word(fl, ranks, ivs, frame), reverse=True)
    return dict(sorted(class_map.items()))


def ear_coords(ear: Ear) -> list[tuple[frozenset[int], ...]]:
    """Each chain of the ear as its flag of copy coordinates, through the
    inverse of ``coord_names``, which a copy keeps injective."""
    coord = {name: a for a, name in ear.coord_names.items()}
    return [tuple(coord[x] for x in names) for names in ear.chains]


def switch_closure_violations(dec: EarDecomposition) -> list[dict]:
    """Chains whose ascent switches leave their ear (empty on sound output).

    A switch replaces the element at a selected rank by the other middle
    element of the surrounding two-element open interval, which turns one
    ascent of the gap-filled word into a descent.
    """
    violations = []
    for ei, ear in enumerate(dec.ears):
        chain_set = set(ear.chains)
        for fl, names in zip(ear_coords(ear), ear.chains):
            w = _fill_word(fl, dec.ranks, dec.rho)
            by_rank = dict(zip(dec.ranks, fl))
            for m in dec.ranks:
                if w[m - 1] >= w[m]:
                    continue
                swapped = (by_rank[m] - {w[m - 1]}) | {w[m]}
                new_fl = tuple(swapped if s == m else by_rank[s] for s in dec.ranks)
                new_names = tuple(ear.coord_names[x] for x in new_fl)
                if new_names not in chain_set:
                    violations.append(
                        {"ear": ei + 1, "chain": list(names), "rank": m, "switched": list(new_names)}
                    )
    return violations


def ambient_by_permutations(
    copy_elem: dict[frozenset[int], str],
    intervals: Sequence[tuple[int, int]],
    frame: dict[int, frozenset[int]],
) -> SimplicialComplex:
    """Join of the open-interval complexes between frame elements, each the
    full barycentric subdivision of a simplex boundary, in host names."""
    per_interval: list[list[tuple[str, ...]]] = []
    for a, b in intervals:
        lo, hi = frame[a - 1], frame[b + 1]
        chains: set[tuple[str, ...]] = set()
        for perm in permutations(sorted(hi - lo)):
            acc = set(lo)
            names = []
            for k in range(b - a + 1):
                acc.add(perm[k])
                names.append(copy_elem[frozenset(acc)])
            chains.add(tuple(names))
        per_interval.append(sorted(chains))
    facets: list[tuple[str, ...]] = [()]
    for chains in per_interval:
        facets = [f + c for f in facets for c in chains]
    return build_complex(facets)


def coordinate_sphere_by_names(
    ranks: Sequence[int],
) -> tuple[SimplicialComplex, list[frozenset[int]]]:
    """K built as a complex, its vertices named by their coordinate sets,
    with each vertex's set in K's vertex order (the i-th set is bit i of
    K's masks)."""
    flags = _sphere(range(1, ranks[-1] + 2), ranks)
    name = {a: "+".join(map(str, sorted(a))) for a in {a for fl in flags for a in fl}}
    sphere = build_complex([tuple(name[a] for a in fl) for fl in flags])
    coord = {v: a for a, v in name.items()}
    return sphere, [coord[v] for v in sphere.vertices]


def certified_kind(c: SimplicialComplex, shelling: Optional[ShellingOrder] = None) -> str:
    """The verdict ``certify_sphere_or_ball`` gives with ``shelling`` (none
    when not given, which only a sphere needs); "UNCERTIFIED(reason)" when
    it refuses."""
    try:
        return certify_sphere_or_ball(c, shelling)
    except EarlabError as exc:
        return f"UNCERTIFIED({exc})"


def reference_sphere(dec: EarDecomposition, index: int) -> SimplicialComplex:
    """Ear ``index``'s reference sphere by ``ambient_by_permutations``, from
    its copy and the frame of its class word."""
    ear = dec.ears[index]
    frame = _frame_of(ear.provenance["class_word"], dec.ranks, dec.rho)
    return ambient_by_permutations(ear.coord_names, intervals_of(dec.ranks), frame)


def polytope_entries_by_ambients(dec: EarDecomposition) -> list[dict]:
    """``axiom_polytope.per_ear`` of ``verify_ced``, with every ear's
    reference sphere built, certified and compared on its own."""
    entries = []
    for i, ear in enumerate(dec.ears):
        ambient = reference_sphere(dec, i)
        entry = {
            "ear": i + 1,
            "ambient_is_sphere": certified_kind(ambient) == "SPHERE",
            "full_dimensional": ear.complex.dim == ambient.dim,
            "subcomplex": is_subcomplex(ear.complex, ambient),
        }
        if i == 0:
            entry["equals_ambient"] = ear.complex == ambient
        else:
            entry["proper"] = set(ear.complex.facets) < set(ambient.facets)
        entries.append(entry)
    return entries


def ced_axioms_certifying_each_ear(dec: EarDecomposition) -> dict:
    """``axiom_balls.kinds``, ``axiom_polytope.per_ear`` and
    ``axiom_boundary.witnesses`` of ``verify_ced``, with every ear certified
    on its own, the pulled-back masks read as K's faces by name, and the
    gluing axiom read off running face sets."""
    ears = dec.ears
    kinds, entries = [], []
    sphere, coord = coordinate_sphere_by_names(dec.ranks)
    sphere_facets = set(sphere.facets)
    sphere_kind = certified_kind(sphere)
    outside = 1 << len(coord)
    for i, ear in enumerate(ears):
        kinds.append(certified_kind(ear.complex, ear.shelling))
        entry = {"ear": i + 1}
        pulled = _pulled_back(ear, coord)
        if pulled is None:
            entry.update(dict.fromkeys(
                ("ambient_is_sphere", "full_dimensional", "subcomplex", "proper" if i else "equals_ambient"),
                False,
            ))
        else:
            # a mask at or above the outside bit holds a vertex outside K's image
            faces = {sphere.face(m) for m in pulled if m < outside}
            within = len(faces) == len(pulled)
            entry["ambient_is_sphere"] = sphere_kind == "SPHERE"
            entry["full_dimensional"] = ear.complex.dim == sphere.dim
            entry["subcomplex"] = within and all(map(sphere.has_face, faces))
            if i == 0:
                entry["equals_ambient"] = within and faces == sphere_facets
            else:
                entry["proper"] = within and faces < sphere_facets
        entries.append(entry)
    return {"kinds": kinds, "per_ear": entries, "witnesses": gluing_witnesses_by_face_sets(ears)}


def _concatenated_histogram(
    delta: SimplicialComplex, ears: Sequence[Ear]
) -> Optional[tuple[int, ...]]:
    """h-vector read off the concatenated ear shellings, when the
    concatenation happens to shell the whole complex; None when it does not
    (observed for some rank selections, where the glue order is right for
    the ears but not for the union). With one ear, the union axiom has made
    Δ that ear's complex and the concatenation is its verified order."""
    if len(ears) == 1:
        return h_from_shelling(ears[0].shelling)
    where = {f: i for i, f in enumerate(delta.facets)}
    order = []
    for ear in ears:
        for names in ear.chains:
            order.append(where[frozenset(names)])
    try:
        sh = verify_shelling(delta, order)
    except NotShelling:
        return None
    return h_from_shelling(sh)


def partition_problems(dec: EarDecomposition) -> list[str]:
    """Why the ears do not partition the maximal chains of ``dec.poset``: a
    chain that lands in two ears, or chains missing from the ears or extra
    to the poset. Empty when they partition them."""
    problems = []
    seen: set[tuple[str, ...]] = set()
    for ear in dec.ears:
        for names in ear.chains:
            if names in seen:
                problems.append(f"chain {names} lands in two ears")
            seen.add(names)

    all_chains = set(maximal_chains(dec.poset))
    if seen != all_chains:
        missing = sorted(all_chains - seen)[:3]
        extra = sorted(seen - all_chains)[:3]
        problems.append(
            f"ears do not partition the maximal chains (missing {missing}, extra {extra})"
        )
    return problems


def union_and_partition_by_listing(dec: EarDecomposition) -> tuple[dict, dict]:
    """``axiom_union`` and ``chain_partition`` of ``verify_ced``, with Δ
    listed as ``order_complex(dec.poset)`` and the ears' facets compared
    with its facets as sets."""
    delta = order_complex(dec.poset)
    union = {f for ear in dec.ears for f in ear.complex.facets}
    missing = sorted(set(delta.facets) - union, key=facet_key)
    extra = sorted(union.difference(delta.facets), key=facet_key)
    total = sum(len(ear.chains) for ear in dec.ears)
    distinct = len({c for ear in dec.ears for c in ear.chains}) == total
    union_axiom = {
        "ok": not missing and not extra,
        "missing": [sorted(f) for f in missing[:3]],
        "extra": [sorted(f) for f in extra[:3]],
    }
    n = len(delta.facets)
    return union_axiom, {"ok": distinct and total == n, "total": total, "facets": n}


def _poly_add_term(
    poly: dict[frozenset[int], int],
    coeff: int,
    plain: frozenset[int],
    shifted: frozenset[int],
) -> None:
    """Add coeff * Π_{i in plain} ν_i * Π_{i in shifted} (ν_i - 1)."""
    shifted_list = sorted(shifted)
    for k in range(len(shifted_list) + 1):
        for U in combinations(shifted_list, k):
            key = plain | frozenset(U)
            sign = (-1) ** (len(shifted_list) - k)
            poly[key] = poly.get(key, 0) + coeff * sign


def reciprocity_by_polynomials(ear: SimplicialComplex, colors, d: int) -> bool:
    """Interior flag f against ν-1 factors (plus the reduced-Euler term,
    which vanishes for balls) equals complementary flag h against ν
    factors, compared coefficient by coefficient."""
    if ear.is_void or ear.dim != d - 1 or not ear.pure:
        raise NotBall(f"expected a pure complex of dimension {d - 1}")
    full = frozenset(range(1, d + 1))
    for f in ear.facets:
        if frozenset(colors[v] for v in f) != full:
            raise NotBall("facet misses a rank color")
    bd = boundary_complex(ear)
    bd_faces = bd.faces() if not bd.is_void else {frozenset()}
    fS: dict[frozenset[int], int] = {}
    f_int: dict[frozenset[int], int] = {}
    for f in ear.faces():
        cs = frozenset(colors[v] for v in f)
        fS[cs] = fS.get(cs, 0) + 1
        if f and f not in bd_faces:
            f_int[cs] = f_int.get(cs, 0) + 1
    hS = flag_h_by_inclusion_exclusion(fS, d)
    lhs: dict[frozenset[int], int] = {}
    rhs: dict[frozenset[int], int] = {}
    for k in range(d + 1):
        for S in combinations(range(1, d + 1), k):
            Sf = frozenset(S)
            comp = full - Sf
            _poly_add_term(lhs, f_int.get(Sf, 0), frozenset(), comp)
            _poly_add_term(rhs, hS.get(full - Sf, 0), comp, frozenset())
    chi = sum((-1) ** (len(S) + 1) * n for S, n in fS.items())
    if chi:
        # boundaryless: χ̃ enters once, against the full product of (ν_i - 1)
        _poly_add_term(lhs, chi * (-1) ** (d - 1), frozenset(), full)
    lhs = {k: v for k, v in lhs.items() if v}
    rhs = {k: v for k, v in rhs.items() if v}
    return lhs == rhs


def pulled_back_name_keys(dec: EarDecomposition) -> list[Optional[frozenset]]:
    """Each ear's facets pulled back into K as sets of K's vertex names, the
    certificate key ``verify_ced`` used before it read masks. None for an
    ear with no class word, a map undefined or not injective on K, or a
    vertex outside K's image."""
    sphere, coord = coordinate_sphere_by_names(dec.ranks)
    return [_name_key(ear, zip(sphere.vertices, coord)) for ear in dec.ears]


def _name_key(ear: Ear, coord: Iterable[tuple[str, frozenset[int]]]) -> Optional[frozenset]:
    word = ear.provenance.get("class_word")
    if word is None:
        return None
    letter = dict(enumerate(word, start=1))
    back: dict[str, str] = {}
    for v, a in coord:
        name = ear.coord_names.get(frozenset(letter.get(i) for i in a))
        if name is None or name in back:
            return None
        back[name] = v
    if not back.keys() >= set(ear.complex.vertices):
        return None
    return frozenset(frozenset(map(back.__getitem__, f)) for f in ear.complex.facets)


def reciprocity_rows_per_ear(
    dec: EarDecomposition, colors: dict[str, int], check=ball_flag_reciprocity
) -> list[dict]:
    """``verify --what reciprocity``'s rows, with ``check`` run on every ear."""
    return [
        {"ear": k + 1, "ok": check(ear.complex, colors)}
        for k, ear in enumerate(dec.ears)
    ]


def subset_novelty_scan(copies):
    """``is_new(ci, chain_names)``: no copy before ci holds every name."""
    names = [set(c.elem.values()) for c in copies]

    def is_new(ci: int, chain_names) -> bool:
        s = set(chain_names)
        return not any(s <= names[m] for m in range(ci))

    return is_new


def restriction_novelty(copies):
    """``is_new(ci, chain_names)`` for the copies of ``decompose_face_poset``:
    the top face of the chain contains the restriction face of shelling
    step ci (Björner, Handbook of Combinatorics, 1995), both as coordinate
    sets of the step's copy."""
    coords = [{x: a for a, x in c.elem.items()} for c in copies]
    need = [coords[ci][c.provenance["restriction"]] for ci, c in enumerate(copies)]

    def is_new(ci: int, chain_names) -> bool:
        return need[ci] <= coords[ci][chain_names[-1]]

    return is_new


def macaulay_pseudopower_by_scan(a: int, i: int) -> int:
    """a^<i> from the greedy binomial representation of a in degree i, each
    of its n found by stepping n up one at a time."""
    rep, deg, rest = [], i, a
    while rest > 0 and deg >= 1:
        n = deg
        while comb(n + 1, deg) <= rest:
            n += 1
        rep.append((n, deg))
        rest -= comb(n, deg)
        deg -= 1
    return sum(comb(n + 1, d + 1) for n, d in rep)


def graphic_matroid_by_all_sizes(vertices: int, edges: Sequence[tuple[int, int]]) -> Matroid:
    """Cycle matroid of a simple-input graph (no range or loop checks):
    bases are the acyclic edge sets of the largest size that has any."""
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


def saturated_chains_between(p: Poset, x: str, y: str) -> list[tuple[str, ...]]:
    """All saturated chains from x to y (inclusive), in canonical order."""
    i, j = p.index(x), p.index(y)
    if not p.leq_i(i, j):
        raise NotComparable(f"{x!r} is not below {y!r}")
    out: list[tuple[int, ...]] = []
    # inside y's down-set only y has no cover left, so every chain ends there
    _chain_extensions(p, [i], p.down_mask(j), out)
    out.sort()
    return [tuple(p.elements[k] for k in idx) for idx in out]


def el_by_intervals(p: Poset, lab: EdgeLabeling) -> tuple[bool, Optional[tuple]]:
    """EL check over every interval of a graded poset, one interval at a
    time: exactly one weakly increasing chain, whose word strictly precedes
    every other chain's. Same verdict and witness as ``verify_el``."""
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


def first_zero_mobius(p: Poset) -> Optional[tuple[str, str]]:
    """The first pair x < y in index order with μ(x, y) = 0, or None."""
    for i in range(p.n):
        for j in range(p.n):
            if i != j and p.leq_i(i, j):
                if mobius(p, p.elements[i], p.elements[j]) == 0:
                    return p.elements[i], p.elements[j]
    return None


def sr_by_maximal_chains(p: Poset, lab: EdgeLabeling) -> bool:
    """Labels lie in [r], r the top rank, and no maximal chain repeats one."""
    r = p.max_rank()
    if any(not 1 <= v <= r for v in lab.labels.values()):
        return False
    for c in maximal_chains(p):
        w = lab.word(c)
        if len(set(w)) != len(w):
            return False
    return True


def induced_subposet_by_names(p: Poset, keep: Iterable[str]) -> Poset:
    """The subposet on ``keep`` with the inherited comparability order."""
    names = sorted(set(keep))
    for e in names:
        p.index(e)
    pairs = [(a, b) for a in names for b in names if a != b and p.leq(a, b)]
    return build_poset(names, pairs, graded=False)


def chains_by_filter(
    p: Poset, lab: EdgeLabeling, x: str, y: str
) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """The unique weakly increasing chain of [x, y] and all strictly
    decreasing ones, filtered from every saturated chain of the interval,
    the decreasing count checked against |μ(x, y)|."""
    chains = saturated_chains_between(p, x, y)
    words = [lab.word(c) for c in chains]
    rising = [c for c, w in zip(chains, words) if all(a <= b for a, b in zip(w, w[1:]))]
    if len(rising) != 1:
        raise LabelingInvalid(
            f"[{x!r}, {y!r}] has {len(rising)} weakly increasing chains"
        )
    falling = [c for c, w in zip(chains, words) if all(a > b for a, b in zip(w, w[1:]))]
    expect = abs(mobius(p, x, y))
    if len(falling) != expect:
        raise MobiusMismatch(
            f"[{x!r}, {y!r}]: {len(falling)} decreasing chains but |mu| = {expect}"
        )
    return rising[0], falling


def label_coordinates(
    lat: Lattice, lab: EdgeLabeling, members: Sequence[str], r: int
) -> dict[frozenset[int], str]:
    """Coordinates of a B_r copy: each member is keyed by the label set of
    a saturated bottom-up chain inside the copy (checked consistent)."""
    p = lat.poset
    member_set = set(members)
    coord: dict[str, frozenset[int]] = {lat.bottom: frozenset()}
    for x in sorted(members, key=p.rank_of):
        if x not in coord:
            continue
        for j in p.covers_up_of(p.index(x)):
            y = p.elements[j]
            if y not in member_set:
                continue
            cy = coord[x] | {lab.of(x, y)}
            old = coord.get(y)
            if old is not None and old != cy:
                raise Inconsistent(
                    f"label sets disagree at {y!r}: {sorted(old)} vs {sorted(cy)}"
                )
            coord[y] = cy
    if len(coord) != len(member_set) or len(member_set) != 2 ** r:
        raise Inconsistent("generated sublattice is not a Boolean copy")
    if {len(c) for c in coord.values()} != set(range(r + 1)):
        raise Inconsistent("copy coordinates do not exhaust all subset sizes")
    return {c: x for x, c in coord.items()}


def supersolvable_copies_by_closure(lat: Lattice, lab: EdgeLabeling) -> list[tuple[dict, dict]]:
    """(coordinates, provenance) of one copy per strictly decreasing
    maximal chain: the sublattice it generates with the increasing chain."""
    rising, falling = chains_by_filter(lat.poset, lab, lat.bottom, lat.top)
    return [
        (
            label_coordinates(lat, lab, closure_under_ops(lat, set(rising) | set(c)), lat.rank),
            {"decreasing_chain": list(c)},
        )
        for c in falling
    ]


def geometric_bases_by_joins(lat: Lattice, atoms: Sequence[str]) -> list[tuple[str, ...]]:
    """nbc bases, in ground order ``atoms``, of the simple matroid whose
    bases are the rank-sized sets of atoms that join to the top."""
    p = lat.poset
    top_rank = p.rank_of(lat.top)
    bases = [
        frozenset(combo)
        for combo in combinations(atoms, lat.rank)
        if p.rank_of(lat.join_of(combo)) == top_rank
    ]
    return nbc_bases(Matroid(list(atoms), bases))
