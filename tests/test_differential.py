"""Differential tests: the fast paths of the complex and lattice layers
against the brute-force routes they replaced, on random inputs.

* ``verify_shelling`` (restriction faces from per-vertex facet bitsets)
  against the pairwise shelling criterion, O(n^3), and it and
  ``search_shelling`` against the face- and ridge-set step they replaced,
  on random pure complexes of dimension 0 to 3;
* ``faces()``, ``f_h_vectors``, ``boundary_complex`` and the closed
  pseudomanifold test (submasks, ridges by clearing one bit) against the
  same on frozensets of names, and ``face_poset`` (covers by clearing one
  bit, all four flag combinations) and ``is_cm_and_2cm`` (each link read
  off the facet masks) against the name-set routes, on pure and impure
  complexes, and ``is_cm_and_2cm`` also on every rank selection of the
  face posets of the CLI fixtures, the octahedron and the 4-simplex;
* ``certify_sphere_or_ball`` (a ball's boundary ridges certified as
  masks in its own bits) against building ``boundary_complex`` and
  certifying it recursively, on shellable complexes, their boundaries and
  their cones;
* ``exact_rank`` and ``homology_ranks`` (pivot-column reduction, with
  clearing from the top dimension down) against fraction-free elimination
  on the sparsest row, one full boundary matrix per dimension;
* ``build_complex`` (maximality tested against larger sets only) against
  the all-pairs filter;
* the ``is_subcomplex`` oracle (facets of the big complex by set lookup)
  against a ``has_face`` scan of every facet;
* the boundary axiom of ``verify_ced`` (face masks against per-vertex
  facet bitsets of the earlier ears) against rebuilding the union and its
  intersection with each ear, and against one running face set;
* ``Lattice``'s join table (principal-filter lookup) and its meets (by
  down-mask when asked) against a bit scan for the unique extremal common
  bound of each pair, and its refusals against the join and meet tables
  it used to build;
* ``check_geometric`` (no lone lower cover above rank 1, upper covers of
  one element joining two ranks up) against atoms joined per element and
  rank submodularity on every pair;
* the M-chain test of ``derive_sn_labeling`` (its min-join labeling is an
  S_r EL-labeling) against ``is_mchain`` (distributivity of the sublattice
  generated with every maximal chain, by brute force);
* the class words of the classifier oracle and ``_descent_class``
  (increasing runs cut at the ranks) against ``descent_classes`` (all of
  S_rho grouped by descent set), and ``_class_map`` (each class the new
  part of its word's sphere) against classifying every selected flag and
  sorting each class by frame word;
* ``lattice_of_flats`` (flats grown by closure extension on bitmasks)
  against the closure of every subset and a pairwise cover scan, both by
  a basis-scan rank;
* ``_check_exchange`` (exchange sets per basis and atom) against the
  triple loop over (B1, B2, x);
* ``dominance_table`` and ``dominates`` (inversion masks cached per m,
  candidates by AND of per-bit bitsets) against the per-pair scan they
  replaced, and each witness against the switch-walk weak order;
* ``_class_masks`` (one lexicographic sweep of S_m, each mask and
  inversion list extended by lookups in one table of per-value gains,
  bitsets read off as columns, no permutation built) against
  ``inversion_mask`` and each permutation member by member, class order
  and member order included, and ``dominance_table`` (one decision per
  pair up to w ↦ w0·w·w0, most inverted τ first, greedy matching before
  augmenting) against deciding every pair by augmenting alone, with the
  symmetry checked on random permutations;
* ``flag_f_and_h`` (chain counts extended from the prefix S minus its
  largest rank, over comparable pairs only) against counting each S from
  the bottom over every pair of layers, on random bounded rank
  selections, on full B7, B8 and Π6, on every bounded rank selection of
  B7 and on face posets, and ``_subset_transform``
  (one in-place pass per bit over a list by rank mask) against each flag
  h entry's own signed sum, in both directions;
* ``face_poset_flags`` (the product rule on f(K), no poset built) against
  the chain counts of the built face poset, refusals included, on
  shellable and on arbitrary, often impure, complexes, and
  ``corollary_gap_coefficients`` (the same rule on the h-basis) against
  the hand-written expansion on every pair for d ≤ 6;
* ``_match`` (a greedy pass, then augmenting paths on candidate bitsets
  from the vertices it left unmatched) against Hopcroft–Karp with a
  recursive augmenting step, and against augmenting from every vertex
  (``match_by_augmenting``) on candidate bitsets up to 40 × 40;
* each ear's reference sphere (the coordinate sphere K relabelled by the
  copy and class word) against the permutation walk per copy and frame,
  and ``verify_ced``'s polytope entries (each ear pulled back into K, K's
  masks sphere-tested once) against building, certifying and comparing
  each ear's reference sphere on its own; K's masks (listed straight from
  ``_sphere``) against K built as a complex over named coordinate sets,
  on every rank set with rho ≤ 7;
* ``ball_flag_reciprocity`` (one flag-h identity on face counts by color
  set, off the masks) against the polynomial identity in ν_i it
  replaced, on colored complexes whose facets are transversals of the
  color classes, some recolored, and on every ear of the corpus;
* ``verify_ced``'s kinds, polytope entries and gluing witnesses (one
  certificate per distinct pull-back into K, as masks over K's bits)
  against certifying every ear, and its mask keys against pulling each ear
  back into K's vertex names;
* ``verify_ced``'s ``axiom_union`` and ``chain_partition`` (Δ's facets
  counted by flag f, each ear facet checked to be a maximal chain, Δ's
  chains listed only to name missing ones) against listing Δ and
  comparing facet sets, on dropped, duplicated and moved ears and on
  ears holding a facet that is no chain, and, whenever ``verify_ced``
  holds, the ears' chains against Δ's facets, which reports do not write;
* ``verify_ced``'s h(Δ) (summed from the flag h of the selected poset)
  and its ear sum (h of ear 1 plus the reversed h of every later ear, off
  their own shellings) against ``f_h_vectors``, and the ear sum against
  the histogram of Δ shelled in the concatenated ear order, where that
  order shells it;
* ``_subset_novelty`` (one copy bitmask per host element) against the
  scan of every earlier copy, and, as the rule of every face-poset
  decomposition, against the shelling's restriction rule, report for
  report, on shellable complexes in their grown order and on the CLI
  fixtures and ∂C4 at every rank set;
* ``graphic_matroid`` (forests of the rank's size only) against trying
  every size from the number of edges down;
* ``increasing_and_decreasing_chains`` (one walk that only follows
  weakly increasing or strictly decreasing words) against filtering every
  saturated chain of the interval, on arbitrary labels;
* ``verify_el`` and ``check_el`` (one walk up from each element keeping the
  lex-least word, the rising count by last label and whether a word falls)
  against listing every interval's chains, and the pairs without a falling
  chain against the Mobius recursion on every pair; ``verify_sr`` (bitmasks
  of cover bottoms per label) against the words of every maximal chain;
* ``induced_subposet`` and ``rank_select`` (relations read off up-set
  bitmasks) against a ``leq`` test by name on every pair;
* the Boolean copies of a supersolvable lattice (generators
  z_a ∧ c_(r-a+1), joined) against the closure of the two chains under
  join and meet with coordinates by a label-set walk, and the geometric
  bases (label sets of the falling chains of the minimal labeling)
  against the nbc bases of the matroid rebuilt from atom joins.

References that no caller of the package needs live in ``tests/oracles.py``,
not in ``src/``: ``exact_rank`` (``complexes._reduce`` without clearing),
``is_mchain`` (the M-chain definition, ``lattices.check_mchain``, as a
boolean) and ``weak_leq`` (inversion-set containment), among others. The
oracles written below serve this file alone.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from functools import lru_cache, partial
from itertools import combinations
from math import factorial, gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlab.cli import COMPLEX_FIXTURES, _edge_list, _face_flag_h
from earlab.complexes import (
    SimplicialComplex,
    _betti,
    _extend_shelling,
    _faces_by_size,
    _is_closed_pseudomanifold,
    boundary_complex,
    build_complex,
    certify_sphere_or_ball,
    f_h_vectors,
    face_name,
    face_poset,
    homology_ranks,
    intersection_complexes,
    is_cm_and_2cm,
    order_complex,
    search_shelling,
    union_complexes,
    verify_shelling,
)
from earlab.decompositions import (
    Ear,
    _class_map,
    _coordinate_sphere,
    _descent_class,
    _pulled_back,
    _subset_novelty,
    _supersolvable_copies,
    decompose_face_poset,
    decompose_geometric,
    decompose_rank_selected_boolean,
    decompose_rank_selected_supersolvable,
    decompose_supersolvable,
    intervals_of,
    verify_ced,
)
from earlab.errors import (
    EarlabError,
    ExchangeAxiomFailed,
    Inconsistent,
    NotBall,
    NotCertified,
    NotGeometric,
    NotMChain,
    NotShelling,
    NotSimple,
    SelfCheckFailed,
    SizeLimit,
)
from earlab.flags import (
    _class_masks,
    _match,
    _subset_transform,
    ball_flag_reciprocity,
    corollary_gap_coefficients,
    descent_classes,
    dominance_table,
    dominates,
    face_poset_flags,
    flag_f_and_h,
    weak_leq_by_switches,
)
from earlab.labelings import (
    EdgeLabeling,
    check_el,
    derive_sn_labeling,
    descent_set,
    increasing_and_decreasing_chains,
    lex_shelling,
    minimal_labeling,
    verify_el,
    verify_sr,
)
from earlab.lattices import (
    Lattice,
    boolean_lattice,
    check_geometric,
    lattice_to_json,
    partition_lattice,
    partition_name,
    subset_name,
)
from earlab.matroids import (
    Matroid,
    _check_exchange,
    build_matroid,
    graphic_matroid,
    lattice_of_flats,
    uniform_matroid,
)
from earlab.posets import (
    Poset,
    _bits,
    build_poset,
    induced_subposet,
    maximal_chains,
    proper_part,
    rank_select,
    with_bounds,
)
from oracles import (
    _concatenated_histogram,
    face_poset_by_name_sets,
    _frame_of,
    _selected_flags,
    ambient_by_permutations,
    boundary_by_name_sets,
    ced_axioms_certifying_each_ear,
    coordinate_sphere_by_names,
    certify_by_boundary_complex,
    closed_pseudomanifold_by_name_sets,
    chains_by_filter,
    class_map_by_classifier,
    class_masks_per_permutation,
    cm_and_2cm_by_name_sets,
    corollary_gap_coefficients_by_expansion,
    dominance_table_all_pairs,
    el_by_intervals,
    exact_rank,
    face_poset_below_facets,
    face_poset_flags_by_chains,
    faces_by_subsets,
    first_zero_mobius,
    flag_f_per_subset,
    flag_h_by_inclusion_exclusion,
    geometric_bases_by_joins,
    gluing_witnesses_by_face_sets,
    graphic_matroid_by_all_sizes,
    induced_subposet_by_names,
    inversion_mask,
    is_geometric,
    match_by_augmenting,
    is_mchain,
    is_subcomplex,
    join_table,
    meet_table,
    partition_problems,
    polytope_entries_by_ambients,
    pulled_back_name_keys,
    reciprocity_by_polynomials,
    reciprocity_rows_per_ear,
    reduced_euler,
    reference_sphere,
    restriction_novelty,
    search_by_face_sets,
    shelling_by_face_sets,
    sigma_word,
    sr_by_maximal_chains,
    subset_novelty_scan,
    supersolvable_copies_by_closure,
    union_and_partition_by_listing,
    weak_leq,
)
from test_acceptance import FACE_FIXTURES
from test_decompositions import mu_zero_lattice, square_and_path


# -- oracles ------------------------------------------------------------------


def violates_pairwise(c: SimplicialComplex, order, i: int, j: int) -> bool:
    """True when facets ``i`` before ``j`` in ``order`` break the pairwise
    criterion: no facet k before j has F_i ∩ F_j ⊆ F_k ∩ F_j with
    |F_k ∩ F_j| = |F_j| - 1."""
    pos = {f: p for p, f in enumerate(order)}
    assert pos[i] < pos[j]
    fi, fj = c.facets[i], c.facets[j]
    return not any(
        fi & fj <= c.facets[k] & fj and len(c.facets[k] & fj) == len(fj) - 1
        for k in order[: pos[j]]
    )


def pairwise_shelling(c: SimplicialComplex, order):
    """The pairwise shelling check: (restrictions, None) for a shelling,
    else (None, (i, j)) with the first failing j and first failing i, as
    indices into ``c.facets``."""
    seq = [c.facets[i] for i in order]
    for j in range(1, len(seq)):
        for i in range(j):
            if violates_pairwise(c, order, order[i], order[j]):
                return None, (order[i], order[j])
    restrictions = [frozenset()]
    for j in range(1, len(seq)):
        fj = seq[j]
        restrictions.append(
            frozenset(x for x in fj if any(fj - {x} <= g for g in seq[:j]))
        )
    return tuple(restrictions), None


def exact_rank_by_elimination(rows: list[dict[int, int]]) -> int:
    """Rank of an integer sparse matrix by fraction-free elimination with
    gcd normalization: pivot on the sparsest row's smallest column, re-sorting
    and scanning every remaining row at each pivot."""
    work = [dict(r) for r in rows if r]
    rank = 0
    while work:
        work.sort(key=len)
        pivot = work.pop(0)
        rank += 1
        col = min(pivot)
        pval = pivot[col]
        nxt = []
        for r in work:
            v = r.get(col)
            if v is None:
                nxt.append(r)
                continue
            merged: dict[int, int] = {k: pval * x for k, x in r.items()}
            for k, x in pivot.items():
                merged[k] = merged.get(k, 0) - v * x
            merged = {k: x for k, x in merged.items() if x}
            if merged:
                g = 0
                for x in merged.values():
                    g = gcd(g, x)
                if g > 1:
                    merged = {k: x // g for k, x in merged.items()}
                nxt.append(merged)
        work = nxt
    return rank


def homology_by_elimination(c: SimplicialComplex) -> tuple[int, ...]:
    """Reduced Betti numbers from the rank of every boundary matrix, each
    built in full from frozenset faces, with no clearing."""
    if c.is_void or c.is_irrelevant:
        return ()
    by_dim: dict[int, list[frozenset[str]]] = {}
    for f in c.faces():
        by_dim.setdefault(len(f) - 1, []).append(f)
    for k in by_dim:
        by_dim[k].sort(key=sorted)
    d = c.dim
    ranks = [0] * (d + 2)
    for k in range(d + 1):
        lower_index = {f: i for i, f in enumerate(by_dim.get(k - 1, []))}
        rows = []
        for f in by_dim.get(k, []):
            fl = sorted(f)
            rows.append({lower_index[f - {v}]: (-1) ** i for i, v in enumerate(fl)})
        ranks[k] = exact_rank_by_elimination(rows)
    return tuple(len(by_dim.get(k, [])) - ranks[k] - ranks[k + 1] for k in range(d + 1))


def all_pairs_build(facets) -> SimplicialComplex:
    raw = {frozenset(str(v) for v in f) for f in facets}
    maximal = [f for f in raw if not any(f < g for g in raw)]
    maximal.sort(key=lambda f: (len(f), sorted(f)))
    vertices = tuple(sorted({v for f in maximal for v in f}))
    return SimplicialComplex(vertices, tuple(maximal))


def boundary_by_intersections(ears) -> dict:
    """The boundary axiom with the union and the intersection rebuilt for
    every ear, in the shape of ``verify_ced``'s ``axiom_boundary``."""
    ok = True
    witnesses = []
    running = ears[0].complex
    for i in range(1, len(ears)):
        have = intersection_complexes(running, ears[i].complex).faces()
        want = boundary_complex(ears[i].complex).faces()
        if have != want:
            ok = False
            diff = sorted(have ^ want, key=lambda f: (len(f), sorted(f)))
            witnesses.append({"ear": i + 1, "faces": [sorted(f) for f in diff[:3]]})
        running = union_complexes(running, ears[i].complex)
    return {"ok": ok, "witnesses": witnesses}


def bit_scan_bound(p: Poset, i: int, j: int, upper: bool) -> int:
    """The least common upper bound (greatest common lower bound) of i and j,
    found by scanning the common bounds for one with no other below (above)
    it; raise Inconsistent unless there is exactly one."""
    if upper:
        mask = p.up_mask(i) & p.up_mask(j)
    else:
        mask = p.down_mask(i) & p.down_mask(j)
    found = -1
    m = mask
    k = 0
    while m:
        if m & 1:
            inner = (p.down_mask(k) if upper else p.up_mask(k)) & mask
            if inner == (1 << k):
                if found >= 0:
                    raise Inconsistent("no unique extremal common bound")
                found = k
        m >>= 1
        k += 1
    return found


def bit_scan_tables(p: Poset):
    """(join table, meet table) over every pair, or None for a non-lattice."""
    pairs = [(i, j) for i in range(p.n) for j in range(p.n)]
    try:
        return (
            [bit_scan_bound(p, i, j, upper=True) for i, j in pairs],
            [bit_scan_bound(p, i, j, upper=False) for i, j in pairs],
        )
    except Inconsistent:
        return None


def hopcroft_karp_recursive(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum matching by Hopcroft–Karp, with the augmenting step written
    recursively; returns match_left (index into the right side or -1)."""
    INF = float("inf")
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    while True:
        dist = [INF] * n_left
        queue = [u for u in range(n_left) if match_l[u] == -1]
        for u in queue:
            dist[u] = 0
        head = 0
        found = False
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return match_l

        def try_augment(u: int) -> bool:
            for v in adj[u]:
                w = match_r[v]
                if w == -1 or (dist[w] == dist[u] + 1 and try_augment(w)):
                    match_l[u] = v
                    match_r[v] = u
                    return True
            dist[u] = INF
            return False

        for u in range(n_left):
            if match_l[u] == -1:
                try_augment(u)


def dominates_by_scan(S, T, m: int):
    """Dominance with the masks of both classes rebuilt on every call and
    each τ's candidates found by testing it against every σ, |D_T| × |D_S|
    containment tests."""
    classes = descent_classes(m)
    left = classes.get(frozenset(T), [])
    right = classes.get(frozenset(S), [])
    if not left:
        return True, {}
    if len(left) > len(right):
        return False, None
    right_masks = [inversion_mask(s) for s in right]
    cands = []
    for tau in left:
        tm = inversion_mask(tau)
        cands.append(sum(1 << j for j, sm in enumerate(right_masks) if tm & ~sm == 0))
    match_l = _match(cands)
    if match_l is None:
        return False, None
    return True, {left[u]: right[v] for u, v in enumerate(match_l)}


# -- fixtures -------------------------------------------------------------------


def _lex_shelled(lat):
    sh, _ = lex_shelling(lat.poset, derive_sn_labeling(lat))
    return sh.complex, list(sh.order)


@lru_cache(maxsize=None)
def shelling_fixtures() -> tuple[tuple[SimplicialComplex, list[int]], ...]:
    """(complex, known order) pairs: lex shellings of the B3, B4 and Π4 order
    complexes, and two complexes with no shelling at all."""
    bowtie = build_complex([["a", "b", "c"], ["a", "d", "e"]])
    annulus = build_complex(
        [["a1", "a2", "b1"], ["a2", "b1", "b2"], ["a2", "a3", "b2"],
         ["a3", "b2", "b3"], ["a3", "a1", "b3"], ["a1", "b3", "b1"]]
    )
    return (
        _lex_shelled(boolean_lattice(3)),
        _lex_shelled(boolean_lattice(4)),
        _lex_shelled(partition_lattice(4)),
        (bowtie, [0, 1]),
        (annulus, list(range(6))),
    )


@lru_cache(maxsize=None)
def small_decompositions():
    two_triangles = build_complex([["a", "b", "c"], ["a", "b", "d"]])
    return (
        decompose_supersolvable(boolean_lattice(3)),
        decompose_supersolvable(partition_lattice(4)),
        decompose_rank_selected_boolean(4, [1, 3]),
        decompose_rank_selected_boolean(5, [2, 4]),
        decompose_rank_selected_supersolvable(partition_lattice(4), ranks=[2]),
        decompose_face_poset(two_triangles, ranks=[1, 2]),
    )


# -- shellings -------------------------------------------------------------------


@st.composite
def shelling_cases(draw):
    """A fixture with either a uniformly random order or its known order
    perturbed by a few random transpositions (mostly near misses)."""
    c, base = draw(st.sampled_from(shelling_fixtures()))
    n = len(base)
    if draw(st.booleans()):
        return c, draw(st.permutations(range(n)))
    order = list(base)
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(max(0, a - 3), min(n - 1, a + 3)))
        order[a], order[b] = order[b], order[a]
    return c, order


@settings(max_examples=150, deadline=None)
@given(shelling_cases())
def test_verify_shelling_agrees_with_pairwise_criterion(case):
    c, order = case
    restrictions, witness = pairwise_shelling(c, order)
    if witness is None:
        assert verify_shelling(c, order).restrictions == restrictions
        return
    with pytest.raises(NotShelling) as err:
        verify_shelling(c, order)
    e = err.value
    assert violates_pairwise(c, order, e.i, e.j)
    assert (e.i, e.j) == witness  # same first failing j, and the same i


def test_known_orders_are_shellings_and_others_are_not():
    for c, order in shelling_fixtures()[:3]:
        assert pairwise_shelling(c, order)[1] is None
        verify_shelling(c, order)
    for c, order in shelling_fixtures()[3:]:
        assert pairwise_shelling(c, order)[1] is not None
        with pytest.raises(NotShelling):
            verify_shelling(c, order)


@st.composite
def pure_complexes(draw, max_facets: int = 10):
    """A pure complex of dimension 0 to 3 on at most 7 vertices and an order
    of its facets. Half of them grow facet by facet across a ridge of an
    earlier one and are ordered by that growth (mostly shellings; the rest
    meet the earlier facets in an old face); the others draw their facets
    freely and take a random order (often with an empty restriction face)."""
    d = draw(st.integers(0, 3))
    pool = "abcdefg"[: draw(st.integers(d + 1, 7))]
    if draw(st.booleans()):
        grown = [frozenset(draw(st.permutations(pool))[: d + 1])]
        for _ in range(draw(st.integers(0, max_facets - 1))):
            base = draw(st.sampled_from(grown))
            new = base - {draw(st.sampled_from(sorted(base)))} | {draw(st.sampled_from(pool))}
            if len(new) == d + 1 and new not in grown:
                grown.append(new)
        c = build_complex(grown)
        return c, [c.facets.index(f) for f in grown]
    sets = st.frozensets(st.sampled_from(pool), min_size=d + 1, max_size=d + 1)
    c = build_complex(draw(st.lists(sets, min_size=1, max_size=max_facets)))
    return c, draw(st.permutations(range(len(c.facets))))


def shelling_verdict(shell, c, order):
    """The restriction faces ``shell`` gives, or the (i, j) of its NotShelling."""
    try:
        return tuple(shell(c, order))
    except NotShelling as exc:
        return exc.i, exc.j


@settings(max_examples=400, deadline=None)
@given(pure_complexes())
def test_shelling_bitsets_agree_with_face_and_ridge_sets(case):
    c, order = case
    got = shelling_verdict(lambda c, o: verify_shelling(c, o).restrictions, c, order)
    assert got == shelling_verdict(shelling_by_face_sets, c, order)


@pytest.mark.parametrize("facets, order, want", [
    # dimension 0: r(F_0) is empty, every later r(F_j) is F_j itself
    ([["a"], ["b"], ["c"]], [2, 0, 1], ((), ("a",), ("b",))),
    ([["a"]], [0], ((),)),
    # F_1 meets F_0 in the empty face only: r(F_1) is empty and lies in F_0
    ([["a", "b"], ["c", "d"]], [0, 1], (0, 1)),
    ([["a", "b", "c"], ["a", "d", "e"]], [1, 0], (1, 0)),
    ([["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"]], [2, 0, 1], (2, 0)),
    ([["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"]], [1, 2, 0], ((), ("e",), ("a",))),
])
def test_shelling_edge_cases_agree_with_face_and_ridge_sets(facets, order, want):
    c = build_complex(facets)
    where = [c.facets.index(frozenset(f)) for f in facets]
    order = [where[k] for k in order]
    got = shelling_verdict(lambda c, o: verify_shelling(c, o).restrictions, c, order)
    assert got == shelling_verdict(shelling_by_face_sets, c, order)
    if isinstance(want[0], tuple):
        assert got == tuple(frozenset(r) for r in want)
    else:  # (i, j) as indices into ``facets``
        assert got == tuple(where[k] for k in want)


@settings(max_examples=150, deadline=None)
@given(pure_complexes(max_facets=7))
def test_shelling_search_agrees_with_face_and_ridge_sets(case):
    c, _ = case
    found = search_shelling(c)
    assert (None if found is None else list(found.order)) == search_by_face_sets(c)
    # a search that backtracks out clears every bit it set
    rows = [sorted(c.vertices.index(v) for v in f) for f in c.facets]
    prefix, holders = [], [0] * len(c.vertices)
    if _extend_shelling(rows, prefix, [False] * len(rows), holders):
        assert holders == [
            sum(1 << k for k, j in enumerate(prefix) if v in rows[j]) for v in range(len(holders))
        ]
    else:
        assert prefix == [] and not any(holders)


@settings(max_examples=200, deadline=None)
@given(pure_complexes())
def test_mask_kernels_agree_with_name_sets(case):
    c, _ = case
    faces = faces_by_subsets(c)
    assert c.faces() == faces
    assert f_h_vectors(c)[0] == tuple(sum(len(f) == k for f in faces) for k in range(c.dim + 2))
    bd, want = boundary_complex(c), boundary_by_name_sets(c)
    assert (bd.vertices, bd.facets) == (want.vertices, want.facets)
    assert _is_closed_pseudomanifold(c.masks) == closed_pseudomanifold_by_name_sets(c)
    assert homology_ranks(c) == homology_by_elimination(c)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from("abcdefg"), max_size=5), max_size=10))
def test_faces_agree_with_name_sets_on_impure_complexes(facets):
    c = build_complex(facets)
    assert c.faces() == faces_by_subsets(c)


any_complexes = pure_complexes().map(lambda case: case[0]) | st.lists(
    st.frozensets(st.sampled_from("abcdefg"), max_size=5), max_size=10
).map(build_complex)


def _poset_outcome(route, c, include_empty, graded):
    """The parts of ``route``'s face poset, or the error it raises."""
    p = _outcome(route, c, include_empty, graded)
    return p if isinstance(p, tuple) else (p.elements, p.cover_pairs(), p.ranks, p.graded)


@settings(max_examples=200, deadline=None)
@given(any_complexes, st.booleans(), st.booleans())
def test_face_poset_by_masks_agrees_with_name_sets(c, include_empty, graded):
    assert _poset_outcome(face_poset, c, include_empty, graded) == _poset_outcome(
        face_poset_by_name_sets, c, include_empty, graded
    )


@settings(max_examples=150, deadline=None)
@given(any_complexes)
def test_cm_by_masks_agrees_with_sorted_name_sets(c):
    assert is_cm_and_2cm(c) == cm_and_2cm_by_name_sets(c)


@st.composite
def shellable_complexes(draw, max_steps: int = 24, min_dim: int = 0, shelled: bool = False):
    """A shellable complex (so CM) of dimension ``min_dim`` to 3 on at most
    7 vertices, grown facet by facet: a drawn facet, half of them across a
    ridge of an earlier facet, is kept only if ``verify_shelling`` accepts
    it next. About one draw in eight is doubly CM above dimension 0. With
    ``shelled``, the grown order comes back too, as facet indices."""
    d = draw(st.integers(min_dim, 3))
    pool = "abcdefg"[: draw(st.integers(d + 1, 7))]
    grown = [frozenset(draw(st.permutations(pool))[: d + 1])]
    for _ in range(draw(st.integers(0, max_steps))):
        if draw(st.booleans()):
            base = draw(st.sampled_from(grown))
            new = base - {draw(st.sampled_from(sorted(base)))} | {draw(st.sampled_from(pool))}
        else:
            new = frozenset(draw(st.permutations(pool))[: d + 1])
        if len(new) != d + 1 or new in grown:
            continue
        c = build_complex(grown + [new])
        try:
            verify_shelling(c, [c.facets.index(f) for f in grown + [new]])
        except NotShelling:
            continue
        grown.append(new)
    c = build_complex(grown)
    return (c, [c.facets.index(f) for f in grown]) if shelled else c


@settings(max_examples=200, deadline=None)
@given(shellable_complexes())
def test_cm_by_masks_agrees_with_name_sets_on_shellable_complexes(c):
    # every draw is CM, so every draw reaches the vertex deletions
    got = is_cm_and_2cm(c)
    assert got[0] and got == cm_and_2cm_by_name_sets(c)


def _certified_kind(certify, c):
    """The kind ``certify`` gives c, or the class of the EarlabError it raises."""
    try:
        return certify(c)
    except EarlabError as exc:
        return type(exc)


def certify_searching_when_needed(c):
    """The verdict on c, with a searched shelling only when c is refused for
    want of one: a sphere still certifies without."""
    try:
        return certify_sphere_or_ball(c, None)
    except NotCertified as exc:
        if str(exc) != "no shelling given":
            raise
    return certify_sphere_or_ball(c, search_shelling(c))


@settings(max_examples=200, deadline=None)
@given(shellable_complexes(max_steps=12), st.integers(0, 2))
def test_certificate_agrees_with_the_recursive_boundary_complex_route(c, which):
    # a shellable complex, its boundary (itself certified as a sphere or a
    # ball, or refused), or its cone (a ball exactly when c is a ball or a sphere)
    c = [c, boundary_complex(c), build_complex(f | {"z"} for f in c.facets)][which]
    got = _certified_kind(certify_searching_when_needed, c)
    want = _certified_kind(certify_by_boundary_complex, c)
    if want is SizeLimit and got is NotCertified:
        # the recursion searched an acyclic boundary of more than 16 facets
        # for a shelling; the masks refuse it by its homology alone
        want = NotCertified if not any(homology_ranks(boundary_complex(c))) else want
    assert got == want


def test_cm_by_masks_agrees_with_name_sets_on_rank_selected_face_posets():
    # random complexes are almost never doubly CM above dimension 0; the
    # order complexes of the rank selections of face posets often are
    corpus = [build_complex(f) for f in COMPLEX_FIXTURES.values()]
    corpus += [cross_polytope_boundary(3), build_complex(["abcde"])]
    seen = Counter()
    for c in corpus:
        fp = face_poset(c, include_empty=True, graded=True)
        ranks = range(1, c.dim + 2)
        for S in (S for k in ranks for S in combinations(ranks, k)):
            delta = order_complex(rank_select(fp, S))
            want = cm_and_2cm_by_name_sets(delta)
            assert is_cm_and_2cm(delta) == want, (c, S)
            if delta.dim >= 1:
                seen[want] += 1
    assert seen == {(True, True): 22, (True, False): 23, (False, False): 2}


# -- exact homology ------------------------------------------------------------------


@st.composite
def sparse_matrices(draw):
    """Up to 12 rows over up to 10 columns with entries in [-4, 4], plus
    zero rows and duplicated rows (some scaled, some negated)."""
    n_cols = draw(st.integers(1, 10))
    entry = st.integers(-4, 4).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, n_cols - 1), entry), max_size=12))
    for _ in range(draw(st.integers(0, 4))):
        if rows and draw(st.booleans()):
            r = draw(st.sampled_from(rows))
            m = draw(st.sampled_from([1, -1, 2, -3]))
            rows.insert(draw(st.integers(0, len(rows))), {k: m * x for k, x in r.items()})
        else:
            rows.insert(draw(st.integers(0, len(rows))), {})
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_exact_rank_agrees_with_elimination(rows):
    before = [dict(r) for r in rows]
    assert exact_rank(rows) == exact_rank_by_elimination(rows)
    assert rows == before  # the caller's rows are not reduced in place


def _check_homology(c: SimplicialComplex) -> None:
    betti = homology_ranks(c)
    assert betti == homology_by_elimination(c)
    # {∅} has β̃_{-1} = 1, a degree the tuple (β̃_0, …, β̃_dim) leaves out
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == reduced_euler(c) + c.is_irrelevant


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from("abcdefg"), max_size=5), max_size=10))
def test_homology_agrees_with_elimination_on_random_complexes(facets):
    _check_homology(build_complex(facets))


def cross_polytope_boundary(n: int) -> SimplicialComplex:
    facets = [[]]
    for i in range(1, n + 1):
        facets = [f + [s + str(i)] for f in facets for s in ("n", "p")]
    return build_complex(facets)


@lru_cache(maxsize=None)
def homology_families() -> dict[str, tuple[SimplicialComplex, ...]]:
    """B5 and Π5 order complexes, every ear and ambient sphere of the K5 and
    K3,3 lattices of flats, and the cross-polytope boundaries ∂C_1..∂C_5."""
    def ears_and_ambients(edges: str, n: int):
        dec = decompose_geometric(lattice_of_flats(graphic_matroid(n, _edge_list(edges))))
        return tuple(c for i, e in enumerate(dec.ears) for c in (e.complex, reference_sphere(dec, i)))

    return {
        "B5": (order_complex(proper_part(boolean_lattice(5).poset)),),
        "Pi5": (order_complex(proper_part(partition_lattice(5).poset)),),
        "K5": ears_and_ambients("0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4", 5),
        "K33": ears_and_ambients("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5", 6),
        "cross": tuple(cross_polytope_boundary(n) for n in range(1, 6)),
    }


@pytest.mark.parametrize("name", ["B5", "Pi5", "K5", "K33", "cross"])
def test_homology_agrees_with_elimination_on_families(name):
    for c in homology_families()[name]:
        _check_homology(c)


# -- build_complex ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=5), max_size=14))
def test_build_complex_agrees_with_all_pairs_filter(facets):
    got = build_complex(facets)
    want = all_pairs_build(facets)
    assert got.facets == want.facets
    assert got.vertices == want.vertices


# -- is_subcomplex ------------------------------------------------------------------


@st.composite
def complex_pairs(draw):
    """A random complex and one built from random sets plus some of its
    facets and faces of its facets, so that both answers occur."""
    sets = st.frozensets(st.sampled_from("abcdef"), max_size=4)
    big = build_complex(draw(st.lists(sets, max_size=8)))
    pieces = draw(st.lists(sets, max_size=3))
    for f in big.facets:
        pick = draw(st.integers(0, 2))
        if pick == 1:
            pieces.append(f)
        elif pick == 2 and f:
            pieces.append(draw(st.frozensets(st.sampled_from(sorted(f)))))
    return build_complex(pieces), big


@settings(max_examples=200, deadline=None)
@given(complex_pairs())
def test_is_subcomplex_agrees_with_the_face_scan(pair):
    small, big = pair
    assert is_subcomplex(small, big) == all(big.has_face(f) for f in small.facets)


# -- the boundary axiom ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_boundary_axiom_agrees_with_intersections(data):
    dec = data.draw(st.sampled_from(small_decompositions()))
    ears = data.draw(st.permutations(dec.ears))
    dec = replace(dec, ears=list(ears))
    assert verify_ced(dec)["axiom_boundary"] == boundary_by_intersections(ears)


def test_reordered_ears_fail_with_the_same_witnesses():
    dec = decompose_rank_selected_boolean(4, [1, 3])
    assert verify_ced(dec)["axiom_boundary"]["ok"]
    ears = dec.ears[1:] + dec.ears[:1]
    report = verify_ced(replace(dec, ears=ears))["axiom_boundary"]
    assert not report["ok"]
    assert report["witnesses"]
    assert report == boundary_by_intersections(ears)


# -- lattice join/meet tables ---------------------------------------------------------


def lattice_tables(p: Poset):
    """(join table, meet table) served by Lattice, or None when it refuses p."""
    try:
        lat = Lattice(p)
    except Inconsistent:
        return None
    pairs = [(i, j) for i in range(p.n) for j in range(p.n)]
    return (
        [lat.join_i(i, j) for i, j in pairs],
        [lat.meet_i(i, j) for i, j in pairs],
    )


@st.composite
def bounded_posets(draw):
    """Up to 7 elements under a random order, between a new bottom and top.
    Many are lattices (chains, M_k) and many are not (bowties)."""
    k = draw(st.integers(0, 7))
    inner = [f"p{i}" for i in range(k)]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    covers = [("bot", x) for x in inner] + [(x, "top") for x in inner]
    covers += [(inner[a], inner[b]) for (a, b), kept in zip(pairs, keep) if kept]
    covers.append(("bot", "top"))
    return build_poset(["bot", "top", *inner], covers, graded=False)


@settings(max_examples=200, deadline=None)
@given(bounded_posets())
def test_lattice_tables_agree_with_bit_scan_on_random_posets(p):
    assert lattice_tables(p) == bit_scan_tables(p)


FAMILIES = {
    **{f"B{r}": boolean_lattice(r).poset for r in range(1, 7)},
    **{f"Pi{n}": partition_lattice(n).poset for n in range(2, 6)},
    "U24-flats": lattice_of_flats(uniform_matroid(2, 4)).poset,
    "K4-flats": lattice_of_flats(
        graphic_matroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ).poset,
    "bowtie": build_poset(
        ["0", "a", "b", "x", "y", "1"],
        [("0", "a"), ("0", "b"), ("a", "x"), ("a", "y"),
         ("b", "x"), ("b", "y"), ("x", "1"), ("y", "1")],
    ),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_lattice_tables_agree_with_bit_scan_on_families(name):
    p = FAMILIES[name]
    want = bit_scan_tables(p)
    assert lattice_tables(p) == want
    assert (want is None) == (name == "bowtie")


@settings(max_examples=300, deadline=None)
@given(bounded_posets())
def test_lattice_refuses_exactly_what_the_two_tables_refused(p):
    """A finite bounded poset with every join has every meet (EC1, §3.3),
    so checking the joins alone refuses the same posets, and the meets read
    off down-masks equal the old meet table."""
    joins, meets = join_table(p), meet_table(p)
    refused = any(None in row for row in joins + meets)
    try:
        lat = Lattice(p)
    except Inconsistent:
        assert refused
        return
    assert not refused
    ids = range(p.n)
    assert [[lat.join_i(i, j) for j in ids] for i in ids] == joins
    assert [[lat.meet_i(i, j) for j in ids] for i in ids] == meets


# -- M-chains by the S_r EL-labeling ----------------------------------------------------


def _small_lattice(covers, graded=True) -> Lattice:
    elements = sorted({x for pair in covers for x in pair})
    return Lattice(build_poset(elements, covers, graded=graded))


@lru_cache(maxsize=None)
def _mchain_lattices():
    """name -> (lattice, maximal chains, M-chains among them). The hexagon
    is graded with no M-chain; N5 is not graded."""
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return {
        "B3": (boolean_lattice(3), 6, 6),
        "B4": (boolean_lattice(4), 24, 24),
        "Pi4": (partition_lattice(4), 18, 12),
        "U24-flats": (lattice_of_flats(uniform_matroid(2, 4)), 4, 4),
        "U35-flats": (lattice_of_flats(uniform_matroid(3, 5)), 20, 0),
        "K4-flats": (lattice_of_flats(graphic_matroid(4, k4)), 18, 12),
        "C4-flats": (lattice_of_flats(graphic_matroid(4, c4)), 12, 0),
        "M3": (_small_lattice([("0", x) for x in "abc"] + [(x, "1") for x in "abc"]), 3, 3),
        "hexagon": (
            _small_lattice(
                [("0", "a1"), ("a1", "a2"), ("a2", "1"), ("0", "b1"), ("b1", "b2"), ("b2", "1")]
            ),
            2,
            0,
        ),
        "N5": (
            _small_lattice(
                [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")], graded=False
            ),
            2,
            0,
        ),
    }


@pytest.mark.parametrize("name", list(_mchain_lattices()))
def test_derived_labeling_accepts_exactly_the_mchains(name):
    """McNamara, JCTA 101 (2003), Thm 1: a maximal chain is an M-chain iff
    its min-join labeling is an S_r EL-labeling."""
    lat, chains, mchains = _mchain_lattices()[name]
    seen = accepted = 0
    for c in maximal_chains(lat.poset):
        want = is_mchain(lat, c)
        try:
            derive_sn_labeling(Lattice(lat.poset, mchain=c))
        except NotMChain:
            assert not want, c
        else:
            assert want, c
            accepted += 1
        seen += 1
    assert (seen, accepted) == (chains, mchains)


def test_supersolvable_decomposition_skips_the_distributivity_brute_force(monkeypatch):
    def refuse(*args):
        raise AssertionError("distributivity brute force reached")

    monkeypatch.setattr("earlab.lattices._distributive_on", refuse)
    dec = decompose_supersolvable(boolean_lattice(4))
    assert verify_ced(dec)["ok"]


# -- class words by the classifier oracle --------------------------------------------


@pytest.mark.parametrize("rho", range(2, 8))
def test_classifier_words_are_the_descent_class(rho):
    """Every word with descent set S is the classifier of its own prefix
    flag, so the classifiers of the selected flags list the class, in
    lex order once sorted."""
    for k in range(1, rho):
        for S in combinations(range(1, rho), k):
            words = sorted({sigma_word(fl, S, rho) for fl in _selected_flags(rho, S)})
            assert words == descent_classes(rho)[frozenset(S)], (rho, S)


# -- class words and ears by spheres --------------------------------------------------


@pytest.mark.parametrize("rho", range(1, 9))
def test_descent_class_by_runs_is_the_descent_class(rho):
    classes = descent_classes(rho)
    for k in range(rho):
        for S in combinations(range(1, rho), k):
            assert _descent_class(rho, S) == classes[frozenset(S)], (rho, S)


@pytest.mark.parametrize("rho", range(2, 8))
def test_class_map_by_spheres_is_the_classifiers(rho):
    """Each class is the new part of its word's sphere, listed in the
    classifier route's shelling order."""
    for k in range(1, rho):
        for S in combinations(range(1, rho), k):
            got, want = _class_map(rho, S), class_map_by_classifier(rho, S)
            assert list(got.items()) == list(want.items()), (rho, S)


@settings(max_examples=10, deadline=None)
@given(st.frozensets(st.integers(1, 7), min_size=1))
def test_class_map_by_spheres_is_the_classifiers_at_rank_8(ranks):
    S = sorted(ranks)
    assert list(_class_map(8, S).items()) == list(class_map_by_classifier(8, S).items())


# -- cover pairs of the lattice of flats --------------------------------------------


FLAT_MATROIDS = {
    "K33": graphic_matroid(6, _edge_list("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5")),
    "prism": graphic_matroid(6, _edge_list("0-1,1-2,0-2,3-4,4-5,3-5,0-3,1-4,2-5")),
    "K5": graphic_matroid(5, _edge_list("0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4")),
    "U36": uniform_matroid(3, 6),
    "K4": graphic_matroid(4, _edge_list("0-1,0-2,0-3,1-2,1-3,2-3")),
}


def rank_of(m: Matroid, A) -> int:
    """rank(S) = max over bases of |S ∩ B|: any maximal independent subset
    of S extends to a basis, and S ∩ B is always independent."""
    s = frozenset(A)
    return max(len(s & b) for b in m.bases)


def rank_and_closure(m: Matroid, A) -> tuple[int, frozenset[str]]:
    """Rank of A and its closure {e : rank(A + e) = rank(A)}."""
    s = frozenset(A)
    r = rank_of(m, s)
    return r, s | {e for e in m.ground if rank_of(m, s | {e}) == r}


def flats_by_subset_closure(m: Matroid) -> Lattice:
    """The lattice of flats from the closure of every subset of at most
    rank-many atoms, and the covers from a scan of all pairs of flats."""
    if any(rank_of(m, {a}) == 0 for a in m.ground):
        raise NotSimple("a loop")
    if any(rank_of(m, pair) < 2 for pair in combinations(m.ground, 2)):
        raise NotSimple("a parallel pair")
    rank = {}
    for k in range(m.rank + 1):
        for sub in combinations(m.ground, k):
            r, cl = rank_and_closure(m, sub)
            rank[cl] = r
    covers = [
        (face_name(f), face_name(g))
        for f in rank
        for g in rank
        if f < g and rank[g] == rank[f] + 1
    ]
    return Lattice(build_poset([face_name(f) for f in rank], covers))


def exchange_by_triple_loop(m: Matroid):
    """The first (B1, B2, x) in basis, basis, ground order with no y in
    B2 - B1 making B1 - x + y a basis, or None."""
    bset = set(m.bases)
    for b1 in m.bases:
        for b2 in m.bases:
            for x in sorted(b1 - b2, key=m.atom_pos):
                if not any((b1 - {x}) | {y} in bset for y in b2 - b1):
                    return b1, b2, x
    return None


def exchange_verdict(m: Matroid):
    try:
        _check_exchange(m)
    except ExchangeAxiomFailed as exc:
        return str(exc)
    return None


def _flats_verdict(route, m: Matroid):
    try:
        return json.dumps(lattice_to_json(route(m)))
    except NotSimple:
        return "NotSimple"


@pytest.mark.parametrize("name", list(FLAT_MATROIDS))
def test_flat_covers_agree_with_rank_of_per_pair(name):
    m = FLAT_MATROIDS[name]
    assert _flats_verdict(lattice_of_flats, m) == _flats_verdict(flats_by_subset_closure, m)


@st.composite
def random_graphic_matroids(draw):
    """Up to 8 edges on at most 6 vertices; a repeated edge makes a
    parallel pair, which both routes refuse."""
    n = draw(st.integers(1, 6))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return graphic_matroid(n, draw(st.lists(edge, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(random_graphic_matroids())
def test_flats_agree_with_subset_closure_on_random_graphs(m):
    assert _flats_verdict(lattice_of_flats, m) == _flats_verdict(flats_by_subset_closure, m)


@pytest.mark.parametrize("n", range(1, 8))
def test_flats_agree_with_subset_closure_on_uniform_matroids(n):
    for r in range(1, n + 1):
        m = uniform_matroid(r, n)
        want = _flats_verdict(flats_by_subset_closure, m)
        assert _flats_verdict(lattice_of_flats, m) == want
        assert (want == "NotSimple") == (r == 1 and n > 1)


@st.composite
def basis_families(draw):
    """k-subsets of at most 7 atoms: an arbitrary family, or the bases of a
    graphic or uniform matroid with up to two k-subsets toggled."""
    atoms = "abcdefg"[: draw(st.integers(2, 7))]
    kind = draw(st.sampled_from(["random", "graphic", "uniform"]))
    if kind == "graphic":
        edges = st.sampled_from(list(combinations(range(5), 2)))
        g = graphic_matroid(5, draw(st.lists(edges, min_size=len(atoms), max_size=len(atoms), unique=True)))
        family = {frozenset(atoms[g.atom_pos(x)] for x in b) for b in g.bases}
        k = g.rank
    else:
        k = draw(st.integers(1, len(atoms) - 1))
    subsets = [frozenset(c) for c in combinations(atoms, k)]
    if kind == "random":
        family = set(draw(st.lists(st.sampled_from(subsets), min_size=2, unique=True)))
    else:
        if kind == "uniform":
            family = set(subsets)
        for s in draw(st.lists(st.sampled_from(subsets), max_size=2)):
            family ^= {s}
    family = family or {subsets[0]}  # a toggle may have emptied it
    return Matroid(atoms, sorted(family, key=lambda b: sorted(map(atoms.index, b))))


@settings(max_examples=300, deadline=None)
@given(basis_families())
def test_exchange_sets_agree_with_the_triple_loop(m):
    hit = exchange_by_triple_loop(m)
    want = None if hit is None else (
        f"no exchange for {sorted(hit[0])} minus {hit[2]!r} toward {sorted(hit[1])}"
    )
    assert exchange_verdict(m) == want


def test_exchange_negative_control():
    # two disjoint pairs: neither trades an atom into the other
    m = Matroid("abcd", [frozenset("ab"), frozenset("cd")])
    assert exchange_by_triple_loop(m) == (frozenset("ab"), frozenset("cd"), "a")
    with pytest.raises(ExchangeAxiomFailed, match="minus 'a' toward"):
        build_matroid("abcd", bases=["ab", "cd"])


# -- geometricity by local forms -----------------------------------------------------


def geometric_verdict(lat: Lattice) -> bool:
    try:
        check_geometric(lat)
    except NotGeometric:
        return False
    return True


@st.composite
def union_closed_lattices(draw):
    """The union-closure of random subsets of [n], n ≤ 5, with ∅ and [n]:
    closed under union with a least element, so a lattice under inclusion,
    graded or not."""
    n = draw(st.integers(1, 5))
    family = {0, (1 << n) - 1}
    for s in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8)):
        family |= {s | t for t in family}
    name = {s: subset_name(k + 1 for k in range(n) if s >> k & 1) for s in family}
    covers = [(name[s], name[t]) for s in family for t in family if s != t and s | t == t]
    return Lattice(build_poset(name.values(), covers, graded=False))


@settings(max_examples=400, deadline=None)
@given(union_closed_lattices())
def test_geometric_check_agrees_with_the_definition_on_union_closed_families(lat):
    assert geometric_verdict(lat) == is_geometric(lat)


@pytest.mark.parametrize("name", ["B3", "Pi4", "Pi5", *FLAT_MATROIDS, "hexagon", "N5"])
def test_geometric_check_agrees_with_the_definition_on_families(name):
    if name in FLAT_MATROIDS:
        lat = lattice_of_flats(FLAT_MATROIDS[name])
    elif name in ("hexagon", "N5"):
        lat = _mchain_lattices()[name][0]
    else:
        lat = boolean_lattice(3) if name == "B3" else partition_lattice(int(name[2:]))
    assert geometric_verdict(lat) == is_geometric(lat) == (name not in ("hexagon", "N5"))


# -- dominance ------------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_dominance_table_agrees_with_the_per_pair_scan(m):
    table = dominance_table(m)
    subsets = [frozenset(S) for k in range(m) for S in combinations(range(1, m), k)]
    held = 0
    for S in subsets:
        for T in subsets:
            want = dominates_by_scan(S, T, m)
            assert ((S, T) in table) == want[0], (m, sorted(S), sorted(T))
            assert dominates(S, T, m) == want, (m, sorted(S), sorted(T))
            held += want[0]
    assert len(table) == held


@pytest.mark.parametrize("m", range(9))
def test_class_masks_agree_with_inversion_mask_per_member(m):
    assert list(_class_masks(m).items()) == list(class_masks_per_permutation(m).items())


@pytest.mark.parametrize("m", range(9))
def test_class_inversion_lists_hold_the_mask_bits(m):
    for masks, _, invs in _class_masks(m).values():
        assert len(masks) == len(invs)
        for mask, inv in zip(masks, invs):
            assert sorted(inv) == list(_bits(mask))


@pytest.fixture
def fresh_dominance_caches():
    """Empty ``_class_masks`` and ``dominance_table`` caches before and after."""
    for fn in (_class_masks, dominance_table):
        fn.cache_clear()
    yield
    for fn in (_class_masks, dominance_table):
        fn.cache_clear()


@pytest.mark.parametrize("m", range(9))
def test_class_masks_build_no_permutation(m, monkeypatch, fresh_dominance_caches):
    def refuse(*args):
        raise AssertionError("descent_classes reached")

    monkeypatch.setattr("earlab.flags.descent_classes", refuse)
    assert len(dominance_table(m)) >= 1 << max(m - 1, 0)
    assert sum(len(masks) for masks, _, _ in _class_masks(m).values()) == factorial(m)


@pytest.mark.parametrize("m", range(9))
def test_dominance_table_agrees_with_deciding_every_pair(m):
    assert dominance_table(m) == dominance_table_all_pairs(m)


def conjugate_by_w0(w: tuple[int, ...]) -> tuple[int, ...]:
    """w0·w·w0, that is i ↦ m+1 - w(m+1-i)."""
    m = len(w)
    return tuple(m + 1 - w[m - i] for i in range(1, m + 1))


@st.composite
def permutation_pairs(draw):
    """σ in S_m, m ≤ 8, and τ either drawn on its own or σ moved up by
    random ascent switches, so that both answers of σ ≤ τ occur."""
    m = draw(st.integers(1, 8))
    perms = st.permutations(list(range(1, m + 1)))
    sigma = tuple(draw(perms))
    if draw(st.booleans()):
        return sigma, tuple(draw(perms))
    tau = list(sigma)
    for i in draw(st.lists(st.integers(0, max(m - 2, 0)), max_size=12)):
        if i + 1 < m and tau[i] < tau[i + 1]:
            tau[i], tau[i + 1] = tau[i + 1], tau[i]
    return sigma, tuple(tau)


@settings(max_examples=200, deadline=None)
@given(permutation_pairs())
def test_conjugating_by_w0_mirrors_descents_and_keeps_the_weak_order(pair):
    sigma, tau = pair
    m = len(sigma)
    cs, ct = conjugate_by_w0(sigma), conjugate_by_w0(tau)
    assert conjugate_by_w0(cs) == sigma
    assert descent_set(cs) == frozenset(m - i for i in descent_set(sigma))
    assert weak_leq(cs, ct) == weak_leq(sigma, tau)
    assert weak_leq(ct, cs) == weak_leq(tau, sigma)


@st.composite
def bipartite_graphs(draw):
    """Up to 9 left and 9 right vertices, each left vertex with a random
    list of neighbours in random order."""
    n_right = draw(st.integers(1, 9))
    n_left = draw(st.integers(0, 9))
    nbrs = st.lists(st.integers(0, n_right - 1), unique=True, max_size=n_right)
    return [draw(nbrs) for _ in range(n_left)], n_right


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs())
def test_bitset_matching_agrees_with_hopcroft_karp(graph):
    adj, n_right = graph
    got = _match([sum(1 << v for v in nbrs) for nbrs in adj])
    assert (got is not None) == (-1 not in hopcroft_karp_recursive(adj, n_right))
    if got is not None:
        assert len(set(got)) == len(got)
        assert all(v in nbrs for v, nbrs in zip(got, adj))


@st.composite
def candidate_bitsets(draw):
    """Up to 40 left and 40 right vertices, each left vertex's neighbours
    a random bitset of at most a drawn number of bits, so that sparse
    graphs, where no matching covers the left side, occur; in half the
    draws that can, a random injection is planted among the edges, so that
    a cover exists that the greedy pass often misses."""
    n_right = draw(st.integers(1, 40))
    n_left = draw(st.integers(0, 40))
    degree = draw(st.integers(0, n_right))
    nbrs = st.lists(st.integers(0, n_right - 1), unique=True, max_size=degree)
    cands = [sum(1 << v for v in draw(nbrs)) for _ in range(n_left)]
    if n_left <= n_right and draw(st.booleans()):
        planted = draw(st.permutations(range(n_right)))
        cands = [cand | 1 << v for cand, v in zip(cands, planted)]
    return cands


@settings(max_examples=300, deadline=None)
@given(candidate_bitsets())
def test_greedy_then_augmenting_matching_agrees_with_augmenting_alone(cands):
    got = _match(cands)
    assert (got is None) == (match_by_augmenting(cands) is None)
    if got is not None:
        assert len(got) == len(cands) == len(set(got))
        assert all((cand >> v) & 1 for v, cand in zip(got, cands))


@st.composite
def rank_subset_pairs(draw):
    m = draw(st.integers(2, 6))
    positions = st.frozensets(st.integers(1, m - 1))
    return draw(positions), draw(positions), m


@settings(max_examples=100, deadline=None)
@given(rank_subset_pairs())
def test_dominance_witness_replays_through_switches(case):
    S, T, m = case
    ok, inj = dominates(S, T, m)
    assert ok == ((S, T) in dominance_table(m))
    if not ok:
        assert inj is None
        return
    assert sorted(inj) == descent_classes(m)[T]
    assert len(set(inj.values())) == len(inj)
    for tau, sigma in inj.items():
        assert descent_set(sigma) == S
        assert weak_leq_by_switches(tau, sigma), (tau, sigma)


# -- flag f from shared prefixes ---------------------------------------------------


@lru_cache(maxsize=None)
def flag_lattice(kind: str, n: int) -> Lattice:
    return boolean_lattice(n) if kind == "B" else partition_lattice(n)


@st.composite
def bounded_rank_selections(draw):
    """A nonempty rank selection of B_r (r ≤ 6) or Π_n (n ≤ 5), bounded."""
    kind = draw(st.sampled_from("BP"))
    n = draw(st.integers(2, 6) if kind == "B" else st.integers(3, 5))
    rank = n if kind == "B" else n - 1
    ranks = draw(st.frozensets(st.integers(1, rank - 1), min_size=1))
    return with_bounds(rank_select(flag_lattice(kind, n).poset, ranks))


@settings(max_examples=80, deadline=None)
@given(bounded_rank_selections())
def test_flag_f_agrees_with_counting_each_subset(p):
    assert flag_f_and_h(p)[0].entries == flag_f_per_subset(p)


@pytest.mark.parametrize("kind, n", [("B", 7), ("B", 8), ("P", 6)])
def test_flag_f_agrees_with_counting_each_subset_on_the_largest_lattices(kind, n):
    p = flag_lattice(kind, n).poset
    assert flag_f_and_h(p)[0].entries == flag_f_per_subset(p)


@pytest.mark.parametrize("ranks", [R for k in range(1, 7) for R in combinations(range(1, 7), k)])
def test_flag_f_agrees_with_counting_each_subset_on_rank_selections_of_b7(ranks):
    p = with_bounds(rank_select(flag_lattice("B", 7).poset, ranks))
    assert flag_f_and_h(p)[0].entries == flag_f_per_subset(p)


@pytest.mark.parametrize("name", [*FACE_FIXTURES, "octahedron", "cross4"])
def test_flag_f_agrees_with_counting_each_subset_on_face_posets(name):
    if name in FACE_FIXTURES:
        c = build_complex(FACE_FIXTURES[name])
    else:
        c = cross_polytope_boundary(3 if name == "octahedron" else 4)
    p = face_poset_below_facets(c)
    want = flag_f_per_subset(p)
    assert flag_f_and_h(p)[0].entries == want
    assert face_poset_flags_by_chains(c)[0].entries == want
    counts = [len(s) for s in _faces_by_size(c.masks, c.dim + 1)]
    assert face_poset_flags(counts, c.dim + 1)[0].entries == want


def _face_flags(route, c):
    """The flag f and h ``route`` gives c, or the class of the EarlabError
    it raises."""
    try:
        return route(c)
    except EarlabError as exc:
        return type(exc)


def _flags_from_counts(c):
    """``verify --what flag-inequalities``'s route on a complex: its
    refusals, then ``face_poset_flags`` on the face counts."""
    fh = _face_flag_h(c)
    ff, fh2 = face_poset_flags([len(s) for s in _faces_by_size(c.masks, c.dim + 1)], c.dim + 1)
    assert fh2 == fh
    return ff, fh


@settings(max_examples=150, deadline=None)
@given(shellable_complexes(max_steps=12) | st.lists(
    st.frozensets(st.sampled_from("abcdef"), max_size=6), max_size=8
).map(build_complex))
def test_face_poset_flags_agree_with_chains_on_the_face_poset(c):
    # shellable draws and arbitrary, often impure, ones: a facet below rank
    # d - 1 is refused as ungraded by both, dimension 0 and the void
    # complex by both as having no ranks below the facets
    assert _face_flags(_flags_from_counts, c) == _face_flags(face_poset_flags_by_chains, c)


def test_gap_coefficients_agree_with_the_expansion():
    for d in range(1, 7):
        subsets = [frozenset(S) for k in range(d) for S in combinations(range(1, d), k)]
        for S in subsets:
            for T in subsets:
                want = corollary_gap_coefficients_by_expansion(S, T, d)
                assert corollary_gap_coefficients(S, T, d) == want, (d, S, T)


def _by_rank_set(v: list[int]) -> dict[frozenset[int], int]:
    return {frozenset(i + 1 for i in _bits(S)): x for S, x in enumerate(v)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.lists(st.integers(-10**6, 10**6), min_size=1 << n, max_size=1 << n)
))
def test_subset_transform_agrees_with_inclusion_exclusion(v):
    n = len(v).bit_length() - 1
    h = _subset_transform(v.copy(), -1)
    assert _by_rank_set(h) == flag_h_by_inclusion_exclusion(_by_rank_set(v), n)
    f = _subset_transform(v.copy(), 1)
    assert flag_h_by_inclusion_exclusion(_by_rank_set(f), n) == _by_rank_set(v)
    assert _subset_transform(h, 1) == v


# -- reference spheres from the coordinate sphere -----------------------------------


@lru_cache(maxsize=None)
def ambient_corpus() -> dict:
    """The decompositions of the benchmark rungs, built in-process."""
    def flats(edges: str, n: int):
        return lattice_of_flats(graphic_matroid(n, _edge_list(edges)))

    return {
        "B5": decompose_supersolvable(boolean_lattice(5)),
        "Pi5": decompose_supersolvable(partition_lattice(5)),
        "K33": decompose_geometric(flats("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5", 6)),
        "prism": decompose_geometric(flats("0-1,1-2,0-2,3-4,4-5,3-5,0-3,1-4,2-5", 6)),
        "cross4-123": decompose_face_poset(cross_polytope_boundary(4), ranks=[1, 2, 3]),
        "bool7-246": decompose_rank_selected_boolean(7, [2, 4, 6]),
        "K5-13": decompose_geometric(
            flats("0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4", 5), ranks=[1, 3]
        ),
    }


def polytope_entries(dec) -> list[dict]:
    return verify_ced(dec)["axiom_polytope"]["per_ear"]


@pytest.mark.parametrize("name", ["B5", "Pi5", "K33", "prism", "cross4-123", "bool7-246", "K5-13"])
def test_lent_ambient_verdict_agrees_with_certifying_each_ear(name):
    dec = ambient_corpus()[name]
    entries = polytope_entries(dec)
    assert entries == polytope_entries_by_ambients(dec)
    assert all(v for e in entries for v in e.values())


@st.composite
def boolean_rank_words(draw):
    """B_r with r <= 6, a nonempty rank set, any word w in S_r and an
    injective copy naming the subsets of [r] in random order."""
    r = draw(st.integers(2, 6))
    ranks = sorted(draw(st.frozensets(st.integers(1, r - 1), min_size=1)))
    word = draw(st.permutations(range(1, r + 1)))
    subsets = [frozenset(c) for k in range(r + 1) for c in combinations(range(1, r + 1), k)]
    names = draw(st.permutations(range(len(subsets))))
    return r, ranks, word, {a: f"x{n}" for a, n in zip(subsets, names)}


@settings(max_examples=60, deadline=None)
@given(boolean_rank_words())
def test_coordinate_sphere_image_agrees_with_the_permutation_walk(case):
    # the walk's sphere pulls back onto K facet for facet: it is K's image
    r, ranks, word, elem = case
    sphere, coord = coordinate_sphere_by_names(ranks)
    walk = ambient_by_permutations(elem, intervals_of(ranks), _frame_of(word, ranks, r))
    ear = SimpleNamespace(provenance={"class_word": list(word)}, coord_names=elem, complex=walk)
    pulled = _pulled_back(ear, coord)
    assert len(pulled) == len(walk.facets) and {sphere.face(m) for m in pulled} == set(sphere.facets)
    dec = decompose_rank_selected_boolean(r, ranks)
    assert polytope_entries(dec) == polytope_entries_by_ambients(dec)


def _with_ear(dec, i, **changes):
    ears = list(dec.ears)
    ears[i] = replace(ears[i], **changes)
    return replace(dec, ears=ears)


def _shelled(chains):
    """The verified shelling, in the given order, of the complex the chains generate."""
    comp = build_complex(chains)
    where = {f: k for k, f in enumerate(comp.facets)}
    return verify_shelling(comp, [where[frozenset(c)] for c in chains])


def test_first_ear_missing_a_facet_is_not_the_whole_sphere():
    # a shelling's prefix is a shelling, so ear 1 stays a (now) ball inside K
    dec = ambient_corpus()["Pi5"]
    ear = dec.ears[0]
    chains = ear.chains[:-1]
    bad = _with_ear(dec, 0, chains=chains, shelling=_shelled(chains))
    report = verify_ced(bad)
    entry = report["axiom_polytope"]["per_ear"][0]
    assert entry["equals_ambient"] is False
    assert entry["subcomplex"] is True and entry["ambient_is_sphere"] is True
    assert report["axiom_polytope"]["per_ear"] == polytope_entries_by_ambients(bad)
    assert not report["axiom_polytope"]["ok"]


def test_first_ear_missing_a_facet_certifies_K_once(monkeypatch):
    # ear 1's pull-back is not K's facet set, so the memo holds no verdict
    # for K and K's masks get exactly one sphere test of their own, with no
    # certificate and no complex for K
    dec = ambient_corpus()["Pi5"]
    chains = dec.ears[0].chains[:-1]
    bad = _with_ear(dec, 0, chains=chains, shelling=_shelled(chains))
    masks, _ = _coordinate_sphere(dec.ranks)
    certified, tested = count_certificates(monkeypatch), []

    def counted(masks, d):
        tested.append(masks)
        return _betti(masks, d)

    monkeypatch.setattr("earlab.decompositions._betti", counted)
    report = verify_ced(bad)
    assert tested == [masks]
    assert not any(set(c.masks) == set(masks) for c in certified)
    assert report["axiom_balls"]["kinds"][0] == "BALL"
    assert all(e["ambient_is_sphere"] for e in report["axiom_polytope"]["per_ear"])


def test_first_ear_with_a_facet_outside_K_is_not_the_whole_sphere():
    # ear 1 of B3 at rank 1 is K's two points; with ear 2's point added it
    # holds all of K's facets and one more, and is no sphere itself
    dec = decompose_rank_selected_boolean(3, [1])
    first, second = dec.ears
    chains = first.chains + second.chains
    bad = _with_ear(dec, 0, chains=chains, shelling=_shelled(chains))
    entry = polytope_entries(bad)[0]
    assert entry["equals_ambient"] is False and entry["ambient_is_sphere"] is True
    assert polytope_entries(bad) == polytope_entries_by_ambients(bad)


def test_lower_dimensional_ear_lies_in_K_but_not_full_dimensionally():
    # ear 2 cut down to one edge of a facet of K: a face of K, not a facet
    dec = ambient_corpus()["Pi5"]
    short = [dec.ears[1].chains[0][:-1]]
    bad = _with_ear(dec, 1, chains=short, shelling=_shelled(short))
    entry = polytope_entries(bad)[1]
    assert entry["subcomplex"] is True
    assert entry["full_dimensional"] is False and entry["proper"] is False
    assert polytope_entries(bad) == polytope_entries_by_ambients(bad)


def test_non_injective_copy_has_no_reference_sphere():
    # two rank-1 vertices of K sent to one host element: the image of K
    # pinches the 2-sphere, so the ear has no reference sphere at all
    dec = ambient_corpus()["Pi5"]
    ear = dec.ears[1]
    word = ear.provenance["class_word"]
    sphere, coord = coordinate_sphere_by_names(dec.ranks)
    moved = {v: frozenset(word[i - 1] for i in a) for v, a in zip(sphere.vertices, coord)}
    first, second = sorted(v for v, a in zip(sphere.vertices, coord) if len(a) == 1)[:2]
    names = dict(ear.coord_names)
    names[moved[second]] = names[moved[first]]
    bad = _with_ear(dec, 1, coord_names=names)
    assert _pulled_back(bad.ears[1], coord) is None
    entry = polytope_entries(bad)[1]
    assert not any(v for k, v in entry.items() if k != "ear")


def test_injective_map_moving_a_vertex_of_K_leaves_the_ear_outside():
    # one host vertex of ear 2 renamed in the copy: the map stays defined
    # and injective, so K's verdict holds, but the ear no longer lies in it;
    # on digit vertices the host face "1" also names a vertex of K
    tetrahedron = build_complex(combinations("1234", 3))
    for dec in ambient_corpus()["Pi5"], decompose_face_poset(tetrahedron, ranks=[1, 2]):
        ear = dec.ears[1]
        names = dict(ear.coord_names)
        (a,) = [a for a, x in names.items() if x == ear.complex.vertices[0]]
        names[a] = "moved"
        bad = _with_ear(dec, 1, coord_names=names)
        _, coord = _coordinate_sphere(dec.ranks)
        assert max(_pulled_back(bad.ears[1], coord)) >= 1 << len(coord)
        entry = polytope_entries(bad)[1]
        assert entry["ambient_is_sphere"] is True
        assert entry["subcomplex"] is False and entry["proper"] is False
        assert polytope_entries(bad) == polytope_entries_by_ambients(bad)


@pytest.mark.parametrize("tamper", [
    lambda ear: {"provenance": {k: v for k, v in ear.provenance.items() if k != "class_word"}},
    lambda ear: {"coord_names": {a: x for a, x in ear.coord_names.items() if a != {1}}},
], ids=["no-class-word", "copy-without-an-atom"])
def test_ear_without_a_defined_map_has_no_reference_sphere(tamper):
    dec = ambient_corpus()["Pi5"]
    bad = _with_ear(dec, 1, **tamper(dec.ears[1]))
    assert polytope_entries(bad)[1] == {
        "ear": 2, "ambient_is_sphere": False, "full_dimensional": False,
        "subcomplex": False, "proper": False,
    }


# -- one certificate per pulled-back ear -----------------------------------------------


def ced_axioms(dec) -> dict:
    report = verify_ced(dec)
    return {
        "kinds": report["axiom_balls"]["kinds"],
        "per_ear": report["axiom_polytope"]["per_ear"],
        "witnesses": report["axiom_boundary"]["witnesses"],
    }


def mask_keys(dec) -> list:
    """``verify_ced``'s certificate key per ear: its pulled-back masks, or
    None when it has none or a mask reaches the bit above K's vertices."""
    _, coord = _coordinate_sphere(dec.ranks)
    pulled = [_pulled_back(ear, coord) for ear in dec.ears]
    return [p if p is not None and max(p, default=0) < 1 << len(coord) else None for p in pulled]


def first_holders(keys) -> list:
    """For each key, the index of the first ear holding it; None for no key."""
    return [None if k is None else keys.index(k) for k in keys]


def reciprocity_colors(dec) -> dict[str, int]:
    return {v: dec.poset.rank_of(v) for ear in dec.ears for v in ear.complex.vertices}


def lenient_reciprocity(ear, colors) -> bool:
    """The identity's verdict, with a coloring it refuses read as a failure."""
    try:
        return ball_flag_reciprocity(ear, colors)
    except NotBall:
        return False


def reciprocity_outcome(check, *args):
    """``check``'s verdict, or NotBall when it refuses the coloring."""
    try:
        return check(*args)
    except NotBall:
        return NotBall


@st.composite
def colored_complexes(draw):
    """A pure complex whose facets are transversals of d color classes
    (d = 1..4, at most three vertices a class), its coloring, and d; one
    vertex is sometimes recolored, to any color in 1..d+1."""
    d = draw(st.integers(1, 4))
    classes = [[f"{c}{k}" for k in range(draw(st.integers(1, 3)))] for c in range(1, d + 1)]
    transversal = st.tuples(*map(st.sampled_from, classes)).map(frozenset)
    c = build_complex(draw(st.lists(transversal, min_size=1, max_size=8)))
    colors = {v: int(v[0]) for v in c.vertices}
    if draw(st.booleans()):
        colors[draw(st.sampled_from(c.vertices))] = draw(st.integers(1, d + 1))
    return c, colors, d


@settings(max_examples=400, deadline=None)
@given(colored_complexes())
def test_reciprocity_on_masks_agrees_with_the_polynomials(case):
    c, colors, d = case
    assert reciprocity_outcome(ball_flag_reciprocity, c, colors) == reciprocity_outcome(
        reciprocity_by_polynomials, c, colors, d
    )


@pytest.mark.parametrize("name", ["B5", "Pi5", "K33", "prism", "cross4-123", "bool7-246", "K5-13"])
def test_reciprocity_on_masks_agrees_with_the_polynomials_on_every_ear(name):
    dec = ambient_corpus()[name]
    colors, d = reciprocity_colors(dec), len(dec.ranks)
    for ear in dec.ears:
        want = reciprocity_outcome(reciprocity_by_polynomials, ear.complex, colors, d)
        assert reciprocity_outcome(ball_flag_reciprocity, ear.complex, colors) == want
        assert want is True


@pytest.mark.parametrize("facets, colors, d", [
    # two colored triangles sharing one vertex: acyclic, but no ball
    ([["a", "b", "c"], ["a", "d", "e"]], {"a": 1, "b": 2, "c": 3, "d": 2, "e": 3}, 3),
    # three colored edges sharing one vertex: a tree, but no path, so no ball
    ([["a", "b"], ["a", "c"], ["a", "e"]], {"a": 1, "b": 2, "c": 2, "e": 2}, 2),
], ids=["bowtie", "claw"])
def test_reciprocity_fails_off_balls_and_spheres(facets, colors, d):
    c = build_complex(facets)
    assert ball_flag_reciprocity(c, colors) is False
    assert reciprocity_by_polynomials(c, colors, d) is False


@pytest.mark.parametrize("name", ["B5", "Pi5", "K33", "prism", "cross4-123", "bool7-246", "K5-13"])
def test_keyed_checks_agree_with_checking_each_ear(name):
    dec = ambient_corpus()[name]
    assert ced_axioms(dec) == ced_axioms_certifying_each_ear(dec)


def test_keyed_certificates_agree_on_handmade_ears():
    # handmade ears have no class word, so no key: each is certified alone
    fake = square_and_path()
    square, path = fake.ears
    for dec in fake, replace(fake, ears=[path, square]), replace(fake, ears=[square, path, path]):
        assert mask_keys(dec) == [None] * len(dec.ears)
        assert ced_axioms(dec) == ced_axioms_certifying_each_ear(dec)
    assert ced_axioms(fake)["witnesses"]


def test_gluing_witnesses_agree_with_face_sets_around_a_vertex_outside_the_complex():
    # e lies in no facet of the decomposition's complex, only in one ear
    fake = square_and_path()
    square, path = fake.ears
    fan = build_complex([["a", "e"], ["c", "e"]])
    ear = Ear(chains=[("q6",), ("q7",)], shelling=verify_shelling(fan, [0, 1]), provenance={})
    seen = []
    for ears in ([square, ear], [square, path, ear], [ear, square], [path, ear, square]):
        witnesses = verify_ced(replace(fake, ears=ears))["axiom_boundary"]["witnesses"]
        assert witnesses == gluing_witnesses_by_face_sets(ears)
        seen.append(bool(witnesses))
    assert seen == [False, True, True, True]


@st.composite
def moved_chain_decompositions(draw):
    """A rank-selected Boolean decomposition (r <= 6), mostly with the last
    chain of one ear moved to the end of another ear that it still shells."""
    r = draw(st.integers(2, 6))
    ranks = sorted(draw(st.frozensets(st.integers(1, r - 1), min_size=1)))
    dec = decompose_rank_selected_boolean(r, ranks)
    ears = list(dec.ears)
    sources = [i for i, ear in enumerate(ears) if len(ear.chains) > 1]
    if not sources or not draw(st.integers(0, 4)):
        return dec
    i = draw(st.sampled_from(sources))
    chain = ears[i].chains[-1]
    targets = []
    for j, ear in enumerate(ears):
        if j == i:
            continue
        try:
            targets.append((j, _shelled(ear.chains + [chain])))
        except NotShelling:
            pass
    if not targets:
        return dec
    j, shelling = draw(st.sampled_from(targets))
    ears[i] = replace(ears[i], chains=ears[i].chains[:-1], shelling=_shelled(ears[i].chains[:-1]))
    ears[j] = replace(ears[j], chains=ears[j].chains + [chain], shelling=shelling)
    return replace(dec, ears=ears)


@settings(max_examples=60, deadline=None)
@given(moved_chain_decompositions())
def test_keyed_checks_agree_on_moved_chains(dec):
    assert ced_axioms(dec) == ced_axioms_certifying_each_ear(dec)


@settings(max_examples=60, deadline=None)
@given(moved_chain_decompositions())
def test_mask_keys_pair_ears_as_name_set_keys_do(dec):
    # the map is injective on K, so masks over K's bits and K's vertex
    # names tell the same pulled-back facet sets apart
    assert first_holders(mask_keys(dec)) == first_holders(pulled_back_name_keys(dec))


def twin_ear(dec) -> tuple[int, int]:
    """(first, later): two ears of ``dec`` with one key."""
    first: dict = {}
    for j, key in enumerate(mask_keys(dec)):
        if key in first:
            return first[key], j
        first[key] = j
    raise AssertionError("no two ears share a pull-back")


def count_certificates(monkeypatch) -> list:
    calls = []

    def counted(c, *args):
        calls.append(c)
        return certify_sphere_or_ball(c, *args)

    monkeypatch.setattr("earlab.decompositions.certify_sphere_or_ball", counted)
    return calls


def test_ear_with_a_vertex_outside_K_has_no_key_and_is_certified_alone(monkeypatch):
    dec = ambient_corpus()["bool7-246"]
    _, j = twin_ear(dec)
    ear = dec.ears[j]
    names = dict(ear.coord_names)
    (a,) = [a for a, x in names.items() if x == ear.complex.vertices[0]]
    names[a] = "moved"
    bad = _with_ear(dec, j, coord_names=names)
    _, coord = _coordinate_sphere(dec.ranks)
    assert max(_pulled_back(bad.ears[j], coord)) >= 1 << len(coord)
    assert mask_keys(bad)[j] is None and pulled_back_name_keys(bad)[j] is None
    calls = count_certificates(monkeypatch)
    axioms = ced_axioms(bad)
    assert sum(c is ear.complex for c in calls) == 1
    assert len(calls) == len(set(mask_keys(dec))) + 1
    assert axioms == ced_axioms_certifying_each_ear(bad)


def test_non_injective_copy_has_no_key_and_is_certified_alone(monkeypatch):
    dec = ambient_corpus()["bool7-246"]
    _, j = twin_ear(dec)
    ear = dec.ears[j]
    word = ear.provenance["class_word"]
    sphere, coord = coordinate_sphere_by_names(dec.ranks)
    moved = {v: frozenset(word[i - 1] for i in a) for v, a in zip(sphere.vertices, coord)}
    first, second = sorted(v for v, a in zip(sphere.vertices, coord) if len(a) == 2)[:2]
    names = dict(ear.coord_names)
    names[moved[second]] = names[moved[first]]
    bad = _with_ear(dec, j, coord_names=names)
    assert _pulled_back(bad.ears[j], coord) is None and mask_keys(bad)[j] is None
    calls = count_certificates(monkeypatch)
    axioms = ced_axioms(bad)
    assert sum(c is ear.complex for c in calls) == 1
    assert axioms == ced_axioms_certifying_each_ear(bad)


def test_recolored_twin_fails_alone():
    # one vertex of a repeated ear renamed in its chains and its copy, so
    # only that ear holds it, and given another rank's color: the ear still
    # pulls back onto its twin's masks, but only it fails reciprocity, so a
    # verdict shared by key would be wrong
    dec = ambient_corpus()["bool7-246"]
    i, j = twin_ear(dec)
    ear = dec.ears[j]
    x = ear.complex.vertices[0]
    chains = [tuple("fresh" if v == x else v for v in c) for c in ear.chains]
    names = {a: "fresh" if v == x else v for a, v in ear.coord_names.items()}
    bad = _with_ear(dec, j, chains=chains, shelling=_shelled(chains), coord_names=names)
    colors = reciprocity_colors(dec)
    colors["fresh"] = colors[x] % len(dec.ranks) + 1
    keys = mask_keys(bad)
    assert keys[j] == keys[i] is not None
    rows = reciprocity_rows_per_ear(bad, colors, lenient_reciprocity)
    assert [row["ear"] for row in rows if not row["ok"]] == [j + 1]


# -- h(Δ) as the ear sum ---------------------------------------------------------------


@lru_cache(maxsize=None)
def ear_sum_hosts() -> dict:
    """Each host's number of ranks and its decomposition for a rank set:
    rank-selected B_r (r <= 6), Π4, the flats of U(3,5), and the face
    posets of the acceptance fixtures."""
    hosts = {f"B{r}": (r, partial(decompose_rank_selected_boolean, r)) for r in range(2, 7)}
    pi4, u35 = partition_lattice(4), lattice_of_flats(uniform_matroid(3, 5))
    hosts["Pi4"] = (pi4.rank, partial(decompose_rank_selected_supersolvable, pi4))
    hosts["U35"] = (u35.rank, partial(decompose_geometric, u35))
    for name, facets in FACE_FIXTURES.items():
        c = build_complex(facets)
        hosts[name] = (c.dim + 1, partial(decompose_face_poset, c))
    return hosts


@lru_cache(maxsize=None)
def ear_sum_decomposition(host: str, ranks: tuple[int, ...]):
    _, make = ear_sum_hosts()[host]
    return make(ranks=list(ranks))


@st.composite
def ear_sum_cases(draw):
    host = draw(st.sampled_from(sorted(ear_sum_hosts())))
    rank, _ = ear_sum_hosts()[host]
    ranks = draw(st.frozensets(st.integers(1, rank - 1), min_size=1))
    return ear_sum_decomposition(host, tuple(sorted(ranks)))


@settings(max_examples=120, deadline=None)
@given(ear_sum_cases())
def test_ear_sum_agrees_with_the_h_vector_and_the_concatenated_shelling(dec):
    h_checks = verify_ced(dec)["h_checks"]
    assert h_checks["h"] == list(f_h_vectors(dec.complex)[1])
    assert h_checks["ear_sum"] == h_checks["h"]
    assert h_checks["ear_sum_matches"] is True
    concatenated = _concatenated_histogram(dec.complex, dec.ears)
    assert concatenated is None or list(concatenated) == h_checks["ear_sum"]


def test_ear_with_a_tampered_restriction_face_breaks_the_ear_sum():
    # the ear's shelling is trusted, not re-checked, so the axioms still hold
    # and only the ear sum sees that one restriction face has grown
    dec = ear_sum_decomposition("B5", (2, 4))
    ear = dec.ears[-1]
    grown = (ear.shelling.facet_sequence()[0], *ear.shelling.restrictions[1:])
    bad = _with_ear(dec, len(dec.ears) - 1, shelling=replace(ear.shelling, restrictions=grown))
    report = verify_ced(bad)
    for axiom in ("axiom_union", "axiom_polytope", "axiom_balls", "axiom_boundary", "chain_partition"):
        assert report[axiom]["ok"], axiom
    assert report["h_checks"]["ear_sum"] != report["h_checks"]["h"]
    assert report["h_checks"]["ear_sum_matches"] is False
    assert report["ok"] is False


def test_dropped_ear_fails_the_axioms_and_has_no_ear_sum():
    dec = ear_sum_decomposition("B5", (2, 4))
    report = verify_ced(replace(dec, ears=dec.ears[:-1]))
    assert not report["axiom_union"]["ok"] and report["ok"] is False
    assert "ear_sum" not in report["h_checks"]
    assert "ear_sum_matches" not in report["h_checks"]


# -- the chain partition, decided by verify_ced alone -----------------------------------


@st.composite
def partition_edits(draw):
    """A decomposition from ``ear_sum_cases``, as built or with ear k dropped,
    ear j duplicated at a drawn place, or both (k first, then j among the
    ears left), with the dropped ear (or None) and whether one was
    duplicated."""
    dec = draw(ear_sum_cases())
    edits = ["none", "duplicate"] + (["drop", "both"] if len(dec.ears) > 1 else [])
    edit = draw(st.sampled_from(edits))
    ears = list(dec.ears)
    dropped = ears.pop(draw(st.integers(0, len(ears) - 1))) if edit in ("drop", "both") else None
    if edit in ("duplicate", "both"):
        twin = ears[draw(st.integers(0, len(ears) - 1))]
        ears.insert(draw(st.integers(0, len(ears))), twin)
    return replace(dec, ears=ears), dropped, edit in ("duplicate", "both")


@settings(max_examples=120, deadline=None)
@given(partition_edits())
def test_verify_ced_decides_the_partition_as_the_chain_sets_do(case):
    dec, dropped, duplicated = case
    report = verify_ced(dec)
    union, partition = report["axiom_union"], report["chain_partition"]
    assert (union["ok"] and partition["ok"]) == (not partition_problems(dec))
    if duplicated:
        assert not partition["ok"]
        if dropped is None:
            assert union["ok"] and partition["total"] > partition["facets"]
    if dropped is not None:
        assert union["missing"] and not union["extra"]
        assert {frozenset(f) for f in union["missing"]} <= set(dropped.complex.facets)
    if dropped is None and not duplicated:
        assert union["ok"] and partition["ok"]


def union_and_partition(dec) -> tuple[dict, dict]:
    report = verify_ced(dec)
    return report["axiom_union"], report["chain_partition"]


@settings(max_examples=120, deadline=None)
@given(partition_edits())
def test_counting_decides_union_and_partition_as_listing_delta_does(case):
    dec, _, _ = case
    assert union_and_partition(dec) == union_and_partition_by_listing(dec)


@settings(max_examples=60, deadline=None)
@given(moved_chain_decompositions())
def test_counting_agrees_with_listing_delta_on_moved_chains(dec):
    assert union_and_partition(dec) == union_and_partition_by_listing(dec)


@settings(max_examples=120, deadline=None)
@given(partition_edits())
def test_a_verified_decomposition_lists_delta_by_its_ears(case):
    # reports do not write Δ: flag f counts its facets, and whenever
    # verify_ced holds the ears' chains are those facets
    dec, _, _ = case
    report = verify_ced(dec)
    facets = order_complex(dec.poset).facets
    assert report["chain_partition"]["facets"] == len(facets)
    if report["ok"]:
        assert {frozenset(c) for ear in dec.ears for c in ear.chains} == set(facets)


@st.composite
def non_chain_edits(draw):
    """A decomposition from ``ear_sum_cases`` with one more ear, at a drawn
    place, whose one facet is a drawn chain edited into no maximal chain:
    an element swapped for a foreign one, or for another element of a rank
    the chain already holds, or dropped; with that facet."""
    dec = draw(ear_sum_cases())
    chain = list(draw(st.sampled_from([c for ear in dec.ears for c in ear.chains])))
    k = draw(st.integers(0, len(chain) - 1))
    edits = ["foreign", "same-rank", "short"] if len(chain) > 1 else ["foreign"]
    edit = draw(st.sampled_from(edits))
    if edit == "foreign":
        chain[k] = "foreign"
    elif edit == "same-rank":
        other = draw(st.sampled_from([j for j in range(len(chain)) if j != k]))
        rank = dec.poset.rank_of(chain[other])
        same = [x for x in dec.poset.elements if dec.poset.rank_of(x) == rank]
        chain[k] = draw(st.sampled_from(same))
    else:
        del chain[k]
    ear = Ear(chains=[tuple(chain)], shelling=_shelled([chain]), provenance={})
    ears = list(dec.ears)
    ears.insert(draw(st.integers(0, len(ears))), ear)
    return replace(dec, ears=ears), frozenset(chain)


@settings(max_examples=120, deadline=None)
@given(non_chain_edits())
def test_counting_names_a_non_chain_facet_as_listing_delta_does(case):
    dec, facet = case
    union, partition = union_and_partition(dec)
    assert (union, partition) == union_and_partition_by_listing(dec)
    assert not union["ok"] and not partition["ok"]
    assert facet not in set(order_complex(dec.poset).facets)


@pytest.mark.parametrize("ranks", [
    S for k in range(1, 7) for S in combinations(range(1, 7), k)
], ids=lambda S: "".join(map(str, S)))
def test_coordinate_sphere_masks_are_the_named_spheres_facets(ranks):
    # K as masks over coordinate sets straight from _sphere, and K built
    # as a complex over named sets: one facet set of coordinate sets
    masks, coord = _coordinate_sphere(ranks)
    sphere, named = coordinate_sphere_by_names(ranks)
    assert len(set(coord)) == len(coord) and len(set(masks)) == len(masks)
    assert {frozenset(coord[i] for i in _bits(m)) for m in masks} == {
        frozenset(named[i] for i in _bits(m)) for m in sphere.masks
    }


# -- novelty by copy bitmasks ----------------------------------------------------------


@st.composite
def copy_families(draw):
    """Up to eight copies, each embedding onto a name set over eight names,
    a copy index and a chain drawn from that copy's names."""
    names = st.frozensets(st.sampled_from("abcdefgh"), min_size=1)
    sets = draw(st.lists(names, min_size=1, max_size=8))
    ci = draw(st.integers(0, len(sets) - 1))
    chain = draw(st.lists(st.sampled_from(sorted(sets[ci])), unique=True))
    return [SimpleNamespace(elem=dict(enumerate(sorted(s)))) for s in sets], ci, tuple(chain)


@settings(max_examples=300, deadline=None)
@given(copy_families())
def test_subset_novelty_agrees_with_the_scan(case):
    copies, ci, chain = case
    assert _subset_novelty(copies)(ci, chain) == subset_novelty_scan(copies)(ci, chain)


def _face_poset_reports(c, order, ranks):
    """``decompose_face_poset``'s report (or its refusal) with the one
    novelty rule, and with the restriction rule patched in for it."""
    got = _outcome(lambda: decompose_face_poset(c, order, ranks).to_json())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("earlab.decompositions._subset_novelty", restriction_novelty)
        want = _outcome(lambda: decompose_face_poset(c, order, ranks).to_json())
    return got, want


def _rank_sets(d: int):
    return [S for k in range(1, d) for S in combinations(range(1, d), k)]


@settings(max_examples=60, deadline=None)
@given(shellable_complexes(max_steps=12, min_dim=1, shelled=True))
def test_face_poset_novelty_is_the_restriction_rule(case):
    # in a shelling, no earlier facet holds all of a chain exactly when its
    # top face contains the restriction face
    c, order = case
    for ranks in _rank_sets(c.dim + 1):
        got, want = _face_poset_reports(c, order, ranks)
        assert got == want and isinstance(got, dict)


@pytest.mark.parametrize("name", [*COMPLEX_FIXTURES, "cross4"])
def test_face_poset_novelty_is_the_restriction_rule_on_fixtures(name):
    # the bowtie has no shelling: both routes refuse it alike
    c = cross_polytope_boundary(4) if name == "cross4" else build_complex(COMPLEX_FIXTURES[name])
    for ranks in _rank_sets(c.dim + 1):
        got, want = _face_poset_reports(c, None, ranks)
        assert got == want
        assert isinstance(got, dict) == (name != "bowtie")


# -- spanning forests of the rank's size -----------------------------------------------


@st.composite
def random_graphs(draw):
    """Up to 9 edges on at most 7 vertices, so often disconnected, with
    isolated vertices and parallel pairs."""
    n = draw(st.integers(1, 7))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(edge, max_size=9))


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_graphic_matroid_agrees_with_every_size_from_the_top(graph):
    n, edges = graph
    fast, slow = graphic_matroid(n, edges), graphic_matroid_by_all_sizes(n, edges)
    assert (fast.ground, fast.bases) == (slow.ground, slow.bases)


# -- Boolean copies read off the falling chains of one EL-labeling ------------------------


def _outcome(fn, *args):
    """What ``fn`` returns, or the class and message of the EarlabError it raises."""
    try:
        return fn(*args)
    except EarlabError as exc:
        return type(exc), str(exc)


CHAIN_POSETS = {
    name: FAMILIES[name] for name in ("B1", "B2", "B3", "Pi3", "Pi4", "U24-flats", "bowtie")
}


@st.composite
def labelled_posets(draw):
    """A small family poset or a random bounded one, with labels in
    [-1, 3] on its covers: mostly not EL, often with ties."""
    if draw(st.booleans()):
        p = CHAIN_POSETS[draw(st.sampled_from(sorted(CHAIN_POSETS)))]
    else:
        p = draw(bounded_posets())
    covers = p.cover_pairs()
    values = draw(st.lists(st.integers(-1, 3), min_size=len(covers), max_size=len(covers)))
    return p, EdgeLabeling(p, dict(zip(covers, values)))


@settings(max_examples=200, deadline=None)
@given(labelled_posets())
def test_chain_walk_agrees_with_filtering_every_chain(case):
    """Every ordered pair, so one-cover, empty and incomparable intervals too."""
    p, lab = case
    for x in p.elements:
        for y in p.elements:
            want = _outcome(chains_by_filter, p, lab, x, y)
            assert _outcome(increasing_and_decreasing_chains, p, lab, x, y) == want, (x, y)


@st.composite
def graded_bounded_posets(draw):
    """A bottom, one to three ranks of one to three elements, and a top;
    each element covers a drawn nonempty set of the rank below, and the
    first element of a rank covers every one left uncovered."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    levels = [["bot"], *([f"r{k}.{j}" for j in range(w)] for k, w in enumerate(widths, 1)), ["top"]]
    covers = []
    for lower, upper in zip(levels, levels[1:]):
        for y in upper:
            covers += [(x, y) for x in draw(st.lists(st.sampled_from(lower), min_size=1, unique=True))]
        covered = {x for x, _ in covers}
        covers += [(x, upper[0]) for x in lower if x not in covered]
    return build_poset([e for level in levels for e in level], covers)


@st.composite
def graded_labelled_posets(draw):
    """A graded family poset or a random graded bounded one, with labels in
    [0, 2]: ties in words are common, and so are EL-labelings whose
    intervals include chains, where μ = 0."""
    p = draw(st.sampled_from([CHAIN_POSETS[n] for n in sorted(CHAIN_POSETS)]) | graded_bounded_posets())
    covers = p.cover_pairs()
    values = draw(st.lists(st.integers(0, 2), min_size=len(covers), max_size=len(covers)))
    return p, EdgeLabeling(p, dict(zip(covers, values)))


def _el_outcome(p, lab):
    """verify_el's verdict, and for an EL-labeling check_el's first pair
    without a falling chain, on a labeling that has not walked yet."""
    lab = EdgeLabeling(p, lab.labels)
    ok, witness = verify_el(p, lab)
    return ok, witness, check_el(p, lab) if ok else None


def _el_oracle(p, lab):
    ok, witness = el_by_intervals(p, lab)
    return ok, witness, first_zero_mobius(p) if ok else None


@settings(max_examples=300, deadline=None)
@given(graded_labelled_posets())
def test_el_walk_agrees_with_every_interval_and_the_mobius_recursion(case):
    p, lab = case
    assert _el_outcome(p, lab) == _el_oracle(p, lab)


EL_LABELINGS = {
    "B3": lambda: derive_sn_labeling(boolean_lattice(3)),
    "Pi4": lambda: derive_sn_labeling(_partition_lattice(4)),
    "U34-flats-minimal": lambda: minimal_labeling(lattice_of_flats(uniform_matroid(3, 4))),
    "K4-flats-minimal": lambda: minimal_labeling(Lattice(FAMILIES["K4-flats"])),
    "mu-zero": lambda: derive_sn_labeling(mu_zero_lattice()),
    "chain": lambda: EdgeLabeling(
        build_poset("0ab1", [("0", "a"), ("a", "b"), ("b", "1")]),
        {("0", "a"): 1, ("a", "b"): 2, ("b", "1"): 2},
    ),
}


@pytest.mark.parametrize("name", list(EL_LABELINGS))
def test_el_walk_agrees_on_el_labelings(name):
    """EL-labelings, with and without intervals where μ = 0."""
    lab = EL_LABELINGS[name]()
    want = _el_oracle(lab.poset, lab)
    assert want[0] and (want[2] is None) == (name not in ("mu-zero", "chain"))
    assert _el_outcome(lab.poset, lab) == want


@settings(max_examples=200, deadline=None)
@given(graded_labelled_posets() | labelled_posets(), st.integers(-1, 1))
def test_sr_masks_agree_with_every_maximal_chain(case, shift):
    """Labels moved by ``shift`` so some leave [1, r] from either side."""
    p, lab = case
    lab = EdgeLabeling(p, {c: v + 1 + shift for c, v in lab.labels.items()})
    assert verify_sr(p, lab) == sr_by_maximal_chains(p, lab)


def _poset_parts(q: Poset) -> tuple:
    return q.elements, q.covers, q.ranks, q.graded, q._up, q._down


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subposets_agree_with_leq_by_name(data):
    """Random kept sets of any bounded poset, and random rank sets of a
    graded one, against the subposet built from every pair by name."""
    p = data.draw(bounded_posets())
    keep = data.draw(st.lists(st.sampled_from(p.elements), unique=True))
    assert _poset_parts(induced_subposet(p, keep)) == _poset_parts(induced_subposet_by_names(p, keep))
    g = data.draw(graded_bounded_posets())
    ranks = data.draw(st.lists(st.sampled_from(sorted(set(g.ranks))), min_size=1, unique=True))
    q = rank_select(g, ranks)
    want = induced_subposet_by_names(g, [e for e in g.elements if g.rank_of(e) in ranks])
    assert (q.elements, q.covers, q._up, q._down) == (want.elements, want.covers, want._up, want._down)
    # every element of a bounded graded poset lies on a chain through each rank,
    # so the selection is graded and renumbers the ranks from 1
    assert q.graded and want.graded
    assert q.ranks == tuple(r + 1 for r in want.ranks)


def _copy_pairs(lat, lab):
    return [(c.elem, c.provenance) for c in _supersolvable_copies(lat, lab)]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda r: st.permutations(range(1, r + 1))))
def test_boolean_copies_agree_with_closure_under_any_mchain(perm):
    """In B_r every maximal chain is an M-chain; the drawn one is the
    chain of initial segments of ``perm``."""
    chain = [subset_name(perm[:k]) for k in range(len(perm) + 1)]
    lat = Lattice(boolean_lattice(len(perm)).poset, mchain=chain)
    lab = derive_sn_labeling(lat)
    assert _copy_pairs(lat, lab) == supersolvable_copies_by_closure(lat, lab)


@lru_cache(maxsize=None)
def _partition_lattice(n: int) -> Lattice:
    return partition_lattice(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_partition_copies_agree_with_closure_under_a_permuted_mchain(perm):
    """The standard M-chain of Π_n, (1)(2)...(n) up to (12...n), with [n]
    relabelled by ``perm``: an automorphism keeps it an M-chain."""
    n = len(perm)
    chain = [partition_name([perm[:k]] + [(j,) for j in perm[k:]]) for k in range(1, n + 1)]
    lat = Lattice(_partition_lattice(n).poset, mchain=chain)
    lab = derive_sn_labeling(lat)
    pairs = _copy_pairs(lat, lab)
    assert len(pairs) == factorial(n - 1)
    assert pairs == supersolvable_copies_by_closure(lat, lab)


def _copy_bases(dec) -> list[tuple[str, ...]]:
    """Each copy's basis in copy order, read off the provenance of its ears
    and dropped classes; its atom positions checked against the order."""
    atoms = dec.params["atom_order"]
    by_copy = {}
    for prov in [e.provenance for e in dec.ears] + dec.dropped:
        assert prov["atom_positions"] == [atoms.index(a) + 1 for a in prov["basis"]]
        by_copy[prov["copy_index"]] = tuple(prov["basis"])
    return [by_copy[k] for k in sorted(by_copy)]


def _check_geometric_bases(m: Matroid, order) -> None:
    lat = lattice_of_flats(m)
    atoms = [sorted(lat.atoms())[k] for k in order]
    dec = decompose_geometric(lat, atoms, ranks=[1])
    assert _copy_bases(dec) == geometric_bases_by_joins(lat, atoms)


@st.composite
def simple_graphic_matroids(draw):
    """The cycle matroid of a simple graph on at most 6 vertices with at
    least two edges (so simple, of rank at least 2), and an atom order."""
    n = draw(st.integers(3, 6))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=10, unique=True))
    return graphic_matroid(n, edges), draw(st.permutations(range(len(edges))))


@settings(max_examples=60, deadline=None)
@given(simple_graphic_matroids())
def test_geometric_bases_agree_with_nbc_bases_on_random_graphs(case):
    _check_geometric_bases(*case)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7)
    .flatmap(lambda n: st.tuples(st.integers(2, n), st.permutations(range(n))))
)
def test_geometric_bases_agree_with_nbc_bases_on_uniform_matroids(case):
    r, order = case
    _check_geometric_bases(uniform_matroid(r, len(order)), order)


@pytest.mark.parametrize("name", ["B3", "Pi4"])
def test_copy_cover_with_another_label_is_inconsistent(name):
    """Negative control: relabel one copy cover while the increasing and
    decreasing chains of the whole lattice stay as they were."""
    lat = {"B3": boolean_lattice(3), "Pi4": partition_lattice(4)}[name]
    lab = derive_sn_labeling(lat)
    p, r = lat.poset, lat.rank
    want = increasing_and_decreasing_chains(p, lab, lat.bottom, lat.top)
    tried = 0
    for copy in _supersolvable_copies(lat, lab):
        for a, x in copy.elem.items():
            for b in set(range(1, r + 1)) - a:
                y = copy.elem[a | {b}]
                for v in set(range(-1, r + 2)) - {b}:
                    bad = EdgeLabeling(p, {**lab.labels, (x, y): v})
                    if _outcome(increasing_and_decreasing_chains, p, bad, lat.bottom, lat.top) == want:
                        with pytest.raises(SelfCheckFailed, match="is not a host cover labelled"):
                            _supersolvable_copies(lat, bad)
                        tried += 1
                        break
    assert tried
