"""Tests for flag vectors, the weak order, descent-class dominance,
M-vector machinery, flag inequalities, and ball flag reciprocity."""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlab.errors import BadParams, NotBall, SizeLimit
from earlab.complexes import (
    build_complex,
    face_poset,
    f_h_vectors,
)
from earlab.flags import (
    DOMINANCE_CAP,
    FlagVector,
    _class_masks,
    _match,
    ball_flag_reciprocity,
    corollary_gap_coefficients,
    descent_classes,
    dominance_table,
    dominates,
    flag_f_and_h,
    g_and_m_check,
    g_vector,
    is_m_vector,
    macaulay_pseudopower,
    verify_flag_inequalities,
    verify_h_inequalities,
    w_set,
    weak_leq_by_switches,
)
from earlab.labelings import derive_sn_labeling
from earlab.lattices import boolean_lattice, partition_lattice
from earlab.posets import build_poset, rank_select, with_bounds
from oracles import (
    flag_f_from_complex_fvector,
    flag_h_from_descents,
    h_from_flag_h,
    inversion_mask,
    macaulay_pseudopower_by_scan,
    weak_leq,
)


# -- Flag f and h ---------------------------------------------------------------

def test_flag_vectors_of_boolean_3():
    lat = boolean_lattice(3)
    ff, fh = flag_f_and_h(lat.poset)
    assert ff[()] == 1
    assert ff[{1}] == 3 and ff[{2}] == 3
    assert ff[{1, 2}] == 6
    assert fh[{1}] == 2 and fh[{2}] == 2
    assert fh[{1, 2}] == 1


def test_flag_h_sums_to_h_vector():
    lat = boolean_lattice(3)
    _, fh = flag_f_and_h(lat.poset)
    assert h_from_flag_h(fh) == (1, 4, 1)


def test_flag_h_matches_descent_histogram():
    for lat in (boolean_lattice(4), partition_lattice(4)):
        lab = derive_sn_labeling(lat)
        _, fh = flag_f_and_h(lat.poset)
        byd = flag_h_from_descents(lat.poset, lab)
        assert fh.entries == byd.entries


def test_flag_f_counts_rank_selected_chains():
    # f_S is the number of chains hitting exactly the ranks in S
    lat = boolean_lattice(4)
    ff, _ = flag_f_and_h(lat.poset)
    # one element per subset size: f_{2} counts the C(4,2) middle elements
    assert ff[{2}] == 6
    # pairs rank1 < rank3: 4 singletons, each inside 3 triples
    assert ff[{1, 3}] == 12


def test_flag_vectors_need_bounds():
    from earlab.posets import proper_part

    with pytest.raises(BadParams):
        flag_f_and_h(proper_part(boolean_lattice(3).poset))


def test_flag_vectors_need_rank_at_least_one():
    # one element is its own bottom and top, so no rank set lies between
    with pytest.raises(BadParams, match="rank at least 1"):
        flag_f_and_h(build_poset(["a"], []))


# -- h-vector side -----------------------------------------------------------------

def test_g_vector_takes_lower_half_differences():
    assert g_vector((1, 4, 1)) == (1, 3)
    assert g_vector((1, 11, 11, 1)) == (1, 10)
    assert g_vector((1, 7, 2)) == (1, 6)
    assert g_vector((1,)) == (1,)


def test_macaulay_pseudopower_values():
    # 3 in degree 1 is C(3,1), so the bound is C(4,2)
    assert macaulay_pseudopower(3, 1) == 6
    # 4 in degree 2 is C(3,2)+C(1,1); bound C(4,3)+C(2,2) = 5
    assert macaulay_pseudopower(4, 2) == 5
    assert macaulay_pseudopower(0, 3) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**5), st.integers(1, 6))
def test_macaulay_pseudopower_bisection_agrees_with_the_scan(a, i):
    assert macaulay_pseudopower(a, i) == macaulay_pseudopower_by_scan(a, i)


def test_macaulay_pseudopower_finds_each_n_in_logarithmically_many_binomials(monkeypatch):
    # a scan for the degree-1 term of a million would evaluate a million binomials
    calls = []

    def counted(n, k):
        calls.append(n)
        return comb(n, k)

    monkeypatch.setattr("earlab.flags.comb", counted)
    assert macaulay_pseudopower(10**6, 1) == comb(10**6 + 1, 2)
    assert 0 < len(calls) < 1000


def test_is_m_vector_accepts_polynomial_growth():
    assert is_m_vector((1,))
    assert is_m_vector((1, 3, 6, 10))
    assert is_m_vector((1, 100))  # degree-1 entry is unconstrained
    assert is_m_vector((1, 2, 3, 4, 5))


def test_is_m_vector_rejects_bad_sequences():
    assert not is_m_vector(())
    assert not is_m_vector((2, 1))
    assert not is_m_vector((1, -1))
    assert not is_m_vector((1, 0, 2))  # nothing grows back from zero
    assert not is_m_vector((1, 2, 4))  # 4 > pseudopower(2, 1) = 3


def test_g_and_m_check_on_corpus_h_vectors():
    for h in [(1, 4, 1), (1, 6, 5), (1, 11, 6), (1, 7, 2), (1, 11, 11, 1)]:
        g, ok = g_and_m_check(h)
        assert ok, (h, g)


def test_verify_h_inequalities_passes_decomposition_h():
    for h in [(1, 4, 1), (1, 6, 5), (1, 11, 6), (1, 7, 2)]:
        ok, failures = verify_h_inequalities(h)
        assert ok, failures


def test_verify_h_inequalities_reports_failures():
    ok, failures = verify_h_inequalities((1, 0, 3))
    assert not ok
    assert any("growth" in f for f in failures)
    ok2, failures2 = verify_h_inequalities((2, 1, 1))
    assert not ok2
    assert any("symmetry" in f for f in failures2)


# -- Weak order ---------------------------------------------------------------------

def test_inversion_mask_counts():
    assert inversion_mask((1, 2, 3)) == 0
    assert bin(inversion_mask((3, 2, 1))).count("1") == 3


def test_inversion_mask_rejects_non_permutation():
    with pytest.raises(BadParams):
        inversion_mask((1, 1, 2))


def test_weak_order_identity_below_reversal():
    assert weak_leq((1, 2, 3, 4), (4, 3, 2, 1))
    assert not weak_leq((4, 3, 2, 1), (1, 2, 3, 4))


def test_weak_order_incomparable_pair():
    assert not weak_leq((2, 1, 3), (1, 3, 2))
    assert not weak_leq((1, 3, 2), (2, 1, 3))


@settings(max_examples=120, deadline=None)
@given(
    st.permutations(list(range(1, 5))),
    st.permutations(list(range(1, 5))),
)
def test_property_weak_order_matches_switch_oracle(sigma, tau):
    want = weak_leq_by_switches(sigma, tau)
    assert weak_leq(sigma, tau) == want


def test_weak_order_switch_oracle_on_all_of_s3():
    perms = list(permutations((1, 2, 3)))
    for s in perms:
        for t in perms:
            assert weak_leq(s, t) == weak_leq_by_switches(s, t)


# -- Descent classes and dominance ------------------------------------------------------

def test_descent_classes_partition_the_group():
    for m in (3, 4, 5):
        classes = descent_classes(m)
        assert sum(len(v) for v in classes.values()) == [6, 24, 120][m - 3]


def test_descent_class_sizes_s4():
    classes = descent_classes(4)
    assert len(classes[frozenset()]) == 1
    assert len(classes[frozenset({1})]) == 3
    assert len(classes[frozenset({1, 3})]) == 5
    assert len(classes[frozenset({1, 2, 3})]) == 1


def test_descent_classes_respect_cap():
    with pytest.raises(SizeLimit):
        descent_classes(9)


def test_dominance_13_over_1_in_s4():
    ok, inj = dominates({1, 3}, {1}, 4)
    assert ok
    # injection maps each tau upward in weak order into D_{1,3}
    assert len(inj) == 3
    assert len(set(inj.values())) == 3
    for tau, sigma in inj.items():
        assert weak_leq(tau, sigma)
        from earlab.flags import descent_set as ds

        assert ds(tau) == frozenset({1})
        assert ds(sigma) == frozenset({1, 3})


def test_dominance_fails_by_cardinality():
    ok, inj = dominates({1}, {1, 3}, 4)
    assert not ok and inj is None


def test_dominance_12_over_1_in_s5():
    # the Gorenstein* counterexample pair: dominance still holds in the
    # Cohen-Macaulay world
    ok, _ = dominates({1, 2}, {1}, 5)
    assert ok


def test_everything_dominates_empty():
    for S in [{1}, {2}, {1, 2}]:
        ok, inj = dominates(S, set(), 3)
        assert ok
        assert len(inj) == 1  # identity permutation mapped somewhere above


def test_empty_dominates_nothing_else():
    ok, _ = dominates(set(), {1}, 3)
    assert not ok


def test_dominates_cap_and_range():
    with pytest.raises(SizeLimit):
        dominates({1}, set(), 9)
    with pytest.raises(BadParams):
        dominates({7}, set(), 4)


def test_dominates_checks_positions_before_building_the_classes(monkeypatch):
    def refuse(*args):
        raise AssertionError("class masks built")

    monkeypatch.setattr("earlab.flags._class_masks", refuse)
    with pytest.raises(BadParams):
        dominates({9}, {1}, 8)
    with pytest.raises(BadParams):
        dominates({1}, {0}, 8)


def test_dominance_is_reflexive_like_on_classes():
    # S dominates itself via the identity injection
    ok, inj = dominates({2}, {2}, 4)
    assert ok
    assert all(weak_leq(t, s) for t, s in inj.items())


def test_dominance_table_needs_the_cap():
    # _class_masks checks the cap itself, as it never calls descent_classes
    for fn in (_class_masks, dominance_table):
        with pytest.raises(SizeLimit):
            fn(DOMINANCE_CAP + 1)


def test_negative_m_is_refused():
    for fn in (descent_classes, _class_masks, dominance_table):
        with pytest.raises(BadParams):
            fn(-1)
    with pytest.raises(BadParams):
        dominates(set(), set(), -1)
    # S_0 has one class, the empty permutation's
    assert descent_classes(0) == {frozenset(): [()]}
    assert dominance_table(0) == {(frozenset(), frozenset())}


def test_dominance_table_holds_the_diagonal_and_the_s4_pairs():
    table = dominance_table(4)
    subsets = [frozenset(S) for k in range(4) for S in combinations((1, 2, 3), k)]
    assert all((S, S) in table for S in subsets)
    assert (frozenset({1, 3}), frozenset({1})) in table
    assert (frozenset({1}), frozenset({1, 3})) not in table
    assert len(table) - len(subsets) == 11


def test_flag_inequalities_read_the_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-pair dominance reached")

    monkeypatch.setattr("earlab.flags.dominates", refuse)
    report = verify_flag_inequalities(boolean_lattice(4).poset)
    assert len(report["pairs"]) == 11 and report["violations"] == 0


def test_matching_follows_an_augmenting_path_past_the_recursion_limit():
    # u_i takes the free i in turn, leaving u_1499 only the taken 0; its
    # augmenting path then runs through all 1500 left vertices
    cands = [0b11 << i for i in range(1499)] + [0b1]
    assert _match(cands) == [i + 1 for i in range(1499)] + [0]


# -- w(S) ----------------------------------------------------------------------------------

def test_w_set_examples():
    assert w_set({2, 3}, 4) == frozenset({1, 3})
    assert w_set({1, 2}, 4) == frozenset({2})
    assert w_set({1}, 4) == frozenset({1})
    assert w_set(set(), 4) == frozenset()


def test_w_set_obstruction_for_gorenstein_pair():
    # S={1,2} dominates T={1}, yet w(T) is not inside w(S): the dominance
    # inequality cannot extend to all Gorenstein* posets
    S, T = {1, 2}, {1}
    assert not (w_set(T, 4) <= w_set(S, 4))


def test_w_set_range_check():
    with pytest.raises(BadParams):
        w_set({9}, 4)


# -- Flag inequality suite --------------------------------------------------------------------

def _dominance_object(c):
    """Face poset with the empty face and facet rank dropped, bounded."""
    fp = face_poset(c, include_empty=True, graded=True)
    return with_bounds(rank_select(fp, range(1, c.dim + 1)))


def test_flag_inequalities_on_two_triangles():
    c = build_complex([["a", "b", "c"], ["a", "b", "d"]])
    report = verify_flag_inequalities(_dominance_object(c))
    assert report["violations"] == 0
    assert report["rho"] == 3
    assert all(p["ok"] for p in report["pairs"])


def test_flag_inequalities_on_tetra_boundary():
    c = build_complex(
        [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
    )
    report = verify_flag_inequalities(_dominance_object(c))
    assert report["violations"] == 0


def test_flag_inequalities_cap():
    chain = build_poset([str(i) for i in range(10)], [(str(i), str(i + 1)) for i in range(9)])
    with pytest.raises(SizeLimit):
        verify_flag_inequalities(chain)


# -- Ball flag reciprocity ----------------------------------------------------------------------

def test_reciprocity_on_a_colored_path():
    # a 1-ball: path a1 - b1 - a2 with alternating colors
    ear = build_complex([["a1", "b1"], ["b1", "a2"]])
    colors = {"a1": 1, "b1": 2, "a2": 1}
    assert ball_flag_reciprocity(ear, colors)


def test_reciprocity_on_a_colored_circle():
    # a 1-sphere: 4-cycle with alternating colors; the Euler-characteristic
    # correction term kicks in
    ear = build_complex([["a1", "b1"], ["b1", "a2"], ["a2", "b2"], ["b2", "a1"]])
    colors = {"a1": 1, "a2": 1, "b1": 2, "b2": 2}
    assert ball_flag_reciprocity(ear, colors)


def test_reciprocity_rejects_uncolored_facet():
    ear = build_complex([["a1", "a2"]])
    with pytest.raises(NotBall):
        ball_flag_reciprocity(ear, {"a1": 1, "a2": 1})


def test_reciprocity_rejects_a_recolored_facet():
    # the colored circle with b2 recolored 1: its two facets miss color 2
    ear = build_complex([["a1", "b1"], ["b1", "a2"], ["a2", "b2"], ["b2", "a1"]])
    colors = {"a1": 1, "a2": 1, "b1": 2, "b2": 1}
    with pytest.raises(NotBall, match="facet misses a rank color"):
        ball_flag_reciprocity(ear, colors)


# -- Complex-side flag f and the gap coefficients ---------------------------------------------------

def test_flag_f_from_fvector_matches_direct_count():
    c = build_complex([["a", "b", "c"], ["a", "b", "d"]])
    fK, _ = f_h_vectors(c)
    fp = with_bounds(
        rank_select(face_poset(c, include_empty=True, graded=True), [1, 2, 3])
    )
    ff, _ = flag_f_and_h(fp)
    for k in range(4):
        for S in combinations((1, 2, 3), k):
            assert flag_f_from_complex_fvector(fK, S) == ff[S], S


def test_gap_coefficients_identity():
    # h_S - h_T of the face-poset order complex expands exactly in h(K), for
    # every S, T ⊆ [1, d]: 16 + 16 + 64 + 256 pairs
    for facets in (
        [["a", "b", "c"], ["a", "b", "d"]],
        [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]],
        [[s + str(i) for i, s in enumerate(signs, 1)] for signs in product("np", repeat=4)],
        [["a", "b", "c", "d", "e"]],
    ):
        K = build_complex(facets)
        d = K.dim
        fK, hK = f_h_vectors(K)
        fp = with_bounds(
            rank_select(face_poset(K, include_empty=True, graded=True), range(1, d + 2))
        )
        _, fh = flag_f_and_h(fp)
        ranks = range(1, d + 1)
        subs = [frozenset(s) for k in range(d + 1) for s in combinations(ranks, k)]
        for S in subs:
            for T in subs:
                a = corollary_gap_coefficients(S, T, d)
                lhs = fh.get(S) - fh.get(T)
                rhs = sum(ai * hK[i] for i, ai in enumerate(a))
                assert lhs == rhs, (sorted(S), sorted(T))


def test_gap_coefficients_nonnegative_for_dominating_pair():
    # ({1}, {}) dominates, and the constant coefficient is d - 1
    for d in (2, 3, 4):
        a = corollary_gap_coefficients({1}, set(), d)
        assert a[0] == d - 1
        assert all(x >= 0 for x in a)


def test_gap_coefficients_range_check():
    for bad in (5, 4, 0):
        with pytest.raises(BadParams, match=r"rank sets must lie in \[1, 3\]"):
            corollary_gap_coefficients({bad}, set(), 3)
