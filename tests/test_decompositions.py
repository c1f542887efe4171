"""Tests for the ear decompositions: class words and their spheres (and
the classifier word of the test oracles), the five constructions, the
axiom verifier, switch closure, and the membership oracles that re-derive
ear contents by an independent route."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import permutations

import pytest

from earlab.errors import (
    EmptySelection,
    Inconsistent,
    LabelingInvalid,
    NonzeroMobiusViolated,
    RangeError,
    TopRankSelected,
)
from earlab.complexes import (
    SimplicialComplex,
    boundary_complex,
    build_complex,
    certify_sphere_or_ball,
    h_from_shelling,
    verify_shelling,
)
from earlab.decompositions import (
    Ear,
    EarDecomposition,
    _descent_class,
    _sphere,
    decompose_face_poset,
    decompose_geometric,
    decompose_rank_selected_boolean,
    decompose_rank_selected_supersolvable,
    decompose_supersolvable,
    intervals_of,
    verify_ced,
)
from earlab.flags import ball_flag_reciprocity, descent_classes
from earlab.labelings import EdgeLabeling, descent_set, minimal_labeling
from earlab.lattices import Lattice, boolean_lattice, partition_lattice
from earlab.matroids import graphic_matroid, lattice_of_flats, uniform_matroid
from earlab.posets import build_poset, canonical_dumps, mobius
from oracles import (
    _concatenated_histogram,
    _frame_of,
    ear_coords,
    reference_sphere,
    sigma_word,
    switch_closure_violations,
)


# -- Fixtures ------------------------------------------------------------------

def two_triangle_flats():
    return lattice_of_flats(
        graphic_matroid(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    )


def two_triangles():
    return build_complex([["a", "b", "c"], ["a", "b", "d"]])


def tetra_boundary():
    return build_complex(
        [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
    )


def rank_colors(dec: EarDecomposition) -> dict[str, int]:
    return {v: dec.poset.rank_of(v) for e in dec.ears for v in e.complex.vertices}


# -- Class words, spheres and the classifier word ----------------------------------

def test_intervals_of():
    assert intervals_of([1, 2, 3]) == [(1, 3)]
    assert intervals_of([1, 3]) == [(1, 1), (3, 3)]
    assert intervals_of([2, 3, 5]) == [(2, 3), (5, 5)]


def test_sphere_examples():
    # word 2 1 4 3 at ranks {1, 3} fixes {1, 2} at rank 2; each interval
    # takes one letter of its pool, the larger first
    assert _sphere((2, 1, 4, 3), (1, 3)) == [
        ({2}, {1, 2, 4}), ({2}, {1, 2, 3}), ({1}, {1, 2, 4}), ({1}, {1, 2, 3})
    ]
    # one interval: the chains of [3] rise through 3, 2, 1 largest first
    assert _sphere((3, 2, 1), (1, 2)) == [
        ({3}, {2, 3}), ({3}, {1, 3}), ({2}, {2, 3}), ({2}, {1, 2}), ({1}, {1, 3}), ({1}, {1, 2})
    ]
    assert _descent_class(4, (1, 3)) == [(2, 1, 4, 3), (3, 1, 4, 2), (3, 2, 4, 1), (4, 1, 3, 2), (4, 2, 3, 1)]


def test_sigma_word_examples():
    # flag {2} < {1,2,4} in a B_4 copy, ranks {1,3}
    assert sigma_word([{2}, {1, 2, 4}], [1, 3], 4) == (2, 1, 4, 3)
    assert sigma_word([{3}, {1, 3, 4}], [1, 3], 4) == (3, 1, 4, 2)
    # full selection: the word just reads the flag
    assert sigma_word([{2}, {2, 3}], [1, 2], 3) == (3, 2, 1)


def test_sigma_word_descents_equal_selection():
    for r, S in [(4, (1, 3)), (4, (2,)), (5, (2, 4))]:
        dec = decompose_rank_selected_boolean(r, S)
        for ear in dec.ears:
            for fl in ear_coords(ear):
                assert descent_set(sigma_word(fl, S, r)) == frozenset(S)


def test_sigma_word_rejects_empty_selection():
    with pytest.raises(EmptySelection):
        sigma_word([], [], 3)


def test_sigma_word_is_lex_least_compatible_classifier():
    # the classifier of a chain is the smallest descent-class word whose
    # implied frame (fixed elements at unselected ranks) nests with it
    for r, S in [(4, (1, 3)), (4, (2,)), (5, (1, 3))]:
        dec = decompose_rank_selected_boolean(r, S)
        words = sorted(
            w for w in permutations(range(1, r + 1))
            if descent_set(w) == frozenset(S)
        )
        for ear in dec.ears:
            for fl in ear_coords(ear):

                def nests(w) -> bool:
                    flag = dict(zip(S, fl))
                    flag.update(_frame_of(w, S, r))
                    items = sorted(flag.items())
                    return all(a[1] <= b[1] for a, b in zip(items, items[1:]))

                least = min(w for w in words if nests(w))
                assert sigma_word(fl, S, r) == least
                assert list(least) == ear.provenance["class_word"]


# -- Rank-selected Boolean ---------------------------------------------------------

def test_boolean_ear_count_is_descent_class_size():
    for r, S in [(3, (1,)), (3, (2,)), (4, (1, 3)), (4, (2,)), (5, (2, 4))]:
        dec = decompose_rank_selected_boolean(r, S)
        assert len(dec.ears) == len(descent_classes(r)[frozenset(S)])


def test_boolean_r4_s13_frozen_values():
    dec = decompose_rank_selected_boolean(4, [1, 3])
    assert len(dec.ears) == 5
    report = verify_ced(dec)
    assert report["ok"], report
    assert report["h_checks"]["h"] == [1, 6, 5]


def test_boolean_first_ear_is_whole_sphere():
    dec = decompose_rank_selected_boolean(4, [1, 3])
    assert dec.ears[0].complex == reference_sphere(dec, 0)
    assert verify_ced(dec)["axiom_polytope"]["per_ear"][0]["equals_ambient"] is True


def test_boolean_rank_guards():
    with pytest.raises(EmptySelection):
        decompose_rank_selected_boolean(3, [])
    with pytest.raises(RangeError):
        decompose_rank_selected_boolean(3, [3])  # top rank of B_3 is off-limits


def test_boolean_rank_nine_is_not_capped_by_descent_classes():
    # descent_classes stops at m = 8; the ears build their class words
    # run by run instead
    dec = decompose_rank_selected_boolean(9, [4])
    assert len(dec.ears) == 125
    assert verify_ced(dec)["ok"]


def test_boolean_full_selection_matches_supersolvable():
    a = decompose_rank_selected_boolean(4, [1, 2, 3])
    b = decompose_supersolvable(boolean_lattice(4))
    assert {c for e in a.ears for c in e.chains} == {
        c for e in b.ears for c in e.chains
    }


# -- Supersolvable ------------------------------------------------------------------

def test_supersolvable_ear_count_is_mobius():
    for lat in (boolean_lattice(3), partition_lattice(3), partition_lattice(4)):
        dec = decompose_supersolvable(lat)
        p = lat.poset
        assert len(dec.ears) == abs(mobius(p, p.bottom, p.top))


def test_supersolvable_frozen_h_vectors():
    cases = [
        (boolean_lattice(3), [1, 4, 1]),
        (boolean_lattice(4), [1, 11, 11, 1]),
        (partition_lattice(4), [1, 11, 6]),
    ]
    for lat, h in cases:
        dec = decompose_supersolvable(lat)
        report = verify_ced(dec)
        assert report["ok"], report
        assert report["h_checks"]["h"] == h


def test_supersolvable_ear_sum_matches_the_h_vector():
    for lat, h in ((boolean_lattice(3), [1, 4, 1]), (partition_lattice(4), [1, 11, 6])):
        report = verify_ced(decompose_supersolvable(lat))
        assert report["h_checks"]["ear_sum"] == h
        assert report["h_checks"]["ear_sum_matches"] is True


def _chain_lattice() -> Lattice:
    return Lattice(
        build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")]), mchain=["0", "a", "1"]
    )


def mu_zero_lattice() -> Lattice:
    """Rank 3: atoms a, b, c; coatoms d = a ∨ b and e = b ∨ c; μ(0, 1) = 0.
    Supersolvable with the M-chain 0 < b < d < 1."""
    covers = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "d"), ("b", "d"),
              ("b", "e"), ("c", "e"), ("d", "1"), ("e", "1")]
    return Lattice(build_poset(["0", "a", "b", "c", "d", "e", "1"], covers),
                   mchain=["0", "b", "d", "1"])


def test_supersolvable_constructions_need_nonzero_mobius():
    for lat in (_chain_lattice(), mu_zero_lattice()):
        for run in (
            lambda: decompose_supersolvable(lat),
            lambda: decompose_rank_selected_supersolvable(lat, ranks=[1]),
        ):
            with pytest.raises(NonzeroMobiusViolated, match=r"mobius\('0', '1'\) = 0"):
                run()


@pytest.mark.parametrize("labels, error", [
    ((2, 1), r"not an EL-labeling on \['0', '1'\]: 0 weakly increasing chains"),
    ((1, 1), "labeling is EL but not an S_r labeling"),
], ids=["not-el", "not-sr"])
def test_labeling_errors_come_before_the_zero_mobius_one(labels, error):
    """μ(0, 1) = 0 on the chain, but a given labeling's own failure is reported."""
    lat = _chain_lattice()
    lab = EdgeLabeling(lat.poset, dict(zip(lat.poset.cover_pairs(), labels)))
    with pytest.raises(LabelingInvalid, match=error):
        decompose_supersolvable(lat, lab)


def test_supersolvable_decomposition_reads_nonzero_mobius_off_the_el_walk(monkeypatch):
    """The one μ left is the count check on the falling chains of [0, 1];
    no comparable pair is tested by the recursion."""
    import earlab

    calls = []
    real = earlab.posets.mobius

    def counted(p, x, y):
        calls.append((x, y))
        return real(p, x, y)

    for module in vars(earlab).values():
        if getattr(module, "mobius", None) is real:
            monkeypatch.setattr(module, "mobius", counted)
    lat = partition_lattice(5)
    decompose_supersolvable(lat)
    assert calls == [(lat.bottom, lat.top)]


def test_rank_selected_supersolvable_pi4():
    lat = partition_lattice(4)
    for S, h, n_dropped in [((1,), [1, 5], 7), ((2,), [1, 6], 6)]:
        dec = decompose_rank_selected_supersolvable(lat, ranks=S)
        report = verify_ced(dec)
        assert report["ok"], report
        assert report["h_checks"]["h"] == h
        assert len(dec.dropped) == n_dropped
        # dropped classes keep their provenance for the audit trail
        assert all("class_word" in d for d in dec.dropped)


def test_rank_selected_supersolvable_full_selection_is_full_decomposition():
    lat = partition_lattice(4)
    a = decompose_rank_selected_supersolvable(lat, ranks=[1, 2])
    b = decompose_supersolvable(lat)
    assert [e.chains for e in a.ears] == [e.chains for e in b.ears]


def test_rank_selected_supersolvable_agrees_with_boolean_engine():
    lat = boolean_lattice(4)
    a = decompose_rank_selected_supersolvable(lat, ranks=[1, 3])
    b = decompose_rank_selected_boolean(4, [1, 3])
    assert {c for e in a.ears for c in e.chains} == {
        c for e in b.ears for c in e.chains
    }


# -- Face posets ----------------------------------------------------------------------

def test_face_poset_two_triangles_selections():
    c = two_triangles()
    for S, ears, h in [((1, 2), 2, [1, 7, 2]), ((1,), 3, [1, 3]), ((2,), 4, [1, 4])]:
        dec = decompose_face_poset(c, ranks=S)
        assert len(dec.ears) == ears
        report = verify_ced(dec)
        assert report["ok"], report
        assert report["h_checks"]["h"] == h


def test_face_poset_rejects_top_rank():
    c = build_complex([["a", "b", "c"]])
    with pytest.raises(TopRankSelected):
        decompose_face_poset(c, ranks=[2, 3])
    with pytest.raises(TopRankSelected):
        decompose_face_poset(c, ranks=[3])


def test_face_poset_accepts_given_shelling():
    c = two_triangles()
    dec = decompose_face_poset(c, shelling=[1, 0], ranks=[1, 2])
    assert verify_ced(dec)["ok"]


def test_face_poset_novelty_requires_restriction_in_top_face():
    # a selected chain is new exactly when its top face contains the
    # restriction face of the shelling step that spawned its copy
    c = two_triangles()
    dec = decompose_face_poset(c, ranks=[1, 2])
    d = c.dim + 1
    for ear in dec.ears:
        restr = ear.provenance["restriction"]
        req = (
            frozenset()
            if restr == "0"
            else frozenset(restr.split("+"))
        )
        for fl in ear_coords(ear):
            placement = ear.provenance["vertex_order"]
            top_face = {placement[k - 1] for k in fl[-1]}
            assert req <= top_face


# -- Geometric ---------------------------------------------------------------------------

def test_geometric_ear_count_is_nbc_count():
    from earlab.matroids import nbc_bases

    cases = [
        (uniform_matroid(2, 3), 2),
        (uniform_matroid(2, 4), 3),
        (uniform_matroid(3, 4), 3),
    ]
    for m, count in cases:
        lat = lattice_of_flats(m)
        dec = decompose_geometric(lat)
        assert len(dec.ears) == count == len(nbc_bases(m))


def test_geometric_two_triangle_values():
    lat = two_triangle_flats()
    dec = decompose_geometric(lat)
    assert len(dec.ears) == 4
    report = verify_ced(dec)
    assert report["ok"], report
    assert report["h_checks"]["h"] == [1, 9, 4]


def test_geometric_rank_selected():
    lat = two_triangle_flats()
    for S, ears, dropped, h in [((1,), 4, 4, [1, 4]), ((2,), 5, 3, [1, 5])]:
        dec = decompose_geometric(lat, ranks=S)
        assert (len(dec.ears), len(dec.dropped)) == (ears, dropped)
        report = verify_ced(dec)
        assert report["ok"], report
        assert report["h_checks"]["h"] == h


def test_geometric_membership_oracle():
    # a copy's chain belongs to its ear exactly when the basis-position word
    # agrees with the minimal labeling word along the chain, whatever the
    # atom order
    k4 = graphic_matroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    lats = (lattice_of_flats(uniform_matroid(2, 4)), two_triangle_flats(), lattice_of_flats(k4))
    cases = [(lat, order) for lat in lats for order in (None, sorted(lat.atoms(), reverse=True))]
    for lat, atom_order in cases:
        dec = decompose_geometric(lat, atom_order)
        lab = minimal_labeling(lat, dec.params["atom_order"])
        r = lat.rank
        for ear in dec.ears:
            pos = ear.provenance["atom_positions"]
            chain_set = {tuple(c) for c in ear.chains}
            for pi in permutations(range(1, r + 1)):
                full = [ear.coord_names[frozenset(pi[:k])] for k in range(r + 1)]
                nu = tuple(pos[k - 1] for k in pi)
                lam = lab.word(full)
                assert (tuple(full[1:-1]) in chain_set) == (nu == lam)


def test_geometric_boolean_lattice_reduces_to_single_ear():
    # flats of U_{3,3} form B_3; one nbc basis, one ear
    dec = decompose_geometric(lattice_of_flats(uniform_matroid(3, 3)))
    assert len(dec.ears) == 1


# -- Axiom verifier --------------------------------------------------------------------------

def test_verify_ced_report_shape():
    dec = decompose_supersolvable(boolean_lattice(3))
    report = verify_ced(dec)
    for key in (
        "axiom_union",
        "axiom_polytope",
        "axiom_balls",
        "axiom_boundary",
        "chain_partition",
        "h_checks",
    ):
        assert key in report
    assert report["axiom_balls"]["kinds"][0] == "SPHERE"
    assert all(k == "BALL" for k in report["axiom_balls"]["kinds"][1:])


def test_boundary_characterization_oracle():
    # a face of a later ear lies on its boundary exactly when some earlier
    # ear's facet also contains it
    dec = decompose_rank_selected_boolean(4, [1, 3])
    earlier_facets: list[frozenset[str]] = []
    for i, ear in enumerate(dec.ears):
        if i > 0:
            bd_faces = boundary_complex(ear.complex).faces()
            for face in ear.complex.faces():
                in_earlier = any(face <= g for g in earlier_facets)
                assert (face in bd_faces) == in_earlier, (i, sorted(face))
        earlier_facets.extend(ear.complex.facets)


def square_and_path() -> EarDecomposition:
    """A square boundary sphere plus a path that overlaps it along a whole
    facet, as handmade ears with no class word."""
    sphere = build_complex([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    path = build_complex([["a", "c"], ["c", "d"]])
    return EarDecomposition(
        construction="handmade",
        params={},
        poset=None,
        ears=[
            Ear(
                chains=[("q1",), ("q2",), ("q3",), ("q4",)],
                shelling=verify_shelling(sphere, [0, 1, 2, 3]),
                provenance={},
            ),
            Ear(
                chains=[("q5",)],
                shelling=verify_shelling(path, [0, 1]),
                provenance={},
            ),
        ],
        dropped=[],
        ranks=(1,),
        rho=2,
    )


def test_fake_decomposition_fails_boundary_axiom():
    # the path's intersection with the square is bigger than the path's
    # boundary, which axiom checking must catch with a face witness
    fake = square_and_path()
    report = verify_ced(fake)
    assert not report["ok"]
    assert report["axiom_boundary"] == {
        "ok": False, "witnesses": [{"ear": 2, "faces": [["c"], ["c", "d"]]}]
    }
    # handmade ears carry no class word, so they have no reference sphere
    no_sphere = {"ambient_is_sphere": False, "full_dimensional": False, "subcomplex": False}
    assert report["axiom_polytope"]["per_ear"] == [
        {"ear": 1, **no_sphere, "equals_ambient": False},
        {"ear": 2, **no_sphere, "proper": False},
    ]


def test_verify_ced_lets_programming_errors_propagate(monkeypatch):
    # only EarlabError becomes UNCERTIFIED(...); anything else is a bug
    def broken(*args, **kwargs):
        raise TypeError("bug in the certifier")

    monkeypatch.setattr("earlab.decompositions.certify_sphere_or_ball", broken)
    dec = decompose_rank_selected_boolean(3, [1])
    with pytest.raises(TypeError, match="bug in the certifier"):
        verify_ced(dec)


def test_verify_ced_certifies_the_first_ear_once(monkeypatch):
    # ear 1 equals its ambient sphere, so one SPHERE certificate serves both
    calls = []

    def counted(c, *args):
        calls.append(c)
        return certify_sphere_or_ball(c, *args)

    monkeypatch.setattr("earlab.decompositions.certify_sphere_or_ball", counted)
    dec = decompose_supersolvable(boolean_lattice(4))
    report = verify_ced(dec)
    assert report["ok"] and report["axiom_balls"]["kinds"] == ["SPHERE"]
    assert len(calls) == 1
    # with several ears, ear 1 still stands in for the coordinate sphere
    calls.clear()
    dec = decompose_rank_selected_boolean(4, [1, 3])
    assert verify_ced(dec)["ok"]
    assert len(calls) == len(dec.ears)


def test_verify_ced_certifies_each_distinct_pulled_back_ear_once(monkeypatch):
    # rank-boolean (7, {2, 4, 6}): 272 ears pull back onto 13 distinct facet
    # sets of K, and ear 1 is K's whole image, so 13 certificates serve all
    calls = []

    def counted(c, *args):
        calls.append(c)
        return certify_sphere_or_ball(c, *args)

    monkeypatch.setattr("earlab.decompositions.certify_sphere_or_ball", counted)
    dec = decompose_rank_selected_boolean(7, [2, 4, 6])
    report = verify_ced(dec)
    assert report["ok"] and len(dec.ears) == 272
    assert len(calls) == 13


def _count_calls(monkeypatch, fn):
    """Record the complex of every call to ``fn`` from either module."""
    calls = []

    def counted(c, *args):
        calls.append(c)
        return fn(c, *args)

    for module in ("earlab.complexes", "earlab.decompositions"):
        monkeypatch.setattr(f"{module}.{fn.__name__}", counted)
    return calls


def test_verify_ced_shells_nothing(monkeypatch):
    # every ear arrives with a verified shelling, and the ear sum reads h(Δ)
    # off those, so Δ is never shelled in the concatenated order
    one = decompose_supersolvable(boolean_lattice(4))
    many = decompose_supersolvable(partition_lattice(4))
    calls = _count_calls(monkeypatch, verify_shelling)
    assert verify_ced(one)["ok"]
    assert verify_ced(many)["ok"]
    assert len(many.ears) > 1 and calls == []


def test_verify_ced_builds_no_complex(monkeypatch):
    # the union axiom reads the ears' own facet objects and K is only masks,
    # so verify_ced builds no complex, for one ear and for many
    one = decompose_supersolvable(boolean_lattice(4))
    many = decompose_supersolvable(partition_lattice(4))
    assert len(one.ears) == 1 < len(many.ears)
    for dec in (one, many):
        calls = _count_calls(monkeypatch, build_complex)
        assert verify_ced(dec)["ok"]
        assert calls == []


def test_verify_ced_constructs_no_complex_and_no_boundary(monkeypatch):
    # a ball certificate reads its boundary as ridge masks in the ball's own
    # bits and K's sphere test reads its masks, so verify_ced constructs no
    # complex at all, boundary or other, for one ear and for many
    init, made, bounded = SimplicialComplex.__init__, [], []

    def counted(self, vertices, facets):
        made.append(facets)
        init(self, vertices, facets)

    def bounding(c):
        bounded.append(c)
        return boundary_complex(c)

    for dec in (
        decompose_supersolvable(boolean_lattice(4)),
        decompose_supersolvable(partition_lattice(4)),
    ):
        with monkeypatch.context() as m:
            m.setattr(SimplicialComplex, "__init__", counted)
            m.setattr("earlab.complexes.boundary_complex", bounding)
            assert verify_ced(dec)["ok"]
        assert bounded == [] and made == []


def test_verify_ced_builds_no_face_set_for_one_ear(monkeypatch):
    # one ear has nothing to glue to, and no later ear reads its faces
    faces = SimplicialComplex.faces
    glue = []

    def counted(self):
        if sys._getframe(1).f_code.co_name == "verify_ced":
            glue.append(self)
        return faces(self)

    monkeypatch.setattr(SimplicialComplex, "faces", counted)
    dec = decompose_supersolvable(boolean_lattice(4))
    report = verify_ced(dec)
    assert len(dec.ears) == 1 and report["ok"]
    assert report["axiom_boundary"] == {"ok": True, "witnesses": []}
    assert glue == []


def test_verify_ced_lists_no_face_of_delta(monkeypatch):
    # Δ's facets are counted in the flag f of the selected poset and h(Δ)
    # summed from its flag h, so on a passing decomposition no maximal chain
    # of the poset is listed and Δ is never built
    def refuse(*args):
        raise AssertionError("Δ listed")

    for dec in (
        decompose_supersolvable(boolean_lattice(4)),
        decompose_supersolvable(partition_lattice(4)),
        decompose_rank_selected_boolean(4, (1, 3)),
    ):
        with monkeypatch.context() as m:
            for name in ("decompositions.maximal_chains", "decompositions.order_complex",
                         "posets.maximal_chains", "complexes.order_complex"):
                m.setattr(f"earlab.{name}", refuse)
            assert verify_ced(dec)["ok"]


def test_verify_ced_without_a_poset_reports_an_h_error():
    # Δ's facets and h(Δ) are counted in the decomposition's poset, and
    # handmade ears have none: union, partition and h carry one error, and
    # the axioms on the ears alone are still checked
    error = {"error": "the decomposition carries no poset to count chains in"}
    counted = ("axiom_union", "chain_partition")
    report = verify_ced(square_and_path())
    assert report["ok"] is False and report["h_checks"] == error
    assert all(report[k] == {"ok": False, **error} for k in counted)
    assert not report["axiom_boundary"]["ok"]
    report = verify_ced(replace(decompose_supersolvable(boolean_lattice(3)), poset=None))
    assert all(report[k]["ok"] for k in ("axiom_polytope", "axiom_balls", "axiom_boundary"))
    assert all(report[k] == {"ok": False, **error} for k in counted)
    assert report["ok"] is False and report["h_checks"] == error


def test_ear_sum_is_ear_one_plus_every_later_ear_reversed():
    # h(Σ_i, ∂Σ_i) is h(Σ_i) reversed for a ball; where the concatenated ear
    # order happens to shell Δ, its histogram is the same vector
    for dec in (
        decompose_supersolvable(boolean_lattice(4)),
        decompose_supersolvable(partition_lattice(4)),
        decompose_rank_selected_boolean(4, (1, 3)),
    ):
        first, *later = (h_from_shelling(ear.shelling) for ear in dec.ears)
        want = [a + sum(h[-1 - k] for h in later) for k, a in enumerate(first)]
        h_checks = verify_ced(dec)["h_checks"]
        assert h_checks["ear_sum"] == h_checks["h"] == want
        concatenated = _concatenated_histogram(dec.complex, dec.ears)
        assert concatenated is None or list(concatenated) == want


def test_sphere_and_descent_class_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        words = _descent_class(5, (1, 3))
        assert len(words) == 16
        assert len(_sphere(words[0], (1, 3))) == 2 * 2
        assert len(_sphere(range(1, 6), (1, 2, 3))) == 4 * 3 * 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_ced_flags_missing_facets():
    # a poset with one more maximal chain, zz < ww, than the ears hold
    dec = decompose_supersolvable(boolean_lattice(3))
    p = dec.poset
    bigger = build_poset([*p.elements, "zz", "ww"], [*p.cover_pairs(), ("zz", "ww")])
    report = verify_ced(replace(dec, poset=bigger))
    assert report["axiom_union"] == {"ok": False, "missing": [["ww", "zz"]], "extra": []}
    assert report["chain_partition"] == {"ok": False, "total": 6, "facets": 7}


def test_union_witnesses_are_independent_of_hash_seed():
    # three facets go missing; they are listed by size and sorted names, not
    # in set iteration order (seeds 0 and 2 listed them differently once)
    code = (
        "import json\n"
        "from dataclasses import replace\n"
        "from earlab.decompositions import decompose_rank_selected_boolean, verify_ced\n"
        "dec = decompose_rank_selected_boolean(4, (1, 3))\n"
        "print(json.dumps(verify_ced(replace(dec, ears=dec.ears[:-2]))['axiom_union']))\n"
    )
    out = set()
    for seed in (0, 2):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        out.add(proc.stdout)
    assert [json.loads(o) for o in out] == [
        {"ok": False, "missing": [["124", "4"], ["134", "4"], ["234", "4"]], "extra": []}
    ]


# -- Switch closure -----------------------------------------------------------------------------

def corpus_decompositions():
    yield decompose_supersolvable(boolean_lattice(3))
    yield decompose_supersolvable(partition_lattice(4))
    yield decompose_rank_selected_boolean(4, [1, 3])
    yield decompose_rank_selected_supersolvable(partition_lattice(4), ranks=[2])
    yield decompose_face_poset(two_triangles(), ranks=[1, 2])
    yield decompose_geometric(two_triangle_flats())


def test_switch_closure_has_no_violations():
    for dec in corpus_decompositions():
        assert switch_closure_violations(dec) == [], dec.construction


def test_switch_closure_detects_tampering():
    dec = decompose_rank_selected_boolean(4, [1, 3])
    # ('2', '124') is the switch image of other chains in its ear, so
    # deleting it must leave dangling switches
    first = dec.ears[0]
    idx = first.chains.index(("2", "124"))
    first.chains.pop(idx)
    assert switch_closure_violations(dec)


# -- Reciprocity across ears ----------------------------------------------------------------------

def test_ball_reciprocity_on_every_ear():
    for dec in corpus_decompositions():
        colors = rank_colors(dec)
        for ear in dec.ears:
            assert ball_flag_reciprocity(ear.complex, colors), (
                dec.construction,
                ear.provenance,
            )


# -- Serialization ----------------------------------------------------------------------------------

def test_decomposition_to_json_shape():
    dec = decompose_rank_selected_boolean(3, [1])
    doc = dec.to_json()
    assert doc["schema"] == "earlab.decomposition/3"
    assert "complex" not in doc
    assert doc["construction"] == "rank-boolean"
    assert doc["rho"] == 3 and doc["ranks"] == [1]
    assert len(doc["ears"]) == len(dec.ears)
    for ear in doc["ears"]:
        assert set(ear) == {"chains", "restrictions", "provenance"}


def test_verified_ears_list_each_facet_of_delta_once():
    # Δ is not written: once verify_ced holds, the ears' chains are exactly
    # its facets, each once, so the written ears determine it
    for dec in corpus_decompositions():
        ced = verify_ced(dec)
        assert ced["ok"], dec.construction
        facets = dec.complex.facets
        assert {frozenset(c) for ear in dec.ears for c in ear.chains} == set(facets)
        assert ced["chain_partition"]["facets"] == ced["chain_partition"]["total"] == len(facets)


def test_written_ears_rebuild_their_shellings():
    # a written ear needs nothing else: its chains, in the written order,
    # shell the complex they generate with exactly the written restrictions
    for dec in corpus_decompositions():
        for ear in json.loads(canonical_dumps(dec.to_json()))["ears"]:
            comp = build_complex(ear["chains"])
            where = {f: k for k, f in enumerate(comp.facets)}
            sh = verify_shelling(comp, [where[frozenset(c)] for c in ear["chains"]])
            assert [sorted(r) for r in sh.restrictions] == ear["restrictions"]
