"""Tests for simplicial complexes: f/h vectors, shellings, homology,
Cohen-Macaulay checks, sphere/ball certificates, and the face poset."""

from __future__ import annotations

import gc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlab.errors import BadParams, NotCertified, NotPure, NotShelling
from earlab.complexes import (
    _is_closed_pseudomanifold,
    boundary_complex,
    build_complex,
    certify_sphere_or_ball,
    complex_from_json,
    complex_to_json,
    f_h_vectors,
    face_poset,
    h_from_shelling,
    homology_ranks,
    intersection_complexes,
    is_cm_and_2cm,
    order_complex,
    search_shelling,
    union_complexes,
    verify_shelling,
)
from earlab.lattices import boolean_lattice
from earlab.posets import proper_part
from oracles import deletion, is_subcomplex, link_of, reduced_euler


# -- Fixtures ------------------------------------------------------------------

def triangle():
    return build_complex([["a", "b", "c"]])


def triangle_boundary():
    return build_complex([["a", "b"], ["b", "c"], ["a", "c"]])


def tetra_boundary():
    return build_complex(
        [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
    )


def two_triangles():
    return build_complex([["a", "b", "c"], ["a", "b", "d"]])


def bowtie():
    return build_complex([["a", "b", "c"], ["a", "d", "e"]])


# -- Construction ----------------------------------------------------------------

def test_build_complex_drops_subsumed_faces():
    c = build_complex([["a", "b"], ["a", "b", "c"]])
    assert c.facets == (frozenset({"a", "b", "c"}),)


def test_dim_and_purity():
    assert triangle().dim == 2
    assert triangle().pure
    c = build_complex([["a", "b", "c"], ["d", "e"]])
    assert not c.pure


def test_faces_include_empty_set():
    c = build_complex([["a", "b"]])
    assert frozenset() in c.faces()
    assert len(c.faces()) == 4


# -- f and h vectors ----------------------------------------------------------------

def test_f_h_of_triangle_boundary():
    f, h = f_h_vectors(triangle_boundary())
    assert f == (1, 3, 3)
    assert h == (1, 1, 1)


def test_f_h_of_tetra_boundary():
    f, h = f_h_vectors(tetra_boundary())
    assert f == (1, 4, 6, 4)
    assert h == (1, 1, 1, 1)


def test_f_h_of_solid_triangle():
    f, h = f_h_vectors(triangle())
    assert f == (1, 3, 3, 1)
    assert h == (1, 0, 0, 0)


def test_h_sums_to_facet_count():
    for c in (triangle_boundary(), tetra_boundary(), two_triangles()):
        _, h = f_h_vectors(c)
        assert sum(h) == len(c.facets)


def test_reduced_euler():
    assert reduced_euler(tetra_boundary()) == 1  # (-1)^2 for a 2-sphere
    assert reduced_euler(triangle()) == 0
    assert reduced_euler(triangle_boundary()) == -1  # -1 + 3 - 3 for a circle


# -- Shellings ----------------------------------------------------------------------

def test_verify_shelling_accepts_good_order():
    c = tetra_boundary()
    sh = verify_shelling(c, [0, 1, 2, 3])
    assert h_from_shelling(sh) == (1, 1, 1, 1)


def test_restriction_faces_start_empty():
    sh = verify_shelling(two_triangles(), [0, 1])
    assert sh.restrictions[0] == frozenset()
    assert len(sh.restrictions[1]) == 1


def test_bowtie_has_no_shelling():
    # facets meet in a point, not a codim-1 face
    with pytest.raises(NotShelling):
        verify_shelling(bowtie(), [0, 1])
    assert search_shelling(bowtie()) is None


def test_search_shelling_finds_orders():
    sh = search_shelling(tetra_boundary())
    assert sh is not None
    assert h_from_shelling(sh) == (1, 1, 1, 1)


def test_search_shelling_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        assert search_shelling(tetra_boundary()).order == (0, 1, 2, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shelling_rejects_impure():
    with pytest.raises(NotPure):
        verify_shelling(build_complex([["a", "b", "c"], ["d", "e"]]), [0, 1])


def test_shelling_rejects_non_permutation():
    with pytest.raises(BadParams):
        verify_shelling(two_triangles(), [0, 0])


def test_h_from_any_shelling_matches_f_transform():
    # shelling-independence of the restriction histogram
    c = tetra_boundary()
    _, h = f_h_vectors(c)
    import itertools

    for order in itertools.permutations(range(4)):
        try:
            sh = verify_shelling(c, list(order))
        except NotShelling:
            continue
        assert h_from_shelling(sh) == h


# -- Subcomplex operations ------------------------------------------------------------

def test_boundary_of_two_triangles():
    bd = boundary_complex(two_triangles())
    # ridge ab is shared, the other four edges are free
    assert frozenset({"a", "b"}) not in bd.facets
    assert len(bd.facets) == 4


def test_boundary_of_sphere_is_void():
    assert boundary_complex(tetra_boundary()).is_void


def test_link_and_deletion():
    c = tetra_boundary()
    lk = link_of(c, ["a"])  # the b,c,d circle
    assert set(lk.facets) == {
        frozenset({"b", "c"}), frozenset({"c", "d"}), frozenset({"b", "d"})
    }
    dl = deletion(c, "a")
    assert dl.facets == (frozenset({"b", "c", "d"}),)


def test_union_and_intersection():
    u = union_complexes(triangle(), build_complex([["c", "d"]]))
    assert len(u.facets) == 2
    i = intersection_complexes(two_triangles(), triangle())
    assert i.facets == (frozenset({"a", "b", "c"}),)


def test_union_and_intersection_with_void_inputs():
    void, t = build_complex([]), triangle()
    assert union_complexes().is_void and union_complexes(void, void).is_void
    assert union_complexes(void, t) == t
    assert intersection_complexes(void, t).is_void
    assert intersection_complexes(t, void).is_void
    assert intersection_complexes(void, void).is_void
    # disjoint facets meet in the empty face: {∅}, not void
    assert intersection_complexes(t, build_complex([["d"]])).is_irrelevant


def test_is_subcomplex():
    assert is_subcomplex(triangle_boundary(), triangle())
    assert not is_subcomplex(triangle(), triangle_boundary())


# -- Homology --------------------------------------------------------------------------

def test_homology_of_spheres():
    assert homology_ranks(triangle_boundary()) == (0, 1)
    assert homology_ranks(tetra_boundary()) == (0, 0, 1)


def test_homology_of_balls():
    assert homology_ranks(triangle()) == (0, 0, 0)
    assert homology_ranks(two_triangles()) == (0, 0, 0)


def test_homology_of_disconnected_points():
    c = build_complex([["a"], ["b"], ["c"]])
    assert homology_ranks(c) == (2,)


def test_homology_of_wedge_like_bowtie():
    # two triangles glued at a vertex: contractible
    assert homology_ranks(bowtie()) == (0, 0, 0)


RP2_6 = [
    "123", "134", "145", "156", "126", "235", "245", "246", "346", "356",
]


def test_homology_of_six_vertex_projective_plane_is_rational():
    # H_1(RP^2; Z) = Z/2 vanishes over Q, and so does H_2; over GF(2) both
    # would be 1, so a mod-2 shortcut would answer (0, 1, 1)
    c = build_complex(RP2_6)
    edges = [e for f in c.facets for e in combinations(sorted(f), 2)]
    assert len(set(edges)) == 15 and all(edges.count(e) == 2 for e in edges)
    assert homology_ranks(c) == (0, 0, 0)


def test_homology_of_b6_order_complex_is_a_3_sphere():
    c = order_complex(proper_part(boolean_lattice(6).poset))
    assert len(c.facets) == 720
    assert homology_ranks(c) == (0, 0, 0, 0, 1)


def test_homology_of_non_pure_complex_with_dangling_edge():
    # a solid triangle, an edge hanging off it, and a hollow triangle
    c = build_complex([["a", "b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["d", "f"]])
    assert not c.pure
    assert homology_ranks(c) == (0, 1, 0)


def test_homology_of_degenerate_complexes_is_empty():
    assert homology_ranks(build_complex([[]])) == ()  # {∅}, the (-1)-sphere
    assert homology_ranks(build_complex([])) == ()  # the void complex


def test_euler_characteristic_consistency():
    # alternating sum of betti numbers equals reduced euler characteristic
    for c in (triangle_boundary(), tetra_boundary(), two_triangles(), bowtie()):
        betti = homology_ranks(c)
        assert sum((-1) ** i * b for i, b in enumerate(betti)) == reduced_euler(c)


# -- Cohen-Macaulay -----------------------------------------------------------------------

def test_spheres_are_2cm():
    cm, two = is_cm_and_2cm(tetra_boundary())
    assert cm and two


def test_balls_are_cm_not_2cm():
    cm, two = is_cm_and_2cm(triangle())
    assert cm and not two


def test_bowtie_is_not_cm():
    # the link of the cut vertex is disconnected
    cm, _ = is_cm_and_2cm(bowtie())
    assert not cm


@pytest.mark.parametrize(
    "facets, verdict",
    [
        ([], (False, False)),  # the void complex
        ([[]], (True, True)),  # {∅}, the (-1)-sphere
        ([["a"]], (True, False)),  # deleting the point leaves {∅}, of dimension -1
        ([["a"], ["b"]], (True, True)),  # the 0-sphere
        ([["a", "b", "c"], ["c", "d"]], (False, False)),  # impure
    ],
)
def test_cm_verdicts_of_small_complexes(facets, verdict):
    assert is_cm_and_2cm(build_complex(facets)) == verdict


@pytest.mark.parametrize(
    "facets, verdict",
    [(["abc", "abd", "acd", "bcd"], (True, True)), (["abcde"], (True, False))],
    ids=["tetra_boundary", "simplex4"],
)
def test_cm_builds_no_complex_for_a_link_or_a_vertex_deletion(monkeypatch, facets, verdict):
    c = build_complex(facets)
    calls = []

    def counting(facets):
        calls.append(1)
        return build_complex(facets)

    monkeypatch.setattr("earlab.complexes.build_complex", counting)
    assert is_cm_and_2cm(c) == verdict
    assert calls == []  # each deletion clears a bit of c's own masks


# -- Certificates ----------------------------------------------------------------------------

@pytest.mark.parametrize("points, closed", [(1, False), (2, True), (3, False)])
def test_points_are_a_closed_pseudomanifold_just_when_two(points, closed):
    # the ridge map decides dimension 0: the empty ridge lies in every point
    assert _is_closed_pseudomanifold(build_complex([[v] for v in "abc"[:points]]).masks) is closed


def test_certify_spheres():
    assert certify_sphere_or_ball(triangle_boundary()).kind == "SPHERE"
    cert = certify_sphere_or_ball(tetra_boundary())
    assert cert.kind == "SPHERE"
    assert cert.betti == (0, 0, 1)


def test_certify_balls():
    cert = certify_sphere_or_ball(two_triangles())
    assert cert.kind == "BALL"
    assert cert.shelling is not None and cert.shelling.complex == two_triangles()
    assert certify_sphere_or_ball(triangle()).kind == "BALL"


def test_a_ball_certificate_names_the_boundary_that_fails():
    # shellable and contractible, but ab lies in all three pages, so the
    # boundary is a theta graph: two loops, and the message says it is its own
    c = build_complex(["abc", "abd", "abe"])
    sh = verify_shelling(c, [0, 1, 2])
    assert sh.facet_sequence() == [frozenset("abc"), frozenset("abd"), frozenset("abe")]
    with pytest.raises(NotCertified, match=r"^boundary is not a sphere: homology \(0, 2\)$"):
        certify_sphere_or_ball(c, sh)


def test_certify_with_given_shelling():
    c = two_triangles()
    sh = verify_shelling(c, [1, 0])
    cert = certify_sphere_or_ball(c, sh)
    assert cert.kind == "BALL"
    assert cert.shelling is sh


def test_certify_refuses_a_shelling_of_another_complex():
    sh = verify_shelling(triangle(), [0])
    with pytest.raises(BadParams):
        certify_sphere_or_ball(two_triangles(), sh)


def test_certify_rejects_bowtie():
    with pytest.raises(NotCertified):
        certify_sphere_or_ball(bowtie())


def test_certify_zero_dimensional():
    assert certify_sphere_or_ball(build_complex([["a"], ["b"]])).kind == "SPHERE"
    assert certify_sphere_or_ball(build_complex([["a"]])).kind == "BALL"


# -- Face poset and order complex --------------------------------------------------------------

def test_face_poset_of_triangle():
    p = face_poset(triangle())
    # 3 vertices + 3 edges + 1 facet
    assert p.n == 7
    assert p.max_rank() == 2


def test_face_poset_with_empty_face_is_graded_from_zero():
    p = face_poset(triangle(), include_empty=True, graded=True)
    assert p.n == 8
    assert p.rank_of("0") == 0
    assert p.max_rank() == 3


def test_order_complex_of_face_poset_is_barycentric_subdivision():
    # barycentric subdivision of the solid triangle has 6 triangles
    p = face_poset(triangle())
    sd = order_complex(p)
    f, _ = f_h_vectors(sd)
    assert f == (1, 7, 12, 6)
    # subdivision has the same homology
    assert homology_ranks(sd) == homology_ranks(triangle())


def test_subdivision_of_circle_has_matching_euler():
    p = face_poset(triangle_boundary())
    sd = order_complex(p)
    assert reduced_euler(sd) == reduced_euler(triangle_boundary())


# -- Serialization -----------------------------------------------------------------------------

def test_complex_json_round_trip():
    c = two_triangles()
    back = complex_from_json(complex_to_json(c))
    assert back == c
    assert back.vertices == c.vertices


def test_complex_json_rejects_bad_shape():
    with pytest.raises(BadParams):
        complex_from_json({"vertices": ["a"]})


@pytest.mark.parametrize("doc", [
    {"facets": "ab"},
    {"facets": ["abc"]},
    {"facets": [[1, 2]]},
    {"facets": {"a": "b"}},
    {"vertices": "abc", "facets": [["a", "b", "c"]]},
    {"vertices": [1], "facets": [["1"]]},
])
def test_complex_json_refuses_what_is_not_arrays_of_strings(doc):
    # a string is iterable, so "ab" once read as two points and "abc" as a triangle
    with pytest.raises(BadParams, match="vertices and each facet must be arrays of strings"):
        complex_from_json(doc)


# -- Property tests ------------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sets(st.frozensets(st.sampled_from("abcdef"), min_size=3, max_size=3), min_size=1, max_size=8))
def test_property_f_alternates_to_euler(facets):
    # f[0] counts the empty face, so chi~ = -f[0] + f[1] - f[2] + ...
    # pure input: f_h_vectors refuses mixed facet sizes
    c = build_complex([sorted(f) for f in facets])
    f, _ = f_h_vectors(c)
    assert reduced_euler(c) == sum((-1) ** (k + 1) * f[k] for k in range(len(f)))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.frozensets(st.sampled_from("abcde"), min_size=2, max_size=3), min_size=1, max_size=5))
def test_property_union_contains_both(facets):
    parts = [build_complex([sorted(f)]) for f in facets]
    u = union_complexes(*parts)
    for part in parts:
        assert is_subcomplex(part, u)
