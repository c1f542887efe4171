"""Acceptance gate: eight end-to-end checks over the whole fixture corpus.

Each check prints one PASS line (visible with ``pytest -s``; under plain
``pytest -v`` the test name itself serves as the pass/fail line).  All
comparisons are exact; the two heavyweight checks carry wall-clock budgets
asserted inside the tests (60 s for the h-vector sweep, 300 s for the axiom
sweep).
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations

import pytest

from earlab.complexes import (
    boundary_complex,
    build_complex,
    f_h_vectors,
    h_from_shelling,
    order_complex,
    verify_shelling,
)
from earlab.decompositions import (
    Ear,
    EarDecomposition,
    decompose_face_poset,
    decompose_geometric,
    decompose_rank_selected_boolean,
    decompose_rank_selected_supersolvable,
    decompose_supersolvable,
    verify_ced,
)
from earlab.errors import TopRankSelected
from earlab.flags import (
    ball_flag_reciprocity,
    descent_classes,
    descent_set,
    dominates,
    verify_flag_inequalities,
    w_set,
    weak_leq_by_switches,
)
from earlab.labelings import EdgeLabeling, derive_sn_labeling, h_by_descents, lex_shelling, minimal_labeling, verify_el
from earlab.lattices import boolean_lattice, partition_lattice
from earlab.matroids import graphic_matroid, lattice_of_flats, nbc_bases, uniform_matroid
from earlab.posets import mobius, proper_part, rank_select, with_bounds
from earlab.complexes import face_poset
from oracles import switch_closure_violations, weak_leq


# -- shared corpus ----------------------------------------------------------------

TWO_TRIANGLE_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]

FACE_FIXTURES = {
    "triangle": [["a", "b", "c"]],
    "two-triangles": [["a", "b", "c"], ["a", "b", "d"]],
    "square": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    "tetrahedron-boundary": [
        ["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"],
    ],
}


def matroid_fixtures():
    return [
        ("U(2,3)", uniform_matroid(2, 3)),
        ("U(2,4)", uniform_matroid(2, 4)),
        ("U(3,4)", uniform_matroid(3, 4)),
        ("two-triangle-graph", graphic_matroid(4, TWO_TRIANGLE_EDGES)),
    ]


def nonempty_subsets(top: int) -> list[tuple[int, ...]]:
    vals = range(1, top + 1)
    return [S for k in range(1, top + 1) for S in combinations(vals, k)]


@lru_cache(maxsize=1)
def corpus() -> list[tuple[str, EarDecomposition]]:
    """Every decomposition the axiom sweep covers, built once."""
    out: list[tuple[str, EarDecomposition]] = []
    for name, lat in [
        ("B3", boolean_lattice(3)),
        ("B4", boolean_lattice(4)),
        ("Pi3", partition_lattice(3)),
        ("Pi4", partition_lattice(4)),
    ]:
        out.append((f"supersolvable:{name}", decompose_supersolvable(lat)))
    for r in (3, 4, 5):
        for S in nonempty_subsets(r - 1):
            out.append(
                (f"rank-boolean:r={r},S={S}", decompose_rank_selected_boolean(r, S))
            )
    pi4 = partition_lattice(4)
    for S in nonempty_subsets(2):
        out.append(
            (
                f"rank-supersolvable:Pi4,S={S}",
                decompose_rank_selected_supersolvable(pi4, ranks=S),
            )
        )
    for name, facets in FACE_FIXTURES.items():
        c = build_complex(facets)
        for S in nonempty_subsets(c.dim + 1 - 1):
            out.append((f"face-poset:{name},S={S}", decompose_face_poset(c, ranks=S)))
    for name, m in matroid_fixtures():
        lat = lattice_of_flats(m)
        out.append((f"geometric:{name},full", decompose_geometric(lat)))
        for S in nonempty_subsets(lat.rank - 1):
            out.append(
                (f"geometric:{name},S={S}", decompose_geometric(lat, ranks=S))
            )
    return out


@lru_cache(maxsize=1)
def corpus_reports() -> list[tuple[str, EarDecomposition, dict]]:
    return [(label, dec, verify_ced(dec)) for label, dec in corpus()]


# -- 1: three-way h-vector agreement ---------------------------------------------------

def test_1_three_way_h_agreement():
    t0 = time.monotonic()
    cases = []
    for r in (3, 4, 5):
        lat = boolean_lattice(r)
        cases.append((f"B{r}", lat, derive_sn_labeling(lat)))
    for n in (3, 4, 5):
        lat = partition_lattice(n)
        cases.append((f"Pi{n}", lat, derive_sn_labeling(lat)))
    for name, m in matroid_fixtures():
        lat = lattice_of_flats(m)
        cases.append((name, lat, minimal_labeling(lat)))

    for name, lat, lab in cases:
        _, h_transform = f_h_vectors(order_complex(proper_part(lat.poset)))
        sh, _ = lex_shelling(lat.poset, lab)
        h_restriction = h_from_shelling(sh)
        h_descent = h_by_descents(lat.poset, lab)
        assert h_transform == h_restriction == h_descent, name

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"h-vector sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: {len(cases)} fixtures, three h-vector routes agree "
          f"({elapsed:.1f}s)")


# -- 2: axiom verification across the corpus -------------------------------------------

def test_2_axiom_verification_corpus():
    t0 = time.monotonic()
    reports = corpus_reports()
    bad = [label for label, _, rep in reports if not rep["ok"]]
    elapsed = time.monotonic() - t0
    assert not bad, bad
    assert elapsed < 300.0, f"axiom sweep took {elapsed:.1f}s"
    n_constructions = len({label.split(":")[0] for label, _, _ in reports})
    print(f"ACCEPTANCE 2 PASS: {len(reports)} decompositions across "
          f"{n_constructions} constructions verify all four axioms ({elapsed:.1f}s)")


# -- 3: ear-count identities --------------------------------------------------------------

def test_3_ear_count_identities():
    for lat, expected in [
        (boolean_lattice(3), 1),
        (partition_lattice(3), 2),
        (partition_lattice(4), 6),
    ]:
        dec = decompose_supersolvable(lat)
        mu = abs(mobius(lat.poset, lat.poset.bottom, lat.poset.top))
        assert len(dec.ears) == mu == expected

    dec = decompose_rank_selected_boolean(4, (1, 3))
    assert len(dec.ears) == len(descent_classes(4)[frozenset({1, 3})]) == 5

    m = uniform_matroid(2, 3)
    dec = decompose_geometric(lattice_of_flats(m))
    assert len(dec.ears) == len(nbc_bases(m)) == 2

    print("ACCEPTANCE 3 PASS: ear counts match mobius, descent-class, and "
          "nbc-basis counts")


# -- 4: h-vector inequalities and M-vector g -------------------------------------------------

def test_4_h_inequalities_and_m_vectors():
    seen = set()
    for label, _, rep in corpus_reports():
        checks = rep["h_checks"]
        assert checks["inequalities_ok"], (label, checks["failures"])
        assert checks["g_is_m_vector"], (label, checks["g"])
        seen.add(tuple(checks["h"]))
    for h in [(1, 4, 1), (1, 6, 5), (1, 11, 6), (1, 7, 2)]:
        assert h in seen, h
    print(f"ACCEPTANCE 4 PASS: h_i <= h_(d-i), h growth, and M-vector g hold on "
          f"{len(corpus_reports())} decompositions ({len(seen)} distinct h-vectors)")


# -- 5: flag dominance inequalities ------------------------------------------------------------

def test_5_flag_dominance_inequalities():
    # dominance decisions: every matching the solver returns is replayed
    # against the weak order, both by inversion masks and by the BFS
    # switch oracle
    checked = 0
    for m in range(1, 6):
        classes = descent_classes(m)
        subsets = [
            frozenset(S)
            for k in range(m)
            for S in combinations(range(1, m), k)
        ]
        for S in subsets:
            for T in subsets:
                dom, inj = dominates(S, T, m)
                if not dom:
                    continue
                assert inj is not None
                assert len(set(inj.values())) == len(inj)
                assert set(inj) == set(classes.get(T, []))
                for tau, sigma in inj.items():
                    assert descent_set(tau) == T and descent_set(sigma) == S
                    assert weak_leq(tau, sigma)
                    assert weak_leq_by_switches(tau, sigma)
                    checked += 1

    # h_T <= h_S on the face-poset fixtures, facet rank excluded
    flag_runs = 0
    for name, facets in FACE_FIXTURES.items():
        c = build_complex(facets)
        fp = face_poset(c, include_empty=True, graded=True)
        p = with_bounds(rank_select(fp, range(1, c.dim + 1)))
        rep = verify_flag_inequalities(p)
        assert rep["violations"] == 0, name
        flag_runs += len(rep["pairs"])

    # and on the geometric-lattice fixtures
    for name, m in matroid_fixtures():
        rep = verify_flag_inequalities(lattice_of_flats(m).poset)
        assert rep["violations"] == 0, name
        flag_runs += len(rep["pairs"])

    # the worked instances
    assert dominates(frozenset({1, 3}), frozenset({1}), 4)[0]
    assert w_set([1, 2], 4) == frozenset({2})
    assert w_set([1], 4) == frozenset({1})
    assert not w_set([1], 4) <= w_set([1, 2], 4)

    print(f"ACCEPTANCE 5 PASS: {checked} matched pairs replayed through the "
          f"switch oracle; {flag_runs} dominating pairs satisfy h_T <= h_S")


# -- 6: ball flag reciprocity --------------------------------------------------------------------

def test_6_ball_flag_reciprocity():
    ears = 0
    for label, dec, _ in corpus_reports():
        colors = {
            v: dec.poset.rank_of(v)
            for ear in dec.ears
            for v in ear.complex.vertices
        }
        d = len(dec.ranks)
        for ear in dec.ears:
            assert ball_flag_reciprocity(ear.complex, colors, d), label
            ears += 1
    print(f"ACCEPTANCE 6 PASS: flag reciprocity holds entry by entry on "
          f"{ears} ears")


# -- 7: switch closure -----------------------------------------------------------------------------

def test_7_switch_closure():
    for label, dec, _ in corpus_reports():
        violations = switch_closure_violations(dec)
        assert violations == [], (label, violations[:3])
    print(f"ACCEPTANCE 7 PASS: zero switch-closure violations on "
          f"{len(corpus_reports())} decompositions")


# -- 8: negative controls ----------------------------------------------------------------------------

def _fake_decomposition() -> EarDecomposition:
    """A square-boundary sphere plus a path glued along a whole facet:
    the overlap strictly exceeds the path's boundary, violating the
    gluing axiom."""
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


def test_8_negative_controls():
    # top-rank guard on the single 2-simplex
    simplex = build_complex([["a", "b", "c"]])
    with pytest.raises(TopRankSelected):
        decompose_face_poset(simplex, ranks=[1, 2, 3])
    with pytest.raises(TopRankSelected):
        decompose_face_poset(simplex, ranks=[3])

    # handmade decomposition trips the gluing axiom with a face witness
    fake = _fake_decomposition()
    report = verify_ced(fake)
    assert not report["ok"]
    assert not report["axiom_boundary"]["ok"]
    witnesses = report["axiom_boundary"]["witnesses"]
    assert witnesses and witnesses[0]["faces"], witnesses

    # perturbed edge labeling fails with an interval witness
    lat = boolean_lattice(3)
    lab = derive_sn_labeling(lat)
    raw = {(x, y): lab.of(x, y) for x, y in lat.poset.cover_pairs()}
    atom = min(y for x, y in raw if x == lat.poset.bottom)
    raw[(lat.poset.bottom, atom)] = 3
    ok, witness = verify_el(lat.poset, EdgeLabeling(lat.poset, raw))
    assert not ok
    x, y, reason = witness
    assert lat.poset.leq(x, y) and x != y
    assert isinstance(reason, str) and reason

    print("ACCEPTANCE 8 PASS: top-rank guard, gluing-axiom witness, and "
          "EL-labeling witness all fire")
