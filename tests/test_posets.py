"""Tests for the core poset layer: construction, grading, subposets,
chain enumeration, Mobius values, and the JSON round trip."""

from __future__ import annotations

import gc
import json

import pytest

from earlab.errors import (
    BadParams,
    CycleDetected,
    DanglingCover,
    Inconsistent,
    NotComparable,
    NotGraded,
    RangeError,
)
from earlab.posets import (
    VIRTUAL_BOTTOM,
    VIRTUAL_TOP,
    build_poset,
    canonical_dumps,
    induced_subposet,
    labels_from_json,
    maximal_chains,
    mobius,
    poset_from_json,
    poset_to_json,
    proper_part,
    rank_select,
    with_bounds,
)
from oracles import saturated_chains_between


# -- Helpers -------------------------------------------------------------------

def diamond():
    """0 < a,b < 1: the smallest interesting graded test case."""
    return build_poset(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        graded=True,
    )


def chain_poset(n: int):
    names = [f"c{i}" for i in range(n)]
    return build_poset(names, list(zip(names, names[1:])), graded=True)


# -- Construction and validation -----------------------------------------------

def test_build_rejects_cover_with_unknown_element():
    with pytest.raises(DanglingCover):
        build_poset(["a"], [("a", "b")])


def test_build_rejects_an_element_listed_twice():
    with pytest.raises(Inconsistent, match="element 'a' is listed twice"):
        build_poset(["a", "b", "a"], [("a", "b")])


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_rejects_self_relation():
    with pytest.raises(CycleDetected):
        build_poset(["a"], [("a", "a")])


def test_build_reduces_transitive_input():
    # the shortcut a<c is implied by a<b<c and must not survive as a cover
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.cover_pairs() == [("a", "b"), ("b", "c")]


def test_graded_flag_rejects_rank_jumping_cover():
    # w is minimal but covers nothing below z's rank: the cover w<z spans 0..2
    with pytest.raises(NotGraded):
        build_poset(
            ["w", "x", "y", "z"],
            [("x", "y"), ("y", "z"), ("w", "z")],
            graded=True,
        )


def test_ranks_on_diamond():
    p = diamond()
    assert p.rank_of("0") == 0
    assert p.rank_of("a") == p.rank_of("b") == 1
    assert p.rank_of("1") == 2
    assert p.max_rank() == 2
    assert p.bounded


def test_leq_is_reflexive_and_matches_covers():
    p = diamond()
    for x in p.elements:
        assert p.leq(x, x)
    assert p.leq("0", "1")
    assert not p.leq("a", "b")
    assert not p.leq("1", "0")


# -- Subposets -----------------------------------------------------------------

def test_induced_subposet_rebuilds_covers():
    p = diamond()
    q = induced_subposet(p, ["0", "a", "1"])
    assert set(q.elements) == {"0", "a", "1"}
    # 0<a<1 stays a 2-chain; removing b creates no shortcut covers
    assert q.max_rank() == 2


def test_proper_part_strips_bounds():
    p = diamond()
    q = proper_part(p)
    assert set(q.elements) == {"a", "b"}
    assert q.covers == ()


def test_with_bounds_adds_virtual_elements():
    q = proper_part(diamond())
    b = with_bounds(q)
    assert VIRTUAL_BOTTOM in b.elements and VIRTUAL_TOP in b.elements
    assert b.max_rank() == 2
    assert b.bounded


def test_with_bounds_rejects_name_collision():
    """The bounds take ``_``-suffixed names until neither is an element."""
    taken = [VIRTUAL_BOTTOM, "a", VIRTUAL_TOP + "_"]
    p = build_poset(taken, list(zip(taken, taken[1:])))
    b = with_bounds(p)
    assert (b.bottom, b.top) == (VIRTUAL_BOTTOM + "__", VIRTUAL_TOP + "__")
    assert set(b.elements) == {*taken, b.bottom, b.top}
    assert b.max_rank() == 4


def test_rank_select_renumbers_consecutively():
    p = chain_poset(4)  # ranks 0..3
    q = rank_select(p, [1, 3])
    assert set(q.elements) == {"c1", "c3"}
    assert q.rank_of("c1") == 1
    assert q.rank_of("c3") == 2


def test_rank_select_rejects_absent_rank():
    p = chain_poset(3)
    with pytest.raises(RangeError):
        rank_select(p, [7])


# -- Chains --------------------------------------------------------------------

def test_maximal_chains_of_diamond():
    p = diamond()
    chains = {tuple(c) for c in maximal_chains(p)}
    assert chains == {("0", "a", "1"), ("0", "b", "1")}


def test_saturated_chains_between():
    p = diamond()
    chains = saturated_chains_between(p, "0", "1")
    assert sorted(chains) == [("0", "a", "1"), ("0", "b", "1")]
    with pytest.raises(NotComparable):
        saturated_chains_between(p, "a", "b")


def test_saturated_chains_leave_no_cyclic_garbage():
    from earlab.lattices import boolean_lattice

    p = boolean_lattice(4).poset
    gc.collect()
    gc.disable()
    try:
        assert len(saturated_chains_between(p, p.bottom, p.top)) == 24
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chain_count_of_boolean_proper_part():
    # proper part of B_3: maximal chains = 3! = 6
    from earlab.lattices import boolean_lattice

    p = proper_part(boolean_lattice(3).poset)
    assert len(maximal_chains(p)) == 6


# -- Mobius function -----------------------------------------------------------

def test_mobius_basics():
    p = diamond()
    assert mobius(p, "0", "0") == 1
    assert mobius(p, "0", "a") == -1
    assert mobius(p, "0", "1") == 1
    with pytest.raises(NotComparable):
        mobius(p, "a", "b")


def test_mobius_on_boolean_lattices_alternates():
    from earlab.lattices import boolean_lattice

    for r, expect in [(3, -1), (4, 1)]:
        p = boolean_lattice(r).poset
        assert mobius(p, p.bottom, p.top) == expect


def test_mobius_on_partition_lattices():
    # mu(0,1) of Pi_n is (-1)^(n-1) (n-1)!
    from earlab.lattices import partition_lattice

    for n, expect in [(3, 2), (4, -6)]:
        p = partition_lattice(n).poset
        assert mobius(p, p.bottom, p.top) == expect


# -- Serialization -------------------------------------------------------------

def test_json_round_trip_preserves_structure():
    p = diamond()
    doc = poset_to_json(p)
    q = poset_from_json(doc)
    assert set(q.elements) == set(p.elements)
    assert set(q.cover_pairs()) == set(p.cover_pairs())
    assert q.rank_of("1") == 2


def test_canonical_dumps_is_stable_and_compact():
    doc = poset_to_json(diamond())
    s1 = canonical_dumps(doc)
    s2 = canonical_dumps(json.loads(s1))
    assert s1 == s2
    assert s1.endswith("\n")
    assert ": " not in s1  # compact separators


def test_labels_from_json_reads_a_handwritten_document():
    p = chain_poset(3)
    doc = {"elements": ["c0", "c1", "c2"], "covers": [["c0", "c1"], ["c1", "c2"]],
           "labels": {"c0|c1": 2, "c1|c2": 1}}
    assert "labels" not in poset_to_json(p)
    assert labels_from_json(p, doc) == {("c0", "c1"): 2, ("c1", "c2"): 1}
    assert labels_from_json(p, poset_to_json(p)) is None


def test_from_json_rejects_missing_fields():
    with pytest.raises(BadParams):
        poset_from_json({"elements": ["a"]})


# c covers b, which covers a, and c also covers the minimal d: the cover
# d < c spans two ranks, so the poset is not graded
UNGRADED = {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["b", "c"], ["d", "c"]]}


def test_from_json_reads_graded_as_a_json_boolean():
    assert not poset_from_json({**UNGRADED, "graded": False}).graded
    with pytest.raises(NotGraded):
        poset_from_json({**UNGRADED, "graded": True})
    with pytest.raises(NotGraded):
        poset_from_json(UNGRADED)  # absent means true


@pytest.mark.parametrize("value", ["false", 0, [], None])
def test_from_json_rejects_a_graded_field_that_is_not_a_boolean(value):
    with pytest.raises(BadParams, match="graded"):
        poset_from_json({**UNGRADED, "graded": value})
