"""Tests for lattices: join/meet, the Boolean and partition families,
M-chains, distributivity, geometricity, and serialization."""

from __future__ import annotations

import gc
import math

import pytest

from earlab.errors import Inconsistent, NotGeometric, NotMChain
from earlab.lattices import (
    Lattice,
    _set_partitions,
    boolean_lattice,
    check_geometric,
    check_mchain,
    lattice_from_json,
    lattice_to_json,
    partition_lattice,
    subset_name,
)
from earlab.posets import build_poset, maximal_chains
from oracles import is_distributive, is_geometric, is_mchain


# -- Join and meet -------------------------------------------------------------

def test_boolean_join_meet_are_union_intersection():
    lat = boolean_lattice(4)
    a = subset_name({1, 2})
    b = subset_name({2, 3})
    assert lat.join(a, b) == subset_name({1, 2, 3})
    assert lat.meet(a, b) == subset_name({2})


def test_join_of_empty_is_bottom():
    lat = boolean_lattice(3)
    assert lat.join_of([]) == lat.bottom


def test_atoms_of_boolean():
    lat = boolean_lattice(3)
    assert sorted(lat.atoms()) == [subset_name({i}) for i in (1, 2, 3)]


def test_lattice_requires_bounds():
    p = build_poset(["a", "b"], [])
    with pytest.raises(Inconsistent):
        Lattice(p)


def test_non_lattice_poset_rejected():
    # two elements with two incomparable upper bounds: join undefined
    p = build_poset(
        ["0", "a", "b", "x", "y", "1"],
        [("0", "a"), ("0", "b"), ("a", "x"), ("a", "y"),
         ("b", "x"), ("b", "y"), ("x", "1"), ("y", "1")],
        graded=True,
    )
    with pytest.raises(Inconsistent):
        Lattice(p)


def test_large_non_lattice_poset_rejected():
    # the bowtie above plus 300 elements between bottom and top: every
    # pair is checked, however many elements there are
    extra = [f"e{k:03d}" for k in range(300)]
    p = build_poset(
        ["0", "a", "b", "x", "y", "1", *extra],
        [("0", "a"), ("0", "b"), ("a", "x"), ("a", "y"),
         ("b", "x"), ("b", "y"), ("x", "1"), ("y", "1")]
        + [("0", e) for e in extra] + [(e, "1") for e in extra],
        graded=False,
    )
    assert p.n > 300
    with pytest.raises(Inconsistent, match="'a', 'b' have no unique least upper bound"):
        Lattice(p)


# -- Families ------------------------------------------------------------------

def test_boolean_lattice_sizes():
    for r in (2, 3, 4):
        lat = boolean_lattice(r)
        assert lat.poset.n == 2 ** r
        assert lat.rank == r


def test_boolean_lattice_carries_standard_mchain():
    lat = boolean_lattice(3)
    assert lat.mchain is not None
    assert list(lat.mchain) == [
        subset_name(set(range(1, k + 1))) for k in range(4)
    ]


def test_partition_lattice_sizes():
    # Bell numbers 5, 15, 52
    for n, bell in [(3, 5), (4, 15), (5, 52)]:
        lat = partition_lattice(n)
        assert lat.poset.n == bell
        assert lat.rank == n - 1


def test_set_partitions_leave_no_cyclic_garbage():
    assert list(_set_partitions(3)) == [
        [(1, 2, 3)],
        [(1, 2), (3,)],
        [(1, 3), (2,)],
        [(1,), (2, 3)],
        [(1,), (2,), (3,)],
    ]
    gc.collect()
    gc.disable()
    try:
        assert len(list(_set_partitions(4))) == 15
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_partition_lattice_atoms_are_single_merges():
    lat = partition_lattice(4)
    assert len(lat.atoms()) == 6  # C(4,2) ways to merge two singletons


# -- M-chains and distributivity ------------------------------------------------

def test_boolean_lattice_is_distributive():
    assert is_distributive(boolean_lattice(3))


def test_partition_lattice_is_not_distributive():
    assert not is_distributive(partition_lattice(3))


def test_boolean_mchain_verifies():
    lat = boolean_lattice(4)
    check_mchain(lat, lat.mchain)  # should not raise


def test_every_boolean_maximal_chain_is_an_mchain():
    lat = boolean_lattice(3)
    for c in maximal_chains(lat.poset):
        assert is_mchain(lat, tuple(c))


def test_partition_mchain_verifies():
    lat = partition_lattice(4)
    assert lat.mchain is not None
    check_mchain(lat, lat.mchain)


def test_mchain_must_be_saturated():
    lat = boolean_lattice(3)
    with pytest.raises(NotMChain):
        check_mchain(lat, [lat.bottom, lat.top])


def test_mchain_must_span_bounds():
    lat = boolean_lattice(3)
    with pytest.raises(NotMChain):
        check_mchain(lat, [subset_name({1}), subset_name({1, 2}), lat.top])


def test_some_partition_chains_are_not_mchains():
    # chains that climb through two disjoint merges, like
    # 1/2/3/4 < 1/2/34 < 12/34 < 1234, fail the distributivity requirement
    lat = partition_lattice(4)
    assert not is_mchain(lat, ("1/2/3/4", "1/2/34", "12/34", "1234"))


# -- Geometricity ---------------------------------------------------------------

def test_boolean_and_partition_lattices_are_geometric():
    for lat in (boolean_lattice(3), partition_lattice(4)):
        assert is_geometric(lat)
        check_geometric(lat)


def test_nonatomistic_lattice_is_not_geometric():
    # a 3-chain: the only atom is a, whose join falls short of the top
    p = build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")], graded=True)
    assert not is_geometric(Lattice(p))


def test_geometric_check_raises_with_reason():
    p = build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")], graded=True)
    with pytest.raises(NotGeometric):
        check_geometric(Lattice(p))


# -- Serialization ----------------------------------------------------------------

def test_lattice_json_round_trip_keeps_mchain():
    lat = partition_lattice(3)
    doc = lattice_to_json(lat)
    back = lattice_from_json(doc)
    assert back.mchain == lat.mchain
    assert set(back.poset.elements) == set(lat.poset.elements)


def test_lattice_json_tables_match_operations():
    # stored join/meet tables are outside input, read and checked when present
    lat = boolean_lattice(2)
    doc = lattice_to_json(lat)
    pairs = [(x, y) for x in lat.poset.elements for y in lat.poset.elements if x < y]
    doc["joins"] = {f"{x}|{y}": lat.join(x, y) for x, y in pairs}
    doc["meets"] = {f"{x}|{y}": lat.meet(x, y) for x, y in pairs}
    back = lattice_from_json(doc)
    for x in lat.poset.elements:
        for y in lat.poset.elements:
            assert back.join(x, y) == lat.join(x, y)
            assert back.meet(x, y) == lat.meet(x, y)
    doc["joins"]["1|2"] = "1"
    with pytest.raises(Inconsistent):
        lattice_from_json(doc)


def test_maximal_chain_count_of_partition_lattice():
    # n! (n-1)! / 2^(n-1) for n=4 gives 18
    lat = partition_lattice(4)
    expect = math.factorial(4) * math.factorial(3) // 2 ** 3
    assert len(maximal_chains(lat.poset)) == expect == 18
