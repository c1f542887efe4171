"""Tests for matroids: axioms, uniform and graphic families, circuits,
broken circuits, nbc bases, and the lattice of flats."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from earlab.errors import BadParams, ExchangeAxiomFailed, Inconsistent, NotSimple
from earlab.matroids import (
    broken_circuits,
    build_matroid,
    check_simple,
    circuits_of,
    graphic_matroid,
    lattice_of_flats,
    matroid_from_json,
    matroid_to_json,
    nbc_bases,
    uniform_matroid,
)
from oracles import is_geometric


# -- Fixtures ------------------------------------------------------------------

def two_triangle_matroid():
    """Graphic matroid of two triangles sharing the edge 12.

    Vertices 0..3; edges 01, 02, 12, 03, 13 in that atom order.
    """
    return graphic_matroid(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


# -- Construction and axioms ----------------------------------------------------

def test_uniform_matroid_basics():
    m = uniform_matroid(2, 4)
    assert m.rank == 2
    assert len(m.bases) == 6
    assert m.ground == ("1", "2", "3", "4")


def test_uniform_matroid_rejects_bad_params():
    with pytest.raises(BadParams):
        uniform_matroid(0, 3)
    with pytest.raises(BadParams):
        uniform_matroid(4, 3)


def test_exchange_axiom_rejected_on_fake_bases():
    # {a,b} and {c,d} with nothing in between cannot exchange
    with pytest.raises(ExchangeAxiomFailed):
        build_matroid(["a", "b", "c", "d"], bases=[["a", "b"], ["c", "d"]])


def test_exchange_witness_is_independent_of_hash_seed():
    # both a and b fail toward cd; the least in ground order is named
    code = (
        "from earlab.matroids import build_matroid\n"
        "try:\n"
        "    build_matroid('abcd', bases=['ab', 'cd'])\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    out = set()
    for seed in (1, 2):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        out.add(proc.stdout)
    assert out == {"no exchange for ['a', 'b'] minus 'a' toward ['c', 'd']\n"}


def test_bases_of_unequal_size_rejected():
    with pytest.raises(Inconsistent):
        build_matroid(["a", "b", "c"], bases=[["a"], ["b", "c"]])


def test_build_from_circuits_matches_uniform():
    # U_{2,3}: every 3-subset is the unique circuit
    m = build_matroid(["1", "2", "3"], circuits=[["1", "2", "3"]])
    assert {frozenset(b) for b in m.bases} == {
        frozenset(b) for b in uniform_matroid(2, 3).bases
    }


def test_graphic_matroid_of_two_triangles():
    m = two_triangle_matroid()
    assert m.rank == 3  # spanning trees of a 4-vertex graph
    assert len(m.ground) == 5
    assert len(m.bases) == 8


def test_graphic_matroid_rejects_out_of_range_vertex():
    with pytest.raises(BadParams):
        graphic_matroid(3, [(0, 3)])


def test_rank_and_closure():
    lat = lattice_of_flats(two_triangle_matroid())
    # atoms are edge positions '1'..'5'; edges 1,2 span triangle {0,1,2},
    # so edge 3 (=12) falls in the closure, a flat of rank 2
    assert lat.join("1", "2") == "1+2+3"
    assert lat.poset.rank_of("1+2+3") == 2


def test_independence():
    m = uniform_matroid(2, 4)
    assert m.is_independent({"1", "3"})
    assert not m.is_independent({"1", "2", "3"})
    assert m.is_independent(set())


# -- Circuits and nbc ------------------------------------------------------------

def test_circuits_of_uniform():
    m = uniform_matroid(2, 4)
    cs = circuits_of(m)
    assert all(len(c) == 3 for c in cs)
    assert len(cs) == 4


def test_circuits_of_two_triangles():
    m = two_triangle_matroid()
    cs = circuits_of(m)
    by_size = sorted(len(c) for c in cs)
    # two triangles and the bowtie 4-cycle through both
    assert by_size == [3, 3, 4]


def test_broken_circuits_drop_least_atom():
    m = two_triangle_matroid()
    bcs = broken_circuits(m)
    assert frozenset({"2", "3"}) in bcs  # circuit {1,2,3} minus atom 1
    assert all(len(b) >= 2 for b in bcs)


def test_nbc_count_uniform_23():
    # nbc bases of U_{2,3}: bases not containing the broken circuit {2,3}
    m = uniform_matroid(2, 3)
    nbc = nbc_bases(m)
    assert len(nbc) == 2
    assert nbc == [("1", "2"), ("1", "3")]


def test_nbc_count_two_triangles():
    m = two_triangle_matroid()
    assert len(nbc_bases(m)) == 4


def test_nbc_bases_all_contain_first_atom():
    # the least atom sits in no broken circuit, so every nbc basis keeps it
    for m in (uniform_matroid(2, 4), uniform_matroid(3, 4), two_triangle_matroid()):
        first = m.ground[0]
        assert all(first in b for b in nbc_bases(m))


# -- Lattice of flats -------------------------------------------------------------

def test_flats_of_uniform_23():
    lat = lattice_of_flats(uniform_matroid(2, 3))
    # bottom, three atoms, top
    assert lat.poset.n == 5
    assert lat.rank == 2
    assert sorted(lat.atoms()) == ["1", "2", "3"]


def test_flats_of_uniform_24():
    lat = lattice_of_flats(uniform_matroid(2, 4))
    assert lat.poset.n == 6
    assert lat.rank == 2


def test_flats_of_two_triangles():
    lat = lattice_of_flats(two_triangle_matroid())
    assert lat.rank == 3
    # rank-1 flats: the five edges (no parallels in a simple graph)
    assert len(lat.atoms()) == 5
    assert is_geometric(lat)


def test_flats_are_geometric_for_uniform():
    assert is_geometric(lattice_of_flats(uniform_matroid(3, 4)))


def test_non_simple_matroid_rejected():
    # U_{1,2} has parallel atoms
    with pytest.raises(NotSimple):
        lattice_of_flats(uniform_matroid(1, 2))
    check_simple(uniform_matroid(2, 3))  # no raise


def test_flat_name_formatting():
    # a flat is named by its atoms, sorted and '+'-joined; the empty flat is '0'
    lat = lattice_of_flats(uniform_matroid(3, 4))
    assert lat.join("2", "1") == "1+2"
    assert lat.bottom == "0"


# -- Serialization -----------------------------------------------------------------

def test_matroid_json_round_trip():
    m = two_triangle_matroid()
    back = matroid_from_json(matroid_to_json(m))
    assert back.ground == m.ground
    assert set(back.bases) == set(m.bases)


def test_matroid_from_graph_json():
    doc = {"graph": {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}}
    m = matroid_from_json(doc)
    assert m.rank == 2
    assert len(m.bases) == 3


def test_matroid_json_rejects_garbage():
    with pytest.raises(BadParams):
        matroid_from_json({"ground": ["a"]})
