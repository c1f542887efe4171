"""Tests for edge labelings: EL verification, S_r refinement, derived
labelings on supersolvable and geometric lattices, lex shellings, and
h-vectors by descent count."""

from __future__ import annotations

import pytest

from earlab.errors import BadParams, LabelingInvalid, MobiusMismatch
from earlab.complexes import f_h_vectors, h_from_shelling, order_complex
from earlab.labelings import (
    EdgeLabeling,
    check_el,
    derive_sn_labeling,
    descent_set,
    h_by_descents,
    increasing_and_decreasing_chains,
    lex_shelling,
    minimal_labeling,
    verify_el,
    verify_sr,
)
from earlab.lattices import boolean_lattice, partition_lattice, subset_name
from earlab.matroids import lattice_of_flats, uniform_matroid
from earlab.posets import build_poset, maximal_chains, mobius, proper_part


# -- Helpers -------------------------------------------------------------------

def diamond_labeled(l1: int, l2: int, l3: int, l4: int) -> tuple:
    p = build_poset(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        graded=True,
    )
    lab = EdgeLabeling(
        p, {("0", "a"): l1, ("a", "1"): l2, ("0", "b"): l3, ("b", "1"): l4}
    )
    return p, lab


# -- Basics ---------------------------------------------------------------------

def test_descent_set():
    assert descent_set((1, 2, 3)) == frozenset()
    assert descent_set((2, 1, 3)) == frozenset({1})
    assert descent_set((3, 2, 1)) == frozenset({1, 2})
    assert descent_set((1, 1, 2)) == frozenset()  # ties are not descents


def test_labeling_requires_all_covers():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(BadParams):
        EdgeLabeling(p, {("a", "b"): 1})


def test_labeling_rejects_a_label_on_a_non_cover():
    """The first non-cover pair in sorted order is named, even a reversed cover."""
    lat = boolean_lattice(3)
    labels = dict(derive_sn_labeling(lat).labels)
    labels[("3", "12")] = 1
    labels[("123", "0")] = 1
    with pytest.raises(BadParams, match=r"label on \('123', '0'\), which is not a cover"):
        EdgeLabeling(lat.poset, labels)


def test_word_reads_along_chain():
    p, lab = diamond_labeled(1, 2, 2, 1)
    assert lab.word(("0", "a", "1")) == (1, 2)
    assert lab.word(("0", "b", "1")) == (2, 1)


# -- EL verification ---------------------------------------------------------------

def test_good_diamond_labeling_is_el():
    p, lab = diamond_labeled(1, 2, 2, 1)
    ok, witness = verify_el(p, lab)
    assert ok and witness is None


def test_two_increasing_chains_fail():
    p, lab = diamond_labeled(1, 2, 1, 2)
    ok, witness = verify_el(p, lab)
    assert not ok
    x, y, why = witness
    assert (x, y) == ("0", "1")
    assert "2 weakly increasing" in why


def test_no_increasing_chain_fails():
    p, lab = diamond_labeled(2, 1, 3, 2)
    ok, witness = verify_el(p, lab)
    assert not ok
    assert "0 weakly increasing" in witness[2]


def test_increasing_chain_must_be_lex_first():
    # the only increasing word (2,3) loses lexicographically to the
    # descent word (2,1), which is disqualifying
    p, lab = diamond_labeled(2, 3, 2, 1)
    ok, witness = verify_el(p, lab)
    assert not ok
    assert "lex-first" in witness[2]


def test_check_el_raises_with_interval():
    p, lab = diamond_labeled(1, 2, 1, 2)
    with pytest.raises(LabelingInvalid):
        check_el(p, lab)


def test_equal_nonincreasing_words_are_allowed():
    # two chains may share a word as long as neither ties the increasing
    # one: 0 < a,b,c < 1 with words (1,2), (2,1), (2,1) is a valid labeling
    p = build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
        graded=True,
    )
    lab = EdgeLabeling(
        p,
        {
            ("0", "a"): 1, ("a", "1"): 2,
            ("0", "b"): 2, ("b", "1"): 1,
            ("0", "c"): 2, ("c", "1"): 1,
        },
    )
    ok, witness = verify_el(p, lab)
    assert ok, witness
    # and the two decreasing chains match |mu(0,1)| = 2
    _, dec = increasing_and_decreasing_chains(p, lab, "0", "1")
    assert len(dec) == 2


# -- S_r refinement ------------------------------------------------------------------

def test_boolean_standard_labeling_is_sr():
    lat = boolean_lattice(3)
    lab = derive_sn_labeling(lat)
    assert verify_sr(lat.poset, lab)


def test_sr_rejects_repeated_label():
    p, lab = diamond_labeled(1, 1, 1, 1)
    assert not verify_sr(p, lab)


def test_sr_rejects_out_of_range_labels():
    p, lab = diamond_labeled(1, 5, 2, 1)
    assert not verify_sr(p, lab)


# -- Derived labelings ------------------------------------------------------------------

def test_boolean_min_join_labeling_is_position_of_added_element():
    lat = boolean_lattice(3)
    lab = derive_sn_labeling(lat)
    # adding element k to a subset gets label k under the standard M-chain
    assert lab.of(subset_name(set()), subset_name({2})) == 2
    assert lab.of(subset_name({1, 3}), subset_name({1, 2, 3})) == 2


def test_partition_lattice_labeling_verifies():
    lat = partition_lattice(4)
    lab = derive_sn_labeling(lat)
    ok, _ = verify_el(lat.poset, lab)
    assert ok
    assert verify_sr(lat.poset, lab)


def test_derive_requires_mchain():
    lat = lattice_of_flats(uniform_matroid(2, 3))
    # flats lattice stores no M-chain
    with pytest.raises(BadParams):
        derive_sn_labeling(lat)


def test_minimal_labeling_on_uniform_flats():
    lat = lattice_of_flats(uniform_matroid(2, 3))
    lab = minimal_labeling(lat)
    ok, _ = verify_el(lat.poset, lab)
    assert ok


def test_minimal_labeling_rejects_wrong_atom_list():
    lat = lattice_of_flats(uniform_matroid(2, 3))
    with pytest.raises(BadParams):
        minimal_labeling(lat, atom_order=["1", "2"])


def test_minimal_labeling_respects_atom_order():
    lat = lattice_of_flats(uniform_matroid(2, 3))
    lab = minimal_labeling(lat, atom_order=["3", "2", "1"])
    # the first atom in the order that completes each cover wins
    assert lab.of("0", "3") == 1


# -- Increasing and decreasing chains ------------------------------------------------------

def test_unique_increasing_chain_per_interval():
    lat = boolean_lattice(3)
    lab = derive_sn_labeling(lat)
    inc, dec = increasing_and_decreasing_chains(
        lat.poset, lab, lat.bottom, lat.top
    )
    assert lab.word(tuple(inc)) == (1, 2, 3)
    # |mu| = 1 for B_3
    assert len(dec) == 1
    assert lab.word(tuple(dec[0])) == (3, 2, 1)


def test_decreasing_count_matches_mobius_on_partition_lattice():
    lat = partition_lattice(4)
    lab = derive_sn_labeling(lat)
    _, dec = increasing_and_decreasing_chains(lat.poset, lab, lat.bottom, lat.top)
    assert len(dec) == abs(mobius(lat.poset, lat.bottom, lat.top)) == 6


def test_mobius_mismatch_raises():
    # a valid EL-labeling never trips this; force it with a non-EL one
    p, lab = diamond_labeled(1, 2, 2, 2)
    # interval [0,1]: increasing chains (1,2) and (2,2) -> not EL, and the
    # decreasing count 0 disagrees with |mu|=1
    with pytest.raises((LabelingInvalid, MobiusMismatch)):
        increasing_and_decreasing_chains(p, lab, "0", "1")


# -- Lex shelling -----------------------------------------------------------------------------

def test_lex_shelling_of_boolean_proper_part():
    lat = boolean_lattice(4)
    lab = derive_sn_labeling(lat)
    sh, chains = lex_shelling(lat.poset, lab)
    assert len(chains) == 24
    # h from restriction faces equals h from the f-vector
    _, h = f_h_vectors(sh.complex)
    assert h_from_shelling(sh) == h


def test_lex_shelling_first_chain_is_increasing():
    lat = boolean_lattice(3)
    lab = derive_sn_labeling(lat)
    _, chains = lex_shelling(lat.poset, lab)
    assert lab.word(chains[0]) == (1, 2, 3)


def test_h_by_descents_matches_f_transform():
    for lat in (boolean_lattice(3), boolean_lattice(4), partition_lattice(4)):
        lab = derive_sn_labeling(lat)
        _, h = f_h_vectors(order_complex(proper_part(lat.poset)))
        assert h_by_descents(lat.poset, lab) == h


def test_h_by_descents_boolean_is_eulerian():
    # descents over all of S_3: Eulerian numbers 1, 4, 1
    lat = boolean_lattice(3)
    lab = derive_sn_labeling(lat)
    assert h_by_descents(lat.poset, lab) == (1, 4, 1)
