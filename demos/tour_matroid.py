#!/usr/bin/env python3
"""From a small graph to a geometric lattice and its ear decomposition.

The running example is the graphic matroid of two triangles sharing an
edge (vertices 0..3, five edges).  We list its circuits and nbc-bases,
build the lattice of flats, and decompose the order complex of its
proper part with one ear per nbc-basis.

Run:  python3 demos/tour_matroid.py
"""

from __future__ import annotations

from earlab.decompositions import decompose_geometric, verify_ced
from earlab.flags import ball_flag_reciprocity
from earlab.labelings import h_by_descents, minimal_labeling, verify_el
from earlab.matroids import broken_circuits, circuits_of, graphic_matroid, lattice_of_flats, nbc_bases


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    m = graphic_matroid(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    banner("The matroid")
    print(f"atoms: {list(m.ground)}")
    print(f"rank:  {m.rank}")
    print(f"bases: {len(m.bases)}")
    print(f"circuits: {[sorted(c) for c in circuits_of(m)]}")
    print(f"broken circuits: {[sorted(b) for b in broken_circuits(m)]}")
    print(f"nbc-bases: {[sorted(b) for b in nbc_bases(m)]}")

    banner("Lattice of flats")
    lat = lattice_of_flats(m)
    print(f"elements: {lat.poset.n}, rank: {lat.rank}, atoms: {sorted(lat.atoms())}")
    lab = minimal_labeling(lat)
    ok, _ = verify_el(lat.poset, lab)
    print(f"minimal labeling is an EL-labeling: {ok}")
    print(f"h by descent counting: {h_by_descents(lat.poset, lab)}")

    banner("Geometric decomposition, one ear per nbc-basis")
    dec = decompose_geometric(lat)
    report = verify_ced(dec)
    for ear in dec.ears:
        prov = ear.provenance
        print(
            f"  ear {prov['copy_index']}: basis {sorted(prov['basis'])}, "
            f"{len(ear.chains)} chains"
        )
    print(f"axioms ok: {report['ok']}")
    print(f"h: {report['h_checks']['h']}, g: {report['h_checks']['g']}")

    banner("Every ear satisfies flag reciprocity for balls and spheres")
    colors = {
        v: dec.poset.rank_of(v) for ear in dec.ears for v in ear.complex.vertices
    }
    d = len(dec.ranks)
    for k, ear in enumerate(dec.ears, start=1):
        print(f"  ear {k}: reciprocity {ball_flag_reciprocity(ear.complex, colors, d)}")

    banner("Rank selection keeps the machinery intact")
    for ranks in [(1,), (2,)]:
        sel = decompose_geometric(lat, ranks=ranks)
        rep = verify_ced(sel)
        print(
            f"  S={set(ranks)}: ears {len(sel.ears)}, dropped classes "
            f"{len(sel.dropped)}, axioms ok {rep['ok']}, h {rep['h_checks']['h']}"
        )


if __name__ == "__main__":
    main()
