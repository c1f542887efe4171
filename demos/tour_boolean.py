#!/usr/bin/env python3
"""Walk through the Boolean lattice B_4: labeling, shelling, h-vector
bookkeeping, and the ear decompositions of its full and rank-selected
order complexes.

Run:  python3 demos/tour_boolean.py
"""

from __future__ import annotations

from earlab.complexes import f_h_vectors, h_from_shelling, order_complex
from earlab.decompositions import (
    decompose_rank_selected_boolean,
    decompose_supersolvable,
    verify_ced,
)
from earlab.flags import descent_classes
from earlab.labelings import derive_sn_labeling, h_by_descents, lex_shelling
from earlab.lattices import boolean_lattice
from earlab.posets import proper_part


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    lat = boolean_lattice(4)
    p = lat.poset
    banner("B_4 as a graded lattice")
    print(f"elements: {p.n}, rank: {p.max_rank()}")
    print(f"standard reference chain: {lat.mchain}")

    banner("Edge labeling and the lex shelling")
    lab = derive_sn_labeling(lat)
    sh, chains = lex_shelling(p, lab)
    print(f"maximal chains of the proper part: {len(chains)}")
    first = chains[0]
    print(f"first chain {first} has label word {lab.word(first)}")

    banner("One h-vector, three routes")
    _, h_transform = f_h_vectors(order_complex(proper_part(p)))
    print(f"f-vector transform:        {h_transform}")
    print(f"shelling restriction sizes: {h_from_shelling(sh)}")
    print(f"descent counting:           {h_by_descents(p, lab)}")

    banner("Full decomposition (one ear: the complex is itself a sphere)")
    dec = decompose_supersolvable(lat)
    report = verify_ced(dec)
    print(f"ears: {len(dec.ears)}, axioms ok: {report['ok']}")
    print(f"h: {report['h_checks']['h']}, g: {report['h_checks']['g']}")

    banner("Rank selection S = {1, 3}")
    sel = decompose_rank_selected_boolean(4, [1, 3])
    report = verify_ced(sel)
    words = descent_classes(4)[frozenset({1, 3})]
    print(f"descent class words for S: {sorted(words)}")
    print(f"ears: {len(sel.ears)} (one per class word)")
    for ear in sel.ears:
        prov = ear.provenance
        print(
            f"  ear {prov['class_index']}: word {tuple(prov['class_word'])}, "
            f"{len(ear.chains)} chains, facets {len(ear.complex.facets)}"
        )
    print(f"axioms ok: {report['ok']}")
    print(f"h: {report['h_checks']['h']} "
          f"(inequalities ok: {report['h_checks']['inequalities_ok']}, "
          f"g is an M-vector: {report['h_checks']['g_is_m_vector']})")


if __name__ == "__main__":
    main()
