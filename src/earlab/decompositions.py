"""Convex-ear decompositions of order complexes.

Five constructions share one engine. Each ear lives inside a copy of the
Boolean lattice B_rho embedded in a host poset, and is cut out in copy
coordinates (subsets of [rho]) as Chari's are: for each class word w, in
lex order over the descent class D_S of the selected ranks, the selected
flags of the sphere Sigma_w that no earlier word's sphere holds, listed in
reverse lex order of their frame words, which shells them. One rule
decides what is new: a chain that no earlier copy holds all of (for a face
poset, the shelling's restriction rule). The constructions differ only in
their copies' generators. Both lattice constructions read them off the
strictly decreasing maximal chains of one EL-labeling; for the minimal
labeling of a geometric lattice these are the nbc bases (Björner 1992).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .complexes import (
    SimplicialComplex,
    ShellingOrder,
    _betti,
    _sphere_fault,
    build_complex,
    certify_sphere_or_ball,
    face_name,
    face_poset,
    facet_key,
    gluing_diff,
    h_from_shelling,
    order_complex,
    search_shelling,
    verify_shelling,
)
from .errors import (
    BadParams,
    EarlabError,
    EmptySelection,
    LabelingInvalid,
    NonzeroMobiusViolated,
    NotShelling,
    RangeError,
    SelfCheckFailed,
    TopRankSelected,
)
from .flags import flag_f_and_h, g_and_m_check, verify_h_inequalities
from .labelings import (
    EdgeLabeling,
    check_el,
    derive_sn_labeling,
    increasing_and_decreasing_chains,
    minimal_labeling,
    verify_sr,
)
from .lattices import Lattice, boolean_poset, subset_name
from .posets import Poset, maximal_chains, rank_select, with_bounds

__all__ = [
    "Ear",
    "EarDecomposition",
    "decompose_supersolvable",
    "decompose_rank_selected_boolean",
    "decompose_rank_selected_supersolvable",
    "decompose_face_poset",
    "decompose_geometric",
    "verify_ced",
]


# -- class words and their spheres in copy coordinates ---------------------


def intervals_of(ranks: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal integer intervals [a, b] covering the sorted rank set."""
    out: list[tuple[int, int]] = []
    for s in ranks:
        if out and s == out[-1][1] + 1:
            out[-1] = (out[-1][0], s)
        else:
            out.append((s, s))
    return out


def _descent_class(rho: int, ranks: Sequence[int]) -> list[tuple[int, ...]]:
    """D_S, the words of [rho] whose descent set is exactly the ranks, in
    lex order: increasing runs cut at the ranks, each run starting below the
    end of the run before it."""
    cuts = [0, *ranks, rho]
    words: list[tuple[int, ...]] = [()]
    for lo, hi in zip(cuts, cuts[1:]):
        words = [
            w + run
            for w in words
            for run in combinations(sorted(set(range(1, rho + 1)).difference(w)), hi - lo)
            if not w or w[-1] > run[0]
        ]
    return words


def _sphere(word: Sequence[int], ranks: Sequence[int]) -> list[tuple[frozenset[int], ...]]:
    """The selected flags of Sigma_word, in reverse lex order of their frame
    words.

    Sigma_word holds the flags through word([k]) at every unselected rank k:
    the join, over the intervals [a, b] of the ranks, of the chains that go
    up from word([a - 1]) through the letters word(a..b+1), taken largest
    first. Chains grow one letter at a time, so each set is shared by every
    chain that passes through it.
    """
    flags: list[tuple[frozenset[int], ...]] = [()]
    for a, b in intervals_of(ranks):
        pool = sorted(word[a - 1 : b + 1], reverse=True)
        level = [((), frozenset(word[: a - 1]))]
        for _ in range(a, b + 1):
            level = [
                (c + (s,), s) for c, top in level for s in (top | {x} for x in pool if x not in top)
            ]
        flags = [f + c for f in flags for c, _ in level]
    return flags


def _class_map(
    rho: int, ranks: Sequence[int]
) -> dict[tuple[int, ...], list[tuple[frozenset[int], ...]]]:
    """Each word w of D_S, in lex order, with the flags of Sigma_w that no
    earlier word's sphere holds, in ``_sphere``'s order: Chari's ears
    (Trans. AMS 349, 1997) in copy coordinates."""
    class_map: dict[tuple[int, ...], list[tuple[frozenset[int], ...]]] = {}
    claimed: set[tuple[frozenset[int], ...]] = set()
    for word in _descent_class(rho, ranks):
        class_map[word] = [fl for fl in _sphere(word, ranks) if fl not in claimed]
        claimed.update(class_map[word])
    return class_map


def _coordinate_sphere(ranks: Sequence[int]) -> tuple[list[int], list[frozenset[int]]]:
    """K, the reference sphere in copy coordinates, as facet masks in the
    order of ``_sphere``, with the coordinate set of each bit i (the i-th).

    K is the sphere of the identity word: the join, over the intervals
    [a, b] of the selected ranks, of the chains strictly between [a - 1]
    and [b + 1], the full barycentric subdivision of a simplex boundary per
    interval. The reference sphere of class word w in a copy is K's image
    under A -> copy[w(A)], since the frame of w is w([k]) at each
    unselected rank k, so one K serves every copy and class word of a
    decomposition.
    """
    bit: dict[frozenset[int], int] = {}
    flags = _sphere(range(1, ranks[-1] + 2), ranks)
    return [sum(bit.setdefault(a, 1 << len(bit)) for a in fl) for fl in flags], list(bit)


# -- decomposition containers ------------------------------------------------


@dataclass
class Ear:
    """One ear: its chains (in shelling order), verified shelling, and where
    it came from. Its complex is the one the shelling certifies, and
    ``verify_ced`` hands that ShellingOrder to ``certify_sphere_or_ball`` as
    the ball's shelling, so no ear is shelled twice. No reference sphere is
    stored: ``verify_ced`` reads it off the class word in the provenance and
    the copy's ``coord_names``. The JSON form keeps the chains, their
    restriction faces and the provenance."""

    chains: list[tuple[str, ...]]
    shelling: ShellingOrder
    provenance: dict
    coord_names: dict[frozenset[int], str] = field(default_factory=dict, repr=False)

    @property
    def complex(self) -> SimplicialComplex:
        return self.shelling.complex

    def to_json(self) -> dict:
        return {
            "chains": [list(c) for c in self.chains],
            "restrictions": [sorted(r) for r in self.shelling.restrictions],
            "provenance": self.provenance,
        }


@dataclass
class EarDecomposition:
    construction: str
    params: dict
    poset: Poset
    ears: list[Ear]
    dropped: list[dict]
    ranks: tuple[int, ...]
    rho: int

    @property
    def complex(self) -> SimplicialComplex:
        """Δ, the order complex of ``poset``, listed afresh: not kept, not written."""
        return order_complex(self.poset)

    def to_json(self) -> dict:
        return {
            "schema": "earlab.decomposition/3",
            "construction": self.construction,
            "params": self.params,
            "rho": self.rho,
            "ranks": list(self.ranks),
            "ears": [e.to_json() for e in self.ears],
            "dropped": self.dropped,
        }


@dataclass
class _Copy:
    """A B_rho copy embedded in the host: coordinate subsets to host names."""

    elem: dict[frozenset[int], str]
    provenance: dict


# -- the shared engine --------------------------------------------------------


def _check_ranks(ranks: Iterable[int], rho: int) -> tuple[int, ...]:
    sel = sorted(set(int(s) for s in ranks))
    if not sel:
        raise EmptySelection("no ranks selected")
    bad = [s for s in sel if not 1 <= s <= rho - 1]
    if bad:
        raise RangeError(f"ranks {bad} fall outside 1..{rho - 1}")
    return tuple(sel)


def _assemble(
    construction: str,
    params: dict,
    sel_poset: Poset,
    copies: Sequence[_Copy],
    ranks: tuple[int, ...],
    rho: int,
) -> EarDecomposition:
    """Cut every copy's selected chains into ears by ``_class_map``, keep
    the new ones; ``verify_ced`` decides whether they partition the chains."""
    class_map = _class_map(rho, ranks)
    is_new = _subset_novelty(copies)
    ears: list[Ear] = []
    dropped: list[dict] = []
    for ci, copy in enumerate(copies):
        for wj, (word, flags) in enumerate(class_map.items()):
            kept: list[tuple[str, ...]] = []
            for fl in flags:
                names = tuple(copy.elem[x] for x in fl)
                if is_new(ci, names):
                    kept.append(names)
            prov = dict(copy.provenance)
            prov["copy_index"] = ci + 1
            prov["class_word"] = list(word)
            prov["class_index"] = wj + 1
            if not kept:
                dropped.append(prov)
                continue
            facets = [frozenset(names) for names in kept]
            comp = build_complex(facets)
            where = {f: k for k, f in enumerate(comp.facets)}
            shelling = verify_shelling(comp, [where[f] for f in facets])
            ears.append(
                Ear(chains=kept, shelling=shelling, provenance=prov, coord_names=copy.elem)
            )
    return EarDecomposition(
        construction=construction,
        params=params,
        poset=sel_poset,
        ears=ears,
        dropped=dropped,
        ranks=ranks,
        rho=rho,
    )


# -- constructions -------------------------------------------------------------


def _generated_copy(
    generators: Sequence, name_of: Callable[[Iterable], str], provenance: dict
) -> _Copy:
    """The Boolean copy spanned by ``generators``: coordinate set A names
    the host element that ``name_of`` gives the generators indexed by A."""
    r = len(generators)
    elem = {
        frozenset(a): name_of(generators[k - 1] for k in a)
        for size in range(r + 1)
        for a in combinations(range(1, r + 1), size)
    }
    if len(set(elem.values())) != len(elem):
        raise SelfCheckFailed("copy embedding is not injective")
    return _Copy(elem, provenance)


def _selection(ranks: Optional[Iterable[int]], r: int) -> tuple[int, ...]:
    """The checked rank set, or the whole proper part when ``ranks`` is None."""
    if ranks is not None:
        return _check_ranks(ranks, r)
    if r < 2:
        raise EmptySelection("proper part has no ranks to select")
    return tuple(range(1, r))


def decompose_rank_selected_boolean(r: int, ranks: Iterable[int]) -> EarDecomposition:
    """Ears of the rank-selected Boolean lattice, one per descent-class word."""
    p = boolean_poset(r)
    sel = _check_ranks(ranks, r)
    copy = _generated_copy(range(1, r + 1), subset_name, {"copy": "boolean"})
    return _assemble(
        "rank-boolean",
        {"r": r, "ranks": list(sel)},
        rank_select(p, sel),
        [copy],
        sel,
        r,
    )


def _supersolvable_copies(lat: Lattice, lab: EdgeLabeling) -> list[_Copy]:
    """One copy per strictly decreasing maximal chain c, generated by
    g_a = z_a ∧ c_(r-a+1) with z the increasing chain. Each coordinate
    cover A ⊂ A + b must land on a host cover labelled b."""
    rising, falling = increasing_and_decreasing_chains(lat.poset, lab, lat.bottom, lat.top)
    r = lat.rank
    copies = []
    for c in falling:
        gens = [lat.meet(rising[a], c[r - a + 1]) for a in range(1, r + 1)]
        copy = _generated_copy(gens, lat.join_of, {"decreasing_chain": list(c)})
        for a, x in copy.elem.items():
            for b in set(range(1, r + 1)) - a:
                y = copy.elem[a | {b}]
                if lab.labels.get((x, y)) != b:
                    raise SelfCheckFailed(f"copy cover {x!r} < {y!r} is not a host cover labelled {b}")
        copies.append(copy)
    return copies


def _subset_novelty(copies: Sequence[_Copy]):
    """A chain of copy ci is new when no earlier copy holds all of it: bit
    m of ``holders[x]`` marks that copy m holds x, so the AND over the
    chain's elements must have no bit below ci."""
    holders: dict[str, int] = {}
    for m, c in enumerate(copies):
        for x in c.elem.values():
            holders[x] = holders.get(x, 0) | 1 << m

    def is_new(ci: int, chain_names) -> bool:
        common = -1
        for x in chain_names:
            common &= holders[x]
        return not common & ((1 << ci) - 1)

    return is_new


def _supersolvable(
    construction: str,
    lat: Lattice,
    lab: Optional[EdgeLabeling],
    ranks: Optional[Iterable[int]],
) -> EarDecomposition:
    """Outer index over decreasing chains, inner index over descent-class
    words; empty classes are dropped (with provenance kept)."""
    if lab is None:
        lab = derive_sn_labeling(lat)
    # check_el keeps its walk on lab, so a derived lab is not walked again
    zero = check_el(lat.poset, lab)
    if not verify_sr(lat.poset, lab):
        raise LabelingInvalid("labeling is EL but not an S_r labeling")
    if zero is not None:
        raise NonzeroMobiusViolated(f"mobius({zero[0]!r}, {zero[1]!r}) = 0")
    sel = _selection(ranks, lat.rank)
    copies = _supersolvable_copies(lat, lab)
    return _assemble(
        construction,
        {} if ranks is None else {"ranks": list(sel)},
        rank_select(lat.poset, sel),
        copies,
        sel,
        lat.rank,
    )


def decompose_rank_selected_supersolvable(
    lat: Lattice, lab: Optional[EdgeLabeling] = None, ranks: Iterable[int] = ()
) -> EarDecomposition:
    """Ears of a rank-selected supersolvable lattice."""
    return _supersolvable("rank-supersolvable", lat, lab, ranks)


def decompose_supersolvable(
    lat: Lattice, lab: Optional[EdgeLabeling] = None
) -> EarDecomposition:
    """Full decomposition of a supersolvable lattice's proper part: one ear
    per strictly decreasing maximal chain."""
    return _supersolvable("supersolvable", lat, lab, None)


def decompose_face_poset(
    c: SimplicialComplex,
    shelling: Optional[Sequence[int]] = None,
    ranks: Iterable[int] = (),
) -> EarDecomposition:
    """Ears of the rank-selected face poset of a shellable complex.

    Each shelling step contributes a Boolean copy (faces of that facet,
    coordinatized by a vertex order that puts the restriction face last);
    no earlier facet holds a chain exactly when its top face contains the
    restriction face (Björner, Handbook of Combinatorics, 1995).
    """
    if c.is_void or c.is_irrelevant:
        raise BadParams("need a complex with at least one vertex")
    d = c.dim + 1
    sel_raw = sorted(set(int(s) for s in ranks))
    if any(s >= d for s in sel_raw):
        raise TopRankSelected(
            f"rank {d} (the facets) cannot be selected; asked for {sel_raw}"
        )
    sel = _check_ranks(sel_raw, d)
    if shelling is None:
        sh = search_shelling(c)
        if sh is None:
            raise NotShelling("no shelling order found")
    else:
        sh = verify_shelling(c, list(shelling))

    fp = face_poset(c, include_empty=True, graded=True)

    copies = []
    for step, (facet, restr) in enumerate(zip(sh.facet_sequence(), sh.restrictions)):
        placement = sorted(facet - restr) + sorted(restr)
        provenance = {
            "facet": face_name(facet),
            "step": step + 1,
            "vertex_order": placement,
            "restriction": face_name(restr),
        }
        copies.append(_generated_copy(placement, face_name, provenance))
    return _assemble(
        "face-poset",
        {"ranks": list(sel), "shelling": [face_name(f) for f in sh.facet_sequence()]},
        rank_select(fp, sel),
        copies,
        sel,
        d,
    )


def decompose_geometric(
    lat: Lattice,
    atom_order: Optional[Sequence[str]] = None,
    ranks: Optional[Iterable[int]] = None,
) -> EarDecomposition:
    """Ears of a geometric lattice's (possibly rank-selected) order complex,
    one outer index per nbc-basis: the label set of a falling chain of the
    minimal labeling, read as positions in ``atoms``, in lex order."""
    atoms = sorted(lat.atoms()) if atom_order is None else list(atom_order)
    lab = minimal_labeling(lat, atoms)
    r = lat.rank
    p = lat.poset
    _, falling = increasing_and_decreasing_chains(p, lab, lat.bottom, lat.top)
    copies = []
    for positions in sorted(sorted(lab.word(c)) for c in falling):
        basis = [atoms[k - 1] for k in positions]
        provenance = {"basis": basis, "atom_positions": positions}
        copies.append(_generated_copy(basis, lat.join_of, provenance))

    sel = _selection(ranks, r)
    params: dict = {"atom_order": atoms}
    if ranks is not None:
        params["ranks"] = list(sel)
    dec = _assemble(
        "geometric",
        params,
        rank_select(p, sel),
        copies,
        sel,
        r,
    )
    # keep the labeling around for callers that want to cross-check words
    dec.params["labels"] = lab.to_json_field()
    return dec


# -- the axiom verifier ---------------------------------------------------------


def verify_ced(dec: EarDecomposition) -> dict:
    """Check the four decomposition axioms of the ears in Δ, the order
    complex of ``dec.poset``, and the h-vector facts that follow, with no
    complex built or shelled. The flag f and h of ``dec.poset`` with bounds
    (Stanley, EC1 §3.13) give h(Δ) and, at the full rank set, Δ's facets'
    number: the ears cover and partition Δ when each ear facet is a maximal
    chain of the poset and the chains, all distinct, number that many. Δ's
    chains are listed only to name missing ones. With no poset, or one
    ``flag_f_and_h`` refuses, ``axiom_union``, ``chain_partition`` and
    ``h_checks`` carry its ``error``. Once the axioms hold, ``ear_sum``
    reads h(Δ) off the ears' verified shellings (Chari, Trans. AMS 349,
    1997); ``ear_sum_matches`` joins ``ok``. Report-style: never raises on
    a failed axiom; every section carries an ``ok`` flag and a witness.

    Each ear is checked inside K, the coordinate sphere of the ranks, as
    masks, through the inverse of the relabelling by its copy and class
    word; with no class word, or a map undefined or not injective on K, it
    fails every polytope entry. Ears that pull back onto one mask set within
    K share one certificate; K takes the verdict memoized under its own
    facets, or else the sphere test.
    """
    ears = dec.ears
    report: dict = {
        "schema": "earlab.ced-verify/2",
        "construction": dec.construction,
        "ears": len(ears),
    }
    if not ears:
        report["ok"] = False
        report["error"] = "decomposition has no ears"
        return report

    try:
        if dec.poset is None:
            raise BadParams("the decomposition carries no poset to count chains in")
        ff, fh = flag_f_and_h(with_bounds(dec.poset))
    except EarlabError as exc:
        h_section = {"error": str(exc)}
        union = partition = {"ok": False, **h_section}
    else:
        p, facets = dec.poset, ff[range(1, ff.rho)]  # Δ's facets, the maximal chains of p
        covered = {f for ear in ears for f in ear.complex.facets}  # the ears' own facet objects

        def is_chain(names: frozenset[str]) -> bool:  # an element of each rank, each below the next
            up = sorted((p.index(x) for x in names if p.has_element(x)), key=p.ranks.__getitem__)
            return len(up) == len(names) == ff.rho - 1 and all(map(p.leq_i, up, up[1:]))

        extra = sorted((f for f in covered if not is_chain(f)), key=facet_key)
        missing = []
        if len(covered) - len(extra) < facets:
            missing = sorted({frozenset(c) for c in maximal_chains(p)} - covered, key=facet_key)
        del covered  # not to be held through the certificates
        union = {
            "ok": not missing and not extra,
            "missing": [sorted(f) for f in missing[:3]],
            "extra": [sorted(f) for f in extra[:3]],
        }
        total = sum(len(ear.chains) for ear in ears)
        distinct = len({c for ear in ears for c in ear.chains}) == total
        partition = {"ok": distinct and total == facets, "total": total, "facets": facets}
        # h_k(Δ) = Σ over k-sets S of ranks of the flag h_S
        h = [sum(n for S, n in fh.entries.items() if len(S) == k) for k in range(fh.rho)]
        ineq_ok, failures = verify_h_inequalities(h)
        g, m_ok = g_and_m_check(h)
        h_section = {
            "h": h,
            "inequalities_ok": ineq_ok,
            "failures": failures,
            "g": list(g),
            "g_is_m_vector": m_ok,
        }
    report["axiom_union"] = union

    # bit k of holders[v]: the k-th facet of the earlier ears holds v
    kinds = []
    entries = []
    witnesses = []
    holders: dict[str, int] = {}
    placed = 0
    masks, coord = _coordinate_sphere(dec.ranks)
    sphere_facets, dim = frozenset(masks), len(dec.ranks) - 1
    outside = 1 << len(coord)
    sphere_ok: Optional[bool] = None
    certified: dict[frozenset[int], str] = {}
    for i, ear in enumerate(ears):
        pulled = _pulled_back(ear, coord)
        key = pulled if pulled is not None and max(pulled, default=0) < outside else None
        kind = certified.get(key)
        if kind is None:
            kind = _certify(ear.complex, ear.shelling)
            if key is not None:
                certified[key] = kind
        kinds.append(kind)
        entry = {"ear": i + 1}
        if pulled is None:
            entry.update(dict.fromkeys(
                ("ambient_is_sphere", "full_dimensional", "subcomplex", "proper" if i else "equals_ambient"),
                False,
            ))
        else:
            if sphere_ok is None:
                known = certified.get(sphere_facets)
                sphere_ok = known == "SPHERE" if known else not _sphere_fault(_betti(masks, dim), masks)
            entry["ambient_is_sphere"] = sphere_ok
            entry["full_dimensional"] = ear.complex.dim == dim
            entry["subcomplex"] = all(
                m in sphere_facets or any(m | k == k for k in masks) for m in pulled
            )
            if i == 0:
                entry["equals_ambient"] = pulled == sphere_facets
            else:
                entry["proper"] = pulled < sphere_facets
        entries.append(entry)

        if i:
            diff = gluing_diff(ear.complex, holders, (1 << placed) - 1)
            if diff:
                witnesses.append({"ear": i + 1, "faces": [sorted(f) for f in diff[:3]]})
        if i < len(ears) - 1:  # no later ear reads the last one's facets
            for f in ear.complex.facets:
                for v in f:
                    holders[v] = holders.get(v, 0) | 1 << placed
                placed += 1

    axiom_sphere_ok = kinds[0] == "SPHERE" and all(
        v for e in entries for k, v in e.items() if k != "ear"
    )
    axiom_balls_ok = all(kind == "BALL" for kind in kinds[1:])
    boundary_ok = not witnesses
    report["axiom_polytope"] = {
        "ok": axiom_sphere_ok,
        "note": "ambient spheres are joins of subdivided simplex boundaries, polytopal by construction",
        "per_ear": entries,
    }
    report["axiom_balls"] = {"ok": axiom_balls_ok, "kinds": kinds}
    report["axiom_boundary"] = {"ok": boundary_ok, "witnesses": witnesses}
    report["chain_partition"] = partition

    axioms = ("axiom_union", "axiom_polytope", "axiom_balls", "axiom_boundary", "chain_partition")
    axioms_ok = all(report[k]["ok"] for k in axioms)
    if axioms_ok:  # so Δ was counted and h(Δ) summed
        # h(Δ) = h(Σ_1) + Σ_{i≥2} h(Σ_i, ∂Σ_i), and h_k(B, ∂B) = h_{d−k}(B) for a ball
        ear_sum = list(h_from_shelling(ears[0].shelling))
        for ear in ears[1:]:
            for k, n in enumerate(reversed(h_from_shelling(ear.shelling))):
                ear_sum[k] += n
        h_section["ear_sum"] = ear_sum
        h_section["ear_sum_matches"] = ear_sum == h
    report["h_checks"] = h_section

    h_ok = all(h_section.get(k) for k in ("ear_sum_matches", "inequalities_ok", "g_is_m_vector"))
    report["ok"] = axioms_ok and h_ok
    return report


def _pulled_back(ear: Ear, coord: Sequence[frozenset[int]]) -> Optional[frozenset[int]]:
    """The ear's facets as masks over K's bits, through the inverse of the
    relabelling A -> coord_names[w(A)] for the class word w; None when the
    ear has no reference sphere: no class word, or a map undefined or not
    injective on K. A host vertex outside K's image counts as the bit just
    above K's vertices, so a facet holding one reads at or above that bit
    and is no face of K."""
    word = ear.provenance.get("class_word")
    if word is None:
        return None
    letter = dict(enumerate(word, start=1))
    back: dict[str, int] = {}
    for i, a in enumerate(coord):
        name = ear.coord_names.get(frozenset(letter.get(j) for j in a))
        if name is None or name in back:
            return None
        back[name] = 1 << i
    outside = 1 << len(coord)
    bit = {x: back.get(x, outside) for x in ear.complex.vertices}
    return frozenset(sum(map(bit.__getitem__, f)) for f in ear.complex.facets)


def _certify(c: SimplicialComplex, shelling: ShellingOrder) -> str:
    """The kind ``certify_sphere_or_ball`` gives ``c`` with its verified
    ``shelling``; "UNCERTIFIED(reason)" when it refuses. Any error other
    than an EarlabError is a bug and propagates."""
    try:
        return certify_sphere_or_ball(c, shelling).kind
    except EarlabError as exc:  # report, don't raise
        return f"UNCERTIFIED({exc})"

