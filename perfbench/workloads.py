"""Fixed workloads of the earlab benchmark: fixtures, rungs, expected counts.

A rung is one ``earlab.cli.main(argv)`` call. Every decompose rung records
the ear and facet counts the paper's theory predicts; ``oracle_counts``
recomputes them by routes that never run an ear construction: ears as
|mu| of the bounded rank selection, as the size of a descent class counted
over all permutations, or as the number of nbc bases of the matroid; facets
as maximal chains of the rank selection, or for B_r as a multinomial
coefficient. The flag rungs record their number of dominating pairs.

Nothing here is random: the seed only picks the interpreter's hash seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations
from math import factorial, prod
from pathlib import Path
from typing import Optional

K33_EDGES = "0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5"
PRISM_EDGES = "0-1,1-2,0-2,3-4,4-5,3-5,0-3,1-4,2-5"
K5_EDGES = "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4"

# argv of ``earlab gen`` for each generated fixture (the output path is added)
GENERATED = {
    "b5": ["boolean", "--rank", "5"],
    "b6": ["boolean", "--rank", "6"],
    "b7": ["boolean", "--rank", "7"],
    "pi5": ["partition", "--n", "5"],
    "k33": ["graphic-matroid", "--vertices", "6", "--edges", K33_EDGES],
    "prism": ["graphic-matroid", "--vertices", "6", "--edges", PRISM_EDGES],
    "k5": ["graphic-matroid", "--vertices", "5", "--edges", K5_EDGES],
}


def cross_polytope_boundary(n: int) -> dict:
    """Boundary of the n-dimensional cross-polytope as an earlab.complex/1
    document: one facet per choice of sign in each of the n coordinates."""
    facets = [[]]
    for i in range(1, n + 1):
        facets = [f + [s + str(i)] for f in facets for s in ("n", "p")]
    facets = sorted(sorted(f) for f in facets)
    vertices = sorted({v for f in facets for v in f})
    return {"schema": "earlab.complex/1", "vertices": vertices, "facets": facets}


WRITTEN = {
    "octa": lambda: cross_polytope_boundary(3),
    "cross4": lambda: cross_polytope_boundary(4),
}


@dataclass(frozen=True)
class Rung:
    name: str
    argv: tuple[str, ...]  # "{fixture}" and "{report:<rung>}" are substituted
    fixtures: tuple[str, ...] = ()
    ears: Optional[int] = None
    facets: Optional[int] = None
    pairs: Optional[int] = None
    # how the oracle recounts ears and facets without the constructor:
    # (kind, fixture, ranks) with kind in mobius | nbc | descent-class
    oracle: Optional[tuple] = None
    reads: Optional[str] = None  # rung whose report this rung reads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rungs: tuple[Rung, ...] = field(default_factory=tuple)

    @property
    def fixtures(self) -> list[str]:
        return sorted({f for r in self.rungs for f in r.fixtures})


def _decompose(name, construction, fixture, ears, facets, oracle, *extra):
    argv = ["decompose", "--construction", construction]
    fixtures: tuple[str, ...] = ()
    if fixture is not None:
        argv += ["--input", "{" + fixture + "}"]
        fixtures = (fixture,)
    return Rung(name, tuple(argv) + extra, fixtures, ears=ears, facets=facets, oracle=oracle)


def _flags(name, fixture, pairs):
    argv = ("verify", "--what", "flag-inequalities", "--input", "{" + fixture + "}")
    return Rung(name, argv, (fixture,), pairs=pairs)


FULL = None  # the oracle's stand-in for "every proper rank"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-order",
            "few ears with many facets each: shelling, homology, the boundary-axiom union and the M-chain check; no flag code",
            (
                _decompose("b5-ss", "supersolvable", "b5", 1, 120, ("mobius", "b5", FULL)),
                _decompose("pi5-ss", "supersolvable", "pi5", 24, 180, ("mobius", "pi5", FULL)),
                _decompose("k33-geo", "geometric", "k33", 31, 1152, ("nbc", "k33", FULL)),
                _decompose("prism-geo", "geometric", "prism", 26, 1008, ("nbc", "prism", FULL)),
                _decompose(
                    "cross4-fp123", "face-poset", "cross4", 15, 192,
                    ("mobius", "cross4", (1, 2, 3)), "--ranks", "1,2,3",
                ),
            ),
        ),
        Workload(
            "rank-selected",
            "hundreds of small ears and ~200 KB reports: classifier words, ambient spheres, per-ear complex rebuilds, B8 tables; one rung reads a report back",
            (
                _decompose(
                    "bool7-246", "rank-boolean", None, 272, 630,
                    ("descent-class", 7, (2, 4, 6)), "--rank", "7", "--ranks", "2,4,6",
                ),
                _decompose(
                    "bool8-35", "rank-boolean", None, 449, 560,
                    ("descent-class", 8, (3, 5)), "--rank", "8", "--ranks", "3,5",
                    "--cap-lattice", "256",
                ),
                _decompose(
                    "pi5-rss13", "rank-supersolvable", "pi5", 46, 70,
                    ("mobius", "pi5", (1, 3)), "--ranks", "1,3",
                ),
                _decompose(
                    "k5-geo13", "geometric", "k5", 46, 70,
                    ("mobius", "k5", (1, 3)), "--ranks", "1,3",
                ),
                _decompose(
                    "octa-fp12", "face-poset", "octa", 7, 24,
                    ("mobius", "octa", (1, 2)), "--ranks", "1,2",
                ),
                Rung(
                    "bool7-246-recip",
                    ("verify", "--what", "reciprocity", "--input", "{report:bool7-246}"),
                    ears=272,
                    reads="bool7-246",
                ),
            ),
        ),
        Workload(
            "flag-dominance",
            "flag-inequality checks, nearly all time in flags.dominates; never enters complexes or decompositions, so complex-layer changes must not move it",
            (
                _flags("b7-flags", "b7", 344),
                _flags("b6-flags", "b6", 111),
                _flags("pi5-flags", "pi5", 11),
                _flags("cross4-flags", "cross4", 11),
            ),
        ),
    )
}


ALL_RUNGS = tuple(r.name for w in WORKLOADS.values() for r in w.rungs)


def write_fixtures(names, outdir: Path, gen) -> dict[str, str]:
    """Write each named fixture into ``outdir``; ``gen(argv)`` runs
    ``earlab gen``. Returns fixture name -> path."""
    paths = {}
    for name in names:
        path = outdir / f"{name}.json"
        if name in GENERATED:
            code = gen(["gen", *GENERATED[name], "--output", str(path)])
            if code != 0:
                raise RuntimeError(f"earlab gen for fixture {name} exited {code}")
        else:
            path.write_text(json.dumps(WRITTEN[name]()), encoding="utf-8")
        paths[name] = str(path)
    return paths


def rung_argv(rung: Rung, fixtures: dict[str, str], reports: dict[str, str]) -> list[str]:
    out = []
    for a in rung.argv:
        if a.startswith("{report:"):
            out.append(reports[a[len("{report:") : -1]])
        elif a.startswith("{"):
            out.append(fixtures[a[1:-1]])
        else:
            out.append(a)
    return out


def oracle_counts(rung: Rung, fixtures: dict[str, str]) -> tuple[int, int]:
    """(ears, facets) for a decompose rung, recounted without the constructor."""
    # imported here: run.py loads this module without earlab on its path
    from earlab.complexes import complex_from_json, face_poset
    from earlab.lattices import lattice_from_json
    from earlab.matroids import lattice_of_flats, matroid_from_json, nbc_bases
    from earlab.posets import maximal_chains, mobius, rank_select, with_bounds

    kind, source, ranks = rung.oracle
    if kind == "descent-class":
        r = source
        perms = sum(
            1
            for p in permutations(range(r))
            if {i + 1 for i in range(r - 1) if p[i] > p[i + 1]} == set(ranks)
        )
        # flags of B_r at ranks s_1 < ... < s_k: a multinomial coefficient
        steps = [b - a for a, b in zip((0, *ranks), (*ranks, r))]
        flags = factorial(r) // prod(factorial(s) for s in steps)
        return perms, flags

    doc = json.loads(Path(fixtures[source]).read_text(encoding="utf-8"))
    schema = doc["schema"]
    if schema == "earlab.complex/1":
        c = complex_from_json(doc)
        poset = face_poset(c, include_empty=True, graded=True)
        rho = c.dim + 1
    elif schema == "earlab.matroid/1":
        matroid = matroid_from_json(doc)
        poset = lattice_of_flats(matroid).poset
        rho = poset.rank_of(poset.top)
    else:
        poset = lattice_from_json(doc).poset
        rho = poset.rank_of(poset.top)
    sel = rank_select(poset, tuple(range(1, rho)) if ranks is FULL else ranks)
    flags = len(maximal_chains(sel))
    if kind == "nbc":
        return len(nbc_bases(matroid)), flags
    bounded = with_bounds(sel)
    return abs(mobius(bounded, bounded.bottom, bounded.top)), flags
