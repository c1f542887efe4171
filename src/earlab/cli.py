"""Command-line front end: fixtures in, decompositions and verdicts out.

Four subcommands:

``gen``
    Write a standard input family (lattice, matroid, complex) as canonical
    JSON and print its digest.
``decompose``
    Run one of the five ear constructions on a fixture, verify the
    decomposition axioms, and emit the full report.
``verify``
    Re-check something: a decomposition report (``ced``), an h- or g-vector
    (``h-inequalities``, ``m-vector``), flag-vector dominance of a poset or
    complex (``flag-inequalities``), Cohen-Macaulayness (``cm``, ``2cm``),
    or the flag reciprocity identity on every ear of a report
    (``reciprocity``).
``experiment``
    Observation-only scan over rank selections of a shellable complex,
    including selections through the top rank where no construction is
    claimed; exits 0 unless the input itself is unusable.

Reports are canonical JSON on stdout (or ``--output``); repeated runs with
identical inputs and flags produce byte-identical documents.  Wall time,
digests of stdout reports, and warnings go to stderr.  Exit codes: 0 all
checks passed, 2 a precondition failed, 3 a check ran and failed (an
internal self-check included), 4 I/O or schema trouble.
Each command names the document kinds (``schema`` values) its ``--input``
takes: a missing ``--input`` exits 2 and a document of another kind exits 4.
An argument a gen family, construction or check needs and lacks, or does not read, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from itertools import combinations
from math import factorial
from pathlib import Path
from typing import Mapping, Optional

from .complexes import (
    SimplicialComplex,
    _faces_by_size,
    build_complex,
    complex_from_json,
    complex_to_json,
    f_h_vectors,
    face_name,
    face_poset,
    is_cm_and_2cm,
    order_complex,
    search_shelling,
)
from .decompositions import (
    EarDecomposition,
    decompose_face_poset,
    decompose_geometric,
    decompose_rank_selected_boolean,
    decompose_rank_selected_supersolvable,
    decompose_supersolvable,
    verify_ced,
)
from .errors import BadParams, EarlabError, NotGraded, SelfCheckFailed, SizeLimit
from .flags import (
    _check_class_rank,
    _inequality_report,
    ball_flag_reciprocity,
    face_poset_flags,
    g_and_m_check,
    g_vector,
    m_vector_witness,
    verify_flag_inequalities,
    verify_h_inequalities,
)
from .labelings import EdgeLabeling
from .lattices import boolean_lattice, lattice_from_json, lattice_to_json, partition_lattice
from .matroids import (
    graphic_matroid,
    lattice_of_flats,
    matroid_from_json,
    matroid_to_json,
    uniform_matroid,
)
from .posets import (
    canonical_dumps,
    labels_from_json,
    poset_from_json,
    rank_select,
)

RUN_SCHEMA = "earlab.run/2"
RUN_SCHEMAS = ("earlab.run/1", RUN_SCHEMA)  # /1 adds only ear keys verify never reads
VERIFY_SCHEMA = "earlab.verify/2"
EXPERIMENT_SCHEMA = "earlab.experiment/1"
LATTICES = ("earlab.lattice/1", "earlab.poset/1")
COMPLEX = "earlab.complex/1"
MATROID = "earlab.matroid/1"

# the document kinds each construction reads, alike from ``decompose --input``
# and from a run report's input.document; rank-boolean reads none
READS = {
    "supersolvable": LATTICES,
    "rank-supersolvable": LATTICES,
    "face-poset": (COMPLEX,),
    "geometric": (MATROID, *LATTICES),
}
# the arguments each construction needs, and those it may take besides
TAKES = {
    "supersolvable": (("input",), ()),
    "rank-boolean": (("rank", "ranks"), ()),
    "rank-supersolvable": (("input", "ranks"), ()),
    "face-poset": (("input", "ranks"), ("shelling",)),
    "geometric": (("input",), ("ranks", "atom_order")),
}
DECOMPOSE_ARGS = sorted({key for spec in TAKES.values() for keys in spec for key in keys})

DEFAULT_CAPS = {"lattice": 200, "homology": 5000}

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_FAILED = 3
EXIT_IO = 4

COMPLEX_FIXTURES = {
    "triangle": [["a", "b", "c"]],
    "two-triangles": [["a", "b", "c"], ["a", "b", "d"]],
    "tetrahedron-boundary": [
        ["a", "b", "c"],
        ["a", "b", "d"],
        ["a", "c", "d"],
        ["b", "c", "d"],
    ],
    "square": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    "bowtie": [["a", "b", "c"], ["a", "d", "e"]],
}


class SchemaTrouble(Exception):
    """Unreadable file, malformed JSON, or a document of the wrong kind."""


# -- plumbing ------------------------------------------------------------------


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(doc: Mapping, output: Optional[str]) -> None:
    text = canonical_dumps(doc)
    digest = _digest(text)
    if output:
        Path(output).write_text(text, encoding="utf-8")
        print(f"sha256 {digest} {output}")
    else:
        sys.stdout.write(text)
        print(f"sha256 {digest}", file=sys.stderr)


def _load_document(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaTrouble(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaTrouble(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not str(doc.get("schema", "")).startswith("earlab."):
        raise SchemaTrouble(f"{path} has no earlab schema field")
    return doc


def _of_kind(doc: Mapping, *schemas: str) -> Mapping:
    """``doc``, refused with SchemaTrouble unless its schema is one of ``schemas``."""
    if doc.get("schema") not in schemas:
        raise SchemaTrouble(
            f"expected a document of kind {' or '.join(schemas)}, got {doc.get('schema')!r}"
        )
    return doc


def _input(args, *schemas: str, need: str = "--input") -> Mapping:
    """The ``--input`` document, of one of the kinds ``schemas``; ``need``
    names it with the arguments that could stand in for it."""
    if not args.input:
        raise BadParams(f"need {need}, a document of kind {' or '.join(schemas)}")
    return _of_kind(_load_document(args.input), *schemas)


def _takes(args, what: str, known, needs=(), reads=(), one_of=()) -> None:
    """Refuse with BadParams (exit 2), naming the arguments, command ``what``
    without one of ``needs`` (``_input`` names the kinds of a missing
    ``--input``), with two of ``one_of``, or with one of ``known`` it does not read."""
    flag = {key: "--" + key.replace("_", "-") for key in (*known, *one_of)}
    if any(getattr(args, key) in (None, "") for key in needs if key != "input"):
        raise BadParams(f"{what} needs " + " and ".join(flag[key] for key in needs))
    if sum(getattr(args, key) is not None for key in one_of) > 1:
        raise BadParams(f"{what} reads one of {', '.join(map(flag.get, one_of))}; give one")
    read = (*needs, *reads, *one_of)
    extra = [flag[key] for key in known if key not in read and getattr(args, key) is not None]
    if extra:
        raise BadParams(f"{what} does not read {', '.join(extra)}; drop it")


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise BadParams(f"{what} must be a comma list of integers, got {text!r}") from exc


def _str_list(text: str) -> list[str]:
    return [x for x in text.split(",") if x != ""]


def _edge_list(text: str) -> list[tuple[int, int]]:
    out = []
    for part in _str_list(text):
        bits = part.split("-")
        if len(bits) != 2:
            raise BadParams(f"edge {part!r} is not of the form u-v")
        try:
            out.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise BadParams(f"edge {part!r} has non-integer ends") from exc
    return out


def _cap_checker(args):
    def check(kind: str, actual: int) -> None:
        limit = getattr(args, f"cap_{kind}")
        limit = DEFAULT_CAPS[kind] if limit is None else limit
        if actual > limit:
            raise SizeLimit(
                f"{kind} size {actual} exceeds the cap {limit}; raise --cap-{kind} to proceed"
            )
        if actual > DEFAULT_CAPS[kind]:
            _warn(f"{kind} size {actual} is above the default cap {DEFAULT_CAPS[kind]}")

    return check


# -- input materialization -------------------------------------------------------


def _face_flag_h(c: SimplicialComplex):
    """The flag h whose dominance the suite checks for a complex: that of
    its face poset with the facet rank dropped (the suite's guarantees stop
    below the facets) and bounds added, read off f(c)."""
    d = c.dim + 1
    _check_class_rank(d)  # the rank the suite sees, refused before any face is listed
    if d < 2:
        raise BadParams("the complex has no proper face ranks below the facets")
    short = min(c.facets, key=len)
    if len(short) < d - 1:
        raise NotGraded(
            f"facet {face_name(short)!r} has fewer than {d - 1} vertices: "
            f"the face poset is not graded below rank {d}"
        )
    return face_poset_flags([len(s) for s in _faces_by_size(c.masks, d)], d)[1]


def _run_construction(rec: Mapping, doc: Optional[Mapping], cap) -> EarDecomposition:
    """One resolution path for ``decompose`` and for re-verification."""
    name = rec.get("construction")
    ranks = rec.get("ranks")
    if name == "rank-boolean":
        r = rec["rank"]
        cap("lattice", 2**r)
        return decompose_rank_selected_boolean(r, ranks or ())
    if doc is None:
        raise SchemaTrouble("this construction needs an input document")
    if name not in READS:
        raise BadParams(f"unknown construction {name!r}")
    kind = _of_kind(doc, *READS[name])["schema"]
    if name == "face-poset":
        c = complex_from_json(doc)
        cap("lattice", sum(map(len, _faces_by_size(c.masks, c.dim + 1))))  # the face poset
        return decompose_face_poset(c, rec.get("shelling"), ranks or ())
    if kind == MATROID:  # flats are only counted by building them
        m = matroid_from_json(doc)
        cap("lattice", 2**m.rank)  # a basis's subsets have distinct closures
        lat = lattice_of_flats(m)
        cap("lattice", lat.poset.n)
    else:  # the size is checked on the poset, before the quadratic join/meet tables
        poset = poset_from_json(doc)
        cap("lattice", poset.n)
        lat = lattice_from_json(doc, poset)
    if name == "geometric":
        return decompose_geometric(lat, rec.get("atom_order"), ranks)
    raw = labels_from_json(lat.poset, doc)
    lab = EdgeLabeling(lat.poset, raw) if raw else None
    if name == "supersolvable":
        return decompose_supersolvable(lat, lab)
    return decompose_rank_selected_supersolvable(lat, lab, ranks or ())


# -- gen -------------------------------------------------------------------------


def _fixture(name: str) -> SimplicialComplex:
    if name not in COMPLEX_FIXTURES:
        raise BadParams(f"unknown fixture {name!r}; choose from {sorted(COMPLEX_FIXTURES)}")
    return build_complex(COMPLEX_FIXTURES[name])


# each family's gen arguments, and its document built from them
GEN = {
    "boolean": (("rank",), lambda a: lattice_to_json(boolean_lattice(a.rank))),
    "partition": (("n",), lambda a: lattice_to_json(partition_lattice(a.n))),
    "uniform-matroid": (("rank", "size"), lambda a: matroid_to_json(uniform_matroid(a.rank, a.size))),
    "graphic-matroid": (
        ("vertices", "edges"),
        lambda a: matroid_to_json(graphic_matroid(a.vertices, _edge_list(a.edges))),
    ),
    "flats": (
        ("input",),
        lambda a: lattice_to_json(lattice_of_flats(matroid_from_json(_input(a, MATROID)))),
    ),
    "complex-fixture": (("name",), lambda a: complex_to_json(_fixture(a.name))),
}
GEN_ARGS = sorted({key for reads, _ in GEN.values() for key in reads})


def cmd_gen(args) -> int:
    reads, build = GEN[args.family]
    _takes(args, f"gen {args.family}", GEN_ARGS, needs=reads)
    _emit(build(args), args.output)
    return EXIT_OK


# -- decompose ---------------------------------------------------------------------


def cmd_decompose(args) -> int:
    name = args.construction
    _takes(args, f"decompose --construction {name}", DECOMPOSE_ARGS, *TAKES[name])
    rec: dict = {"construction": name}  # the report's args, in this order
    if args.rank is not None:
        rec["rank"] = args.rank
    if args.ranks is not None:
        rec["ranks"] = _int_list(args.ranks, "--ranks")
    if args.atom_order:
        rec["atom_order"] = _str_list(args.atom_order)
    if args.shelling:
        rec["shelling"] = _int_list(args.shelling, "--shelling")
    doc = _input(args, *READS[name]) if name in READS else None
    dec = _run_construction(rec, doc, _cap_checker(args))
    ced = verify_ced(dec)

    report = {
        "schema": RUN_SCHEMA,
        "command": "decompose",
        "args": rec,
        "input": None
        if doc is None
        else {"digest": _digest(canonical_dumps(doc)), "document": doc},
        "decomposition": dec.to_json(),
        "ced": ced,
    }
    _emit(report, args.output)
    return EXIT_OK if ced["ok"] else EXIT_FAILED


# -- verify ----------------------------------------------------------------------


def _expect(field: str, value, kind: type, item: Optional[type] = None) -> None:
    """Raise SchemaTrouble naming the run-report ``field`` unless ``value``
    is a ``kind`` (of ``item``s when given); a bool is no int."""
    ok = isinstance(value, kind) and not isinstance(value, bool)
    if ok and item is not None:
        ok = all(isinstance(v, item) and not isinstance(v, bool) for v in value)
    if not ok:
        of = f" of {item.__name__}" if item else ""
        raise SchemaTrouble(f"run report field {field} should be {kind.__name__}{of}")


def _report_parts(doc: Mapping) -> tuple[dict, dict, Optional[dict]]:
    """(args record, stored decomposition, embedded input document) of a run
    report, each field that the rebuild reads checked for its JSON type."""
    if doc.get("command") != "decompose":
        raise SchemaTrouble(f"expected a run report of command 'decompose', got {doc.get('command')!r}")
    rec, stored, src = doc.get("args"), doc.get("decomposition"), doc.get("input")
    _expect("args", rec, dict)
    _expect("args.construction", rec.get("construction"), str)
    if rec["construction"] == "rank-boolean":
        _expect("args.rank", rec.get("rank"), int)
    for key, item in (("ranks", int), ("atom_order", str), ("shelling", int)):
        if rec.get(key) is not None:
            _expect(f"args.{key}", rec[key], list, item)
    _expect("decomposition", stored, dict)
    _expect("decomposition.ears", stored.get("ears"), list, dict)
    if src is not None:
        _expect("input", src, dict)
        if src.get("document") is not None:
            _expect("input.document", src["document"], dict)
    return dict(rec), dict(stored), (src or {}).get("document")


def _rebuild_from_report(args) -> tuple[EarDecomposition, dict, bool]:
    rec, stored, src = _report_parts(_input(args, *RUN_SCHEMAS))
    dec = _run_construction(rec, src, _cap_checker(args))
    fresh = [[list(c) for c in ear.chains] for ear in dec.ears]
    kept = [e.get("chains") for e in stored["ears"]]
    return dec, rec, fresh == kept


def _verify_ced(args) -> tuple[dict, bool]:
    dec, rec, chains_match = _rebuild_from_report(args)
    ced = verify_ced(dec)
    if not chains_match:
        _warn("stored ear chains differ from the reconstruction")
    body = {
        "construction": rec["construction"],
        "chains_match": chains_match,
        "ced": ced,
    }
    return body, chains_match and bool(ced["ok"])


def _verify_reciprocity(args) -> tuple[dict, bool]:
    dec, rec, chains_match = _rebuild_from_report(args)
    colors = {v: dec.poset.rank_of(v) for ear in dec.ears for v in ear.complex.vertices}
    rows = [
        {"ear": k + 1, "ok": ball_flag_reciprocity(ear.complex, colors)}
        for k, ear in enumerate(dec.ears)
    ]
    body = {"construction": rec["construction"], "chains_match": chains_match, "ears": rows}
    return body, chains_match and all(row["ok"] for row in rows)


def _h_source(args, need: str = "--h or --input") -> list[int]:
    if args.h is not None:
        return _int_list(args.h, "--h")
    doc = _input(args, COMPLEX, *RUN_SCHEMAS, need=need)
    if doc["schema"] == COMPLEX:
        _, h = f_h_vectors(complex_from_json(doc))
        return list(h)
    ced = doc.get("ced", {})
    _expect("ced", ced, dict)
    checks = ced.get("h_checks", {})
    _expect("ced.h_checks", checks, dict)
    if checks.get("h") is None:
        raise SchemaTrouble("run report carries no h-vector table")
    _expect("ced.h_checks.h", checks["h"], list, int)
    return list(checks["h"])


def _verify_h_inequalities(args) -> tuple[dict, bool]:
    h = _h_source(args)
    ok, failures = verify_h_inequalities(h)
    return {"h": h, "failures": failures}, ok


def _verify_m_vector(args) -> tuple[dict, bool]:
    if args.g is not None:
        g = _int_list(args.g, "--g")
        if not g:
            raise BadParams("the g-vector is empty")
    else:
        g = list(g_vector(_h_source(args, "--g, --h or --input")))
    witness = m_vector_witness(g)
    body: dict = {"g": g}
    if witness is not None:
        body["witness"] = witness
    return body, witness is None


def _verify_flag_inequalities(args) -> tuple[dict, bool]:
    doc = _input(args, COMPLEX, *LATTICES)
    if doc["schema"] == COMPLEX:
        rep = _inequality_report(_face_flag_h(complex_from_json(doc)))
    else:
        rep = verify_flag_inequalities(poset_from_json(doc))
    return rep, rep["violations"] == 0


def _verify_cm(args, want_two: bool) -> tuple[dict, bool]:
    c = complex_from_json(_input(args, COMPLEX))
    _cap_checker(args)("homology", len(c.facets))
    cm, two = is_cm_and_2cm(c)
    body = {"cm": cm, "two_cm": two}
    return body, (two if want_two else cm)


# each check, the arguments it may read its input from (one at a time), and the caps it reads
CHECKS = {
    "ced": (_verify_ced, ("input",), ("cap_lattice",)),
    "h-inequalities": (_verify_h_inequalities, ("h", "input"), ()),
    "flag-inequalities": (_verify_flag_inequalities, ("input",), ()),
    "m-vector": (_verify_m_vector, ("g", "h", "input"), ()),
    "cm": (lambda args: _verify_cm(args, want_two=False), ("input",), ("cap_homology",)),
    "2cm": (lambda args: _verify_cm(args, want_two=True), ("input",), ("cap_homology",)),
    "reciprocity": (_verify_reciprocity, ("input",), ("cap_lattice",)),
}
VERIFY_ARGS = sorted({key for _, sources, caps in CHECKS.values() for key in (*sources, *caps)})


def cmd_verify(args) -> int:
    check, sources, caps = CHECKS[args.what]
    _takes(args, f"verify --what {args.what}", VERIFY_ARGS, reads=caps, one_of=sources)
    body, ok = check(args)
    report = {"schema": VERIFY_SCHEMA, "what": args.what, "ok": ok, "result": body}
    _emit(report, args.output)
    return EXIT_OK if ok else EXIT_FAILED


# -- experiment --------------------------------------------------------------------


def _flag_count(c: SimplicialComplex) -> int:
    """Facets of the order complex of c's nonempty faces, counted without
    building it: one per complete flag of a facet F, so Σ |F|!."""
    return sum(factorial(len(f)) for f in c.facets)


def cmd_experiment(args) -> int:
    _takes(args, f"experiment {args.name}", (), one_of=("fixture", "input"))
    if args.fixture:
        c = _fixture(args.fixture)
    else:
        c = complex_from_json(_input(args, COMPLEX, need="--fixture or --input"))
    d = c.dim + 1
    _check_class_rank(d)
    subsets = [S for k in range(1, d + 1) for S in combinations(range(1, d + 1), k)]
    if subsets:
        # homology runs on the selections' order complexes; the full one has
        # the most facets (each other chain extends into it)
        _cap_checker(args)("homology", _flag_count(c))

    # the rows name no face, so faces are named over vertices v0, v1, ...,
    # where no face name can repeat a vertex name
    renamed = {v: f"v{i}" for i, v in enumerate(c.vertices)}
    fp = face_poset(
        build_complex([map(renamed.get, f) for f in c.facets]), include_empty=True, graded=True
    )
    shellable = search_shelling(c) is not None
    rows = []
    for S in subsets:
        delta = order_complex(rank_select(fp, S))
        _, h = f_h_vectors(delta)
        cm, two = is_cm_and_2cm(delta)
        ineq_ok, failures = verify_h_inequalities(h)
        g, m_ok = g_and_m_check(h)
        rows.append(
            {
                "S": list(S),
                "includes_top": d in S,
                "h": list(h),
                "cm": cm,
                "two_cm": two,
                "h_inequalities_ok": ineq_ok,
                "g_is_m_vector": m_ok,
                "necessary_conditions_ok": bool(two and ineq_ok and m_ok),
            }
        )
    report = {
        "schema": EXPERIMENT_SCHEMA,
        "name": "rank-selection",
        "complex": complex_to_json(c),
        "shellable": shellable,
        "note": "observations only; no construction is claimed for selections through the top rank",
        "rows": rows,
    }
    _emit(report, args.output)
    return EXIT_OK


# -- wiring ------------------------------------------------------------------------


def _add_caps(sub, *kinds: str) -> None:
    for kind in kinds:
        sub.add_argument(f"--cap-{kind}", type=int)  # unset is None, so _takes sees a given cap


def _add_io(sub) -> None:
    sub.add_argument("--input")
    sub.add_argument("--output")


@functools.cache  # parse_args fills a fresh namespace per call, so one parser serves every main
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="earlab", description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a standard fixture as canonical JSON")
    gen.add_argument("family", choices=list(GEN))
    gen.add_argument("--rank", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--size", type=int)
    gen.add_argument("--vertices", type=int)
    gen.add_argument("--edges", help="comma list of u-v pairs, vertices 0-based")
    gen.add_argument("--name", help="complex fixture name")
    _add_io(gen)
    gen.set_defaults(func=cmd_gen)

    dec = subs.add_parser("decompose", help="run a construction and verify the axioms")
    dec.add_argument("--construction", required=True, choices=list(TAKES))
    dec.add_argument("--rank", type=int, help="rank of the boolean lattice (rank-boolean)")
    dec.add_argument("--ranks", help="comma list of selected ranks")
    dec.add_argument("--atom-order", help="comma list of atom names (geometric)")
    dec.add_argument("--shelling", help="comma list of facet indices (face-poset)")
    _add_io(dec)
    _add_caps(dec, "lattice")
    dec.set_defaults(func=cmd_decompose)

    ver = subs.add_parser("verify", help="re-check reports, vectors, or complexes")
    ver.add_argument(
        "--what",
        required=True,
        choices=list(CHECKS),
    )
    ver.add_argument("--h", help="comma list, an h-vector")
    ver.add_argument("--g", help="comma list, a g-vector")
    _add_io(ver)
    _add_caps(ver, "lattice", "homology")
    ver.set_defaults(func=cmd_verify)

    exp = subs.add_parser("experiment", help="observation-only scans")
    exp.add_argument("name", choices=["rank-selection"])
    exp.add_argument("--fixture", help="built-in complex fixture name")
    _add_io(exp)
    _add_caps(exp, "homology")
    exp.set_defaults(func=cmd_experiment)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        return args.func(args)
    except SchemaTrouble as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EarlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED if isinstance(exc, SelfCheckFailed) else EXIT_PRECONDITION
    finally:
        print(f"wall {time.monotonic() - t0:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
