"""End-to-end tests for the command line interface.

Everything runs in-process through ``earlab.cli.main`` so we can assert on
exit codes and parse the JSON reports; subprocess tests check that the
module also runs standalone and that its digests do not depend on the
hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from earlab.cli import CHECKS, COMPLEX_FIXTURES, _flag_count, _parser, _takes, main
from earlab.complexes import _faces_by_size, build_complex, complex_to_json, face_poset, order_complex
from earlab.decompositions import (
    _generated_copy,
    decompose_face_poset,
    decompose_geometric,
    decompose_rank_selected_boolean,
    decompose_supersolvable,
)
from earlab.flags import _subset_transform, ball_flag_reciprocity, flag_f_and_h, m_vector_witness
from earlab.lattices import boolean_lattice, lattice_to_json, partition_lattice
from earlab.matroids import lattice_of_flats, matroid_to_json, uniform_matroid
from earlab.posets import canonical_dumps, poset_from_json, rank_select, with_bounds


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen -------------------------------------------------------------------

def test_gen_boolean_stdout(capsys):
    code, out, err = run_cli(capsys, "gen", "boolean", "--rank", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "earlab.lattice/1"
    assert len(doc["elements"]) == 8
    assert "sha256 " in err


def test_gen_is_deterministic(capsys):
    _, out1, err1 = run_cli(capsys, "gen", "partition", "--n", "4")
    _, out2, err2 = run_cli(capsys, "gen", "partition", "--n", "4")
    assert out1 == out2
    digest1 = [l for l in err1.splitlines() if l.startswith("sha256")]
    digest2 = [l for l in err2.splitlines() if l.startswith("sha256")]
    assert digest1 == digest2


def test_gen_output_file(tmp_path, capsys):
    target = tmp_path / "fixture.json"
    code, out, _ = run_cli(
        capsys, "gen", "complex-fixture", "--name", "two-triangles",
        "--output", str(target),
    )
    assert code == 0
    assert out.startswith("sha256 ")
    assert str(target) in out
    doc = json.loads(target.read_text())
    assert doc["schema"] == "earlab.complex/1"
    # the emitted file is already in canonical form
    assert target.read_text() == canonical_dumps(doc)


def test_gen_missing_params_is_precondition_error(capsys):
    code, _, err = run_cli(capsys, "gen", "boolean")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, named", [
    (["boolean", "--rank", "3", "--input", "/nonexistent/m.json"], "--input"),
    (["partition", "--n", "3", "--rank", "2"], "--rank"),
    (["complex-fixture", "--name", "triangle", "--size", "3", "--edges", "0-1"], "--edges, --size"),
], ids=["boolean-input", "partition-rank", "fixture-size-edges"])
def test_gen_refuses_arguments_its_family_does_not_read(argv, named, capsys):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert f"error: BadParams: gen {argv[0]} does not read {named}; drop it" in err


@pytest.mark.parametrize("argv, needs", [
    (["uniform-matroid", "--rank", "2"], "--rank and --size"),
    (["graphic-matroid", "--vertices", "3", "--edges", ""], "--vertices and --edges"),
    (["complex-fixture"], "--name"),
], ids=["uniform-no-size", "graphic-empty-edges", "fixture-no-name"])
def test_gen_names_the_arguments_its_family_needs(argv, needs, capsys):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert f"error: BadParams: gen {argv[0]} needs {needs}" in err


def test_gen_flats_pipeline(tmp_path, capsys):
    mat = tmp_path / "m.json"
    run_cli(capsys, "gen", "uniform-matroid", "--rank", "2", "--size", "3",
            "--output", str(mat))
    code, out, _ = run_cli(capsys, "gen", "flats", "--input", str(mat))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "earlab.lattice/1"
    assert len(doc["elements"]) == 5


def test_gen_flats_rejects_wrong_schema(tmp_path, capsys):
    bad = tmp_path / "c.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "triangle",
            "--output", str(bad))
    code, _, err = run_cli(capsys, "gen", "flats", "--input", str(bad))
    assert code == 4
    assert "matroid" in err


# -- decompose ---------------------------------------------------------------

def test_decompose_rank_boolean(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--construction", "rank-boolean",
        "--rank", "4", "--ranks", "1,3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "earlab.run/2"
    assert doc["ced"]["ok"] is True
    assert doc["ced"]["h_checks"]["h"] == [1, 6, 5]
    assert len(doc["decomposition"]["ears"]) == 5


def test_decompose_reports_ears_that_do_not_partition_the_chains(tmp_path, capsys, monkeypatch):
    # with every chain new in every copy, chains land in several ears: the
    # constructor proposes them anyway, and verify_ced's witnesses fail the run
    lat = tmp_path / "pi4.json"
    run_cli(capsys, "gen", "partition", "--n", "4", "--output", str(lat))
    monkeypatch.setattr("earlab.decompositions._subset_novelty", lambda copies: lambda *args: True)
    code, out, _ = run_cli(
        capsys, "decompose", "--construction", "supersolvable", "--input", str(lat),
    )
    assert code == 3
    ced = json.loads(out)["ced"]
    assert ced["ok"] is False and ced["axiom_union"]["ok"] is True
    assert ced["chain_partition"]["ok"] is False
    assert ced["chain_partition"]["total"] > ced["chain_partition"]["facets"]


# A failed internal self-check blames the program, not the input: exit 3,
# like a check that ran and failed, and no report.


def test_a_non_injective_copy_is_a_failed_self_check(capsys, monkeypatch):
    monkeypatch.setattr("earlab.decompositions.subset_name", lambda atoms: "x")
    code, out, err = run_cli(
        capsys, "decompose", "--construction", "rank-boolean", "--rank", "3", "--ranks", "1",
    )
    assert (code, out) == (3, "")
    assert "SelfCheckFailed: copy embedding is not injective" in err


def test_a_copy_off_the_labelled_covers_is_a_failed_self_check(tmp_path, capsys, monkeypatch):
    # generators taken in reverse: coordinate b lands on a cover labelled r + 1 - b
    monkeypatch.setattr(
        "earlab.decompositions._generated_copy",
        lambda gens, name_of, provenance: _generated_copy(list(gens)[::-1], name_of, provenance),
    )
    lat = tmp_path / "b3.json"
    run_cli(capsys, "gen", "boolean", "--rank", "3", "--output", str(lat))
    code, out, err = run_cli(
        capsys, "decompose", "--construction", "supersolvable", "--input", str(lat),
    )
    assert (code, out) == (3, "")
    assert "SelfCheckFailed: copy cover" in err and "is not a host cover labelled" in err


def test_a_flag_round_trip_failure_is_a_failed_self_check(tmp_path, capsys, monkeypatch):
    def off_by_one(v, sign):
        _subset_transform(v, sign)
        v[1] += sign < 0  # flag h of {1} one too large
        return v

    monkeypatch.setattr("earlab.flags._subset_transform", off_by_one)
    c = tmp_path / "c.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "two-triangles", "--output", str(c))
    code, out, err = run_cli(capsys, "verify", "--what", "flag-inequalities", "--input", str(c))
    assert (code, out) == (3, "")
    assert "SelfCheckFailed: flag f/h round trip failed" in err


def test_an_h_vector_off_the_euler_characteristic_is_a_failed_self_check(
    tmp_path, capsys, monkeypatch
):
    # comb(n, 0) one too large adds f_k to each h_k, so h_d misses χ̃ by f_d
    monkeypatch.setattr("earlab.complexes.comb", lambda n, k: comb(n, k) + (k == 0))
    c, report = tmp_path / "c.json", tmp_path / "report.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "two-triangles", "--output", str(c))
    code, out, err = run_cli(
        capsys, "verify", "--what", "h-inequalities", "--input", str(c), "--output", str(report)
    )
    assert (code, out) == (3, "") and not report.exists()
    assert "SelfCheckFailed: h_d does not match the Euler characteristic" in err


def test_decompose_is_deterministic(capsys):
    argv = ("decompose", "--construction", "rank-boolean", "--rank", "4",
            "--ranks", "2")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_decompose_supersolvable_from_document(tmp_path, capsys):
    lat = tmp_path / "b3.json"
    run_cli(capsys, "gen", "boolean", "--rank", "3", "--output", str(lat))
    code, out, _ = run_cli(
        capsys, "decompose", "--construction", "supersolvable",
        "--input", str(lat),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ced"]["h_checks"]["h"] == [1, 4, 1]
    assert doc["input"]["digest"]


@pytest.mark.parametrize("argv", [["supersolvable"], ["rank-supersolvable", "--ranks", "1,2"],
                                  ["geometric"]])
def test_a_lattice_document_is_parsed_once(argv, tmp_path, capsys, monkeypatch):
    # the size cap and the join table read the same parsed poset
    parsed = []
    monkeypatch.setattr("earlab.cli.poset_from_json", lambda doc: parsed.append(doc) or poset_from_json(doc))
    monkeypatch.setattr("earlab.lattices.poset_from_json", lambda doc: parsed.append(doc) or poset_from_json(doc))
    lat = tmp_path / "b3.json"
    run_cli(capsys, "gen", "boolean", "--rank", "3", "--output", str(lat))
    code, _, _ = run_cli(capsys, "decompose", "--construction", *argv, "--input", str(lat))
    assert (code, len(parsed)) == (0, 1)


def _renamed(value, old: str, new: str):
    """``value`` with every string ``old`` in its nested lists replaced by ``new``."""
    if isinstance(value, list):
        return [_renamed(v, old, new) for v in value]
    return new if value == old else value


@pytest.mark.parametrize("argv, doc, old, new", [
    (["supersolvable"], lattice_to_json(boolean_lattice(3)), "1", "_bot_"),
    (["face-poset", "--ranks", "1,2"], complex_to_json(build_complex(COMPLEX_FIXTURES["two-triangles"])),
     "a", "_top_"),
], ids=["b3-bottom", "two-triangles-top"])
def test_elements_named_like_the_adjoined_bounds_decompose(argv, doc, old, new, tmp_path, capsys):
    # the flag vectors adjoin a bottom and a top whose names no element uses
    reports = []
    for name in (old, new):
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps({key: _renamed(value, old, name) for key, value in doc.items()}))
        code, out, _ = run_cli(capsys, "decompose", "--construction", *argv, "--input", str(path))
        assert code == 0
        reports.append(json.loads(out))
    before, after = reports
    assert new in json.dumps(after["input"]["document"])
    assert len(after["decomposition"]["ears"]) == len(before["decomposition"]["ears"])
    assert after["ced"]["h_checks"]["h"] == before["ced"]["h_checks"]["h"]


def test_decompose_geometric_from_matroid(tmp_path, capsys):
    mat = tmp_path / "m.json"
    run_cli(capsys, "gen", "graphic-matroid", "--vertices", "4",
            "--edges", "0-1,0-2,1-2,0-3,1-3", "--output", str(mat))
    code, out, _ = run_cli(
        capsys, "decompose", "--construction", "geometric", "--input", str(mat),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ced"]["h_checks"]["h"] == [1, 9, 4]
    assert len(doc["decomposition"]["ears"]) == 4


def test_decompose_face_poset_rejects_top_rank(tmp_path, capsys):
    c = tmp_path / "c.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "two-triangles",
            "--output", str(c))
    code, _, err = run_cli(
        capsys, "decompose", "--construction", "face-poset",
        "--input", str(c), "--ranks", "1,2,3",
    )
    assert code == 2
    assert "TopRankSelected" in err


def test_decompose_argument_safety_rails(tmp_path, capsys):
    # input-less constructions must not be given --input and vice versa
    code, _, _ = run_cli(capsys, "decompose", "--construction",
                         "supersolvable")
    assert code == 2
    code, _, _ = run_cli(capsys, "decompose", "--construction", "rank-boolean",
                         "--rank", "3", "--ranks", "1", "--input", "x.json")
    assert code == 2
    code, _, _ = run_cli(capsys, "decompose", "--construction", "rank-boolean")
    assert code == 2


@pytest.mark.parametrize("argv, refusal", [
    (["decompose", "--construction", "supersolvable", "--input", "b3.json",
      "--shelling", "0,1", "--atom-order", "a,b"],
     "decompose --construction supersolvable does not read --atom-order, --shelling; drop it"),
    (["decompose", "--construction", "supersolvable", "--input", "b3.json", "--ranks", "1"],
     "decompose --construction supersolvable does not read --ranks; drop it"),
    (["decompose", "--construction", "rank-boolean", "--rank", "3", "--ranks", "1",
      "--input", "b3.json"],
     "decompose --construction rank-boolean does not read --input; drop it"),
    (["decompose", "--construction", "geometric", "--input", "m.json", "--shelling", "0"],
     "decompose --construction geometric does not read --shelling; drop it"),
    (["decompose", "--construction", "face-poset", "--input", "c.json", "--ranks", "1",
      "--rank", "2"],
     "decompose --construction face-poset does not read --rank; drop it"),
    (["decompose", "--construction", "rank-boolean", "--ranks", "1"],
     "decompose --construction rank-boolean needs --rank and --ranks"),
    (["decompose", "--construction", "rank-supersolvable", "--input", "b3.json"],
     "decompose --construction rank-supersolvable needs --input and --ranks"),
    (["verify", "--what", "h-inequalities", "--h", "1,2,1", "--input", "/nonexistent.json"],
     "verify --what h-inequalities reads one of --h, --input; give one"),
    (["verify", "--what", "m-vector", "--g", "1", "--input", "/nonexistent.json"],
     "verify --what m-vector reads one of --g, --h, --input; give one"),
    (["verify", "--what", "m-vector", "--g", "1", "--h", "1,2"],
     "verify --what m-vector reads one of --g, --h, --input; give one"),
    (["verify", "--what", "ced", "--h", "1,2"], "verify --what ced does not read --h; drop it"),
    (["verify", "--what", "cm", "--input", "c.json", "--g", "1"],
     "verify --what cm does not read --g; drop it"),
], ids=["ss-shelling-atoms", "ss-ranks", "rb-input", "geo-shelling", "fp-rank", "rb-no-rank",
        "rss-no-ranks", "h-and-input", "g-and-input", "g-and-h", "ced-h", "cm-g"])
def test_each_construction_and_check_names_the_arguments_it_reads(argv, refusal, capsys):
    # refused before any document is read, so the named files need not exist
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: BadParams: {refusal}\n" in err


def test_a_stored_report_is_verified_whatever_its_args_hold(tmp_path, capsys):
    # the args of a stored report are not checked against the tables again
    report = tmp_path / "run.json"
    lattice = tmp_path / "b3.json"
    run_cli(capsys, "gen", "boolean", "--rank", "3", "--output", str(lattice))
    run_cli(capsys, "decompose", "--construction", "supersolvable", "--input", str(lattice),
            "--output", str(report))
    doc = json.loads(report.read_text())
    doc["args"]["shelling"] = [0, 1]
    report.write_text(json.dumps(doc))
    for what in ("ced", "reciprocity"):
        code, out, _ = run_cli(capsys, "verify", "--what", what, "--input", str(report))
        assert code == 0 and json.loads(out)["ok"] is True


def test_verify_ced_and_reciprocity_never_list_delta(tmp_path, capsys, monkeypatch):
    # verify rebuilds the ears and counts Δ's facets in the selected poset;
    # Δ is listed only for a report that prints it, as decompose's does
    report = tmp_path / "run.json"
    run_cli(capsys, "decompose", "--construction", "rank-boolean", "--rank", "4",
            "--ranks", "1,3", "--output", str(report))

    def refuse(*args):
        raise AssertionError("order_complex called")

    for module in ("earlab.complexes", "earlab.decompositions", "earlab.cli"):
        monkeypatch.setattr(f"{module}.order_complex", refuse)
    for what in ("ced", "reciprocity"):
        code, out, _ = run_cli(capsys, "verify", "--what", what, "--input", str(report))
        assert code == 0 and json.loads(out)["ok"] is True


def test_decompose_size_cap(capsys):
    code, _, err = run_cli(
        capsys, "decompose", "--construction", "rank-boolean",
        "--rank", "9", "--ranks", "1",
    )
    assert code == 2
    assert "SizeLimit" in err


def test_decompose_rank_nine_needs_only_the_lattice_cap(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--construction", "rank-boolean",
        "--rank", "9", "--ranks", "4", "--cap-lattice", "600",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ced"]["ok"] is True
    assert doc["ced"]["ears"] == len(doc["decomposition"]["ears"]) == 125


def test_decompose_non_lattice_poset_is_a_precondition_failure(tmp_path, capsys):
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
              ("b", "d"), ("c", "1"), ("d", "1")]
    doc = {"schema": "earlab.poset/1", "elements": ["0", "a", "b", "c", "d", "1"],
           "covers": covers}
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "decompose", "--construction", "supersolvable", "--input", str(path),
    )
    assert code == 2
    assert "error: Inconsistent: 'a', 'b' have no unique least upper bound" in err


def _b2_with(**fields):
    doc = {"schema": "earlab.lattice/1", "elements": ["0", "1", "12", "2"],
           "covers": [["0", "1"], ["0", "2"], ["1", "12"], ["2", "12"]],
           "mchain": ["0", "1", "12"]}
    doc.update(fields)
    return doc


@pytest.mark.parametrize("doc", [
    _b2_with(labels={"0|1": "one", "0|2": 2, "1|12": 2, "2|12": 1}),
    _b2_with(labels=[1, 2, 2, 1]),
    _b2_with(joins=["12"]),
    _b2_with(mchain=5),
    _b2_with(elements=["0", "1", "12", "2", 7]),
], ids=["label-value", "labels-not-object", "joins-not-object", "mchain-number",
        "element-number"])
def test_malformed_lattice_documents_are_precondition_failures(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "decompose", "--construction", "supersolvable", "--input", str(path),
    )
    assert code == 2
    assert "error: BadParams:" in err and "Traceback" not in err


def test_a_label_on_a_non_cover_is_a_precondition_failure(tmp_path, capsys):
    doc = _b2_with(labels={"0|1": 1, "0|2": 2, "1|12": 2, "2|12": 1, "12|0": 1})
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "decompose", "--construction", "supersolvable", "--input", str(path),
    )
    assert code == 2
    assert "error: BadParams: labeling has a label on ('12', '0'), which is not a cover" in err


@pytest.mark.parametrize("schema", ["earlab.lattice/1", "earlab.poset/1"])
@pytest.mark.parametrize("construction", ["supersolvable", "geometric"])
def test_lattice_cap_is_checked_before_the_tables(tmp_path, capsys, monkeypatch,
                                                  schema, construction):
    names = [str(k) for k in range(201)]
    doc = {"schema": schema, "elements": names, "covers": list(zip(names, names[1:]))}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("join/meet tables built before the size cap")

    monkeypatch.setattr("earlab.lattices._bound_table", refuse)
    code, _, err = run_cli(
        capsys, "decompose", "--construction", construction, "--input", str(path),
    )
    assert code == 2
    assert "SizeLimit: lattice size 201 exceeds the cap 200" in err


@pytest.mark.parametrize("argv", [
    ["decompose", "--construction", "rank-boolean", "--rank", "3", "--ranks", "1",
     "--cap-descent", "9"],
    ["decompose", "--construction", "rank-boolean", "--rank", "3", "--ranks", "1",
     "--cap-homology", "9"],
    ["verify", "--what", "h-inequalities", "--h", "1,2,1", "--cap-descent", "9"],
    ["experiment", "rank-selection", "--fixture", "triangle", "--cap-lattice", "9"],
    ["experiment", "rank-selection", "--fixture", "triangle", "--cap-descent", "9"],
])
def test_caps_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_parser_serves_every_call_and_no_argument_outlives_its_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; every call reads only its own arguments
    seen = []

    def recorded(args, *rest, **kw):
        seen.append(dict(vars(args)))
        return _takes(args, *rest, **kw)

    monkeypatch.setattr("earlab.cli._takes", recorded)
    b3, tri = tmp_path / "b3.json", tmp_path / "triangle.json"
    assert run_cli(capsys, "gen", "boolean", "--rank", "3", "--output", str(b3))[0] == 0
    assert run_cli(capsys, "gen", "complex-fixture", "--name", "triangle", "--output", str(tri))[0] == 0
    assert run_cli(capsys, "verify", "--what", "cm", "--input", str(tri), "--cap-homology", "50")[0] == 0
    assert run_cli(capsys, "verify", "--what", "flag-inequalities", "--input", str(b3))[0] == 0
    assert run_cli(capsys, "decompose", "--construction", "supersolvable", "--input", str(b3))[0] == 0
    gen, fixture, cm, flags, dec = seen
    assert (gen["rank"], gen["name"], fixture["rank"], fixture["name"]) == (3, None, None, "triangle")
    assert (cm["what"], cm["cap_homology"]) == ("cm", 50)
    assert (flags["what"], flags["cap_homology"], flags["cap_lattice"]) == ("flag-inequalities", None, None)
    assert (dec["rank"], dec["cap_lattice"], dec["command"]) == (None, None, "decompose")
    assert "what" not in dec and "family" not in flags
    assert _parser() is _parser()


# the one cap each verify check reads: the lattice it rebuilds, or the complex whose homology it takes
READS_CAP = {"ced": "lattice", "reciprocity": "lattice", "cm": "homology", "2cm": "homology"}


@pytest.mark.parametrize("what, cap", [
    (what, cap) for what in CHECKS for cap in ("lattice", "homology") if READS_CAP.get(what) != cap
])
def test_verify_refuses_a_cap_its_check_does_not_read(what, cap, capsys):
    source = ["--h", "1,2,1"] if what in ("h-inequalities", "m-vector") else ["--input", "x.json"]
    code, out, err = run_cli(capsys, "verify", "--what", what, *source, f"--cap-{cap}", "9")
    assert code == 2 and out == ""
    assert f"error: BadParams: verify --what {what} does not read --cap-{cap}; drop it\n" in err


def test_a_cap_a_check_reads_still_bounds_it(tmp_path, capsys):
    report = tmp_path / "run.json"
    report.write_text(json.dumps(_supersolvable_report(tmp_path, capsys)))
    code, out, err = run_cli(capsys, "verify", "--what", "ced", "--cap-lattice", "3",
                             "--input", str(report))
    assert code == 2 and out == ""
    assert "error: SizeLimit: lattice size 8 exceeds the cap 3" in err


def test_decompose_missing_input_file(capsys):
    code, _, err = run_cli(
        capsys, "decompose", "--construction", "supersolvable",
        "--input", "/nonexistent/thing.json",
    )
    assert code == 4
    assert "cannot read" in err


def test_decompose_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        capsys, "decompose", "--construction", "supersolvable",
        "--input", str(bad),
    )
    assert code == 4
    assert "not JSON" in err


# -- verify -------------------------------------------------------------------

def test_verify_ced_roundtrip(tmp_path, capsys):
    report = tmp_path / "run.json"
    run_cli(capsys, "decompose", "--construction", "rank-boolean",
            "--rank", "4", "--ranks", "1,3", "--output", str(report))
    code, out, _ = run_cli(capsys, "verify", "--what", "ced",
                           "--input", str(report))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "earlab.verify/2"
    assert doc["ok"] is True
    assert doc["result"]["chains_match"] is True


def test_verify_ced_refuses_a_bare_decomposition(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text(canonical_dumps(decompose_rank_selected_boolean(4, [1, 3]).to_json()))
    code, _, err = run_cli(capsys, "verify", "--what", "ced", "--input", str(path))
    assert code == 4
    assert "expected a document of kind earlab.run/1 or earlab.run/2, got 'earlab.decomposition/3'" in err


def test_verify_ced_detects_tampered_chains(tmp_path, capsys):
    report = tmp_path / "run.json"
    run_cli(capsys, "decompose", "--construction", "rank-boolean",
            "--rank", "3", "--ranks", "1", "--output", str(report))
    doc = json.loads(report.read_text())
    doc["decomposition"]["ears"][0]["chains"][0] = ["3"]
    report.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--what", "ced",
                             "--input", str(report))
    assert code == 3
    assert json.loads(out)["result"]["chains_match"] is False
    assert "differ" in err


def _drop(key):
    return lambda d: d.pop(key)


@pytest.mark.parametrize("field, tamper", [
    ("args", _drop("args")),
    ("args", lambda d: d.update(args=["rank-boolean"])),
    ("args.construction", lambda d: d["args"].pop("construction")),
    ("args.rank", lambda d: d["args"].pop("rank")),
    ("args.rank", lambda d: d["args"].update(rank="x")),
    ("args.rank", lambda d: d["args"].update(rank=True)),
    ("args.ranks", lambda d: d["args"].update(ranks="13")),
    ("decomposition", _drop("decomposition")),
    ("decomposition.ears", lambda d: d["decomposition"].update(ears="ears")),
    ("decomposition.ears", lambda d: d["decomposition"].update(ears=[["1"]])),
    ("input", lambda d: d.update(input="b4.json")),
], ids=["no-args", "args-array", "no-construction", "no-rank", "rank-string", "rank-bool",
        "ranks-string", "no-decomposition", "ears-string", "ear-array", "input-string"])
@pytest.mark.parametrize("what", ["ced", "reciprocity"])
def test_verify_names_the_malformed_report_field(field, tamper, what, tmp_path, capsys):
    report = tmp_path / "run.json"
    run_cli(capsys, "decompose", "--construction", "rank-boolean",
            "--rank", "4", "--ranks", "1,3", "--output", str(report))
    doc = json.loads(report.read_text())
    tamper(doc)
    report.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--what", what, "--input", str(report))
    assert code == 4
    assert f"error: run report field {field} should be " in err
    assert out == ""


@pytest.mark.parametrize("field, tamper", [
    ("ced", lambda d: d.update(ced="ok")),
    ("ced.h_checks", lambda d: d["ced"].update(h_checks=[1, 6, 5])),
    ("ced.h_checks.h", lambda d: d["ced"]["h_checks"].update(h="15")),
    ("ced.h_checks.h", lambda d: d["ced"]["h_checks"].update(h=["1", "6", "5"])),
], ids=["ced-string", "h-checks-array", "h-string", "h-strings"])
@pytest.mark.parametrize("what", ["h-inequalities", "m-vector"])
def test_verify_names_the_malformed_h_vector_field(field, tamper, what, tmp_path, capsys):
    report = tmp_path / "run.json"
    run_cli(capsys, "decompose", "--construction", "rank-boolean",
            "--rank", "4", "--ranks", "1,3", "--output", str(report))
    doc = json.loads(report.read_text())
    tamper(doc)
    report.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--what", what, "--input", str(report))
    assert code == 4
    assert f"error: run report field {field} should be " in err
    assert out == ""


@pytest.mark.parametrize("doc", [
    {"facets": "ab"},
    {"facets": ["abc"]},
    {"facets": [["a", 1]]},
    {"facets": [["a"], "b"]},
    {"vertices": "abc", "facets": [["a", "b", "c"]]},
], ids=["facets-string", "facet-string", "vertex-number", "facets-mixed", "vertices-string"])
def test_complex_documents_must_hold_arrays_of_strings(doc, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema": "earlab.complex/1", **doc}))
    code, _, err = run_cli(capsys, "verify", "--what", "cm", "--input", str(path))
    assert code == 2
    assert "BadParams: malformed complex JSON: vertices and each facet must be arrays of strings" in err


@pytest.mark.parametrize("doc", [
    {"elements": ["a", "b"], "covers": ["ab"]},
    {"elements": "ab", "covers": [["a", "b"]]},
], ids=["cover-string", "elements-string"])
def test_poset_documents_must_hold_arrays(doc, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema": "earlab.poset/1", **doc}))
    code, _, err = run_cli(capsys, "verify", "--what", "flag-inequalities", "--input", str(path))
    assert code == 2
    assert "BadParams: malformed poset JSON: expected an array, got 'ab'" in err


def test_a_graded_field_that_is_not_a_boolean_is_a_precondition_failure(tmp_path, capsys):
    # "false" as a string once read as true and raised NotGraded on this poset
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema": "earlab.poset/1", "elements": ["a", "b", "c", "d"],
                                "covers": [["a", "b"], ["b", "c"], ["d", "c"]], "graded": "false"}))
    code, _, err = run_cli(capsys, "verify", "--what", "flag-inequalities", "--input", str(path))
    assert code == 2
    assert "BadParams: malformed poset JSON: graded is 'false', not true or false" in err


@pytest.mark.parametrize("argv, doc", [
    (["gen", "flats"], {"ground": ["1", "2", "3"], "bases": ["12", "13", "23"]}),
    (["gen", "flats"], {"ground": ["1", "2", "3"], "circuits": ["123"]}),
    (["gen", "flats"], {"ground": "123", "bases": [["1", "2"], ["1", "3"], ["2", "3"]]}),
    (["decompose", "--construction", "geometric"],
     {"graph": {"vertices": 3, "edges": ["01", "12", "02"]}}),
], ids=["basis-string", "circuit-string", "ground-string", "edge-string"])
def test_matroid_documents_must_hold_arrays(argv, doc, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema": "earlab.matroid/1", **doc}))
    code, _, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 2
    assert "BadParams: malformed matroid JSON: expected an array, got '" in err


@pytest.mark.parametrize("graph, shown", [
    ({"vertices": 3, "edges": [[0, 1], [1, 2.9], [0, 2]]}, "2.9"),
    ({"vertices": "3", "edges": [[0, 1], [1, 2], [0, 2]]}, "'3'"),
    ({"vertices": 3, "edges": [[0, 1], [1, True], [0, 2]]}, "True"),
], ids=["float-edge-end", "string-vertex-count", "bool-edge-end"])
def test_matroid_graphs_must_hold_integers(graph, shown, tmp_path, capsys):
    # int() would read 2.9 as 2, "3" as 3 and True as 1, and gen flats would exit 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema": "earlab.matroid/1", "graph": graph}))
    code, _, err = run_cli(capsys, "gen", "flats", "--input", str(path))
    assert code == 2
    assert f"BadParams: malformed matroid JSON: expected an integer, got {shown}" in err


def test_verify_reciprocity(tmp_path, capsys):
    report = tmp_path / "run.json"
    run_cli(capsys, "decompose", "--construction", "rank-boolean",
            "--rank", "4", "--ranks", "1,3", "--output", str(report))
    code, out, _ = run_cli(capsys, "verify", "--what", "reciprocity",
                           "--input", str(report))
    assert code == 0
    doc = json.loads(out)
    assert all(row["ok"] for row in doc["result"]["ears"])


def test_verify_reciprocity_checks_every_ear(tmp_path, capsys, monkeypatch):
    # rank-boolean (7, {2, 4, 6}): 272 ears pull back onto 13 mask sets of
    # K, but each ear is checked on its own
    report = tmp_path / "run.json"
    run_cli(capsys, "decompose", "--construction", "rank-boolean",
            "--rank", "7", "--ranks", "2,4,6", "--output", str(report))
    checked = []

    def counted(ear, *args):
        checked.append(ear)
        return ball_flag_reciprocity(ear, *args)

    monkeypatch.setattr("earlab.cli.ball_flag_reciprocity", counted)
    code, out, _ = run_cli(capsys, "verify", "--what", "reciprocity",
                           "--input", str(report))
    assert code == 0
    assert len(json.loads(out)["result"]["ears"]) == 272
    assert len({id(c) for c in checked}) == len(checked) == 272


DATA = Path(__file__).resolve().parent / "data"

# earlab.run/1 reports, written before ears were serialised by reference,
# and the decompose arguments that made them
RUN1_REPORTS = {
    "run1-rank-boolean-4-13.json": (
        "--construction", "rank-boolean", "--rank", "4", "--ranks", "1,3",
    ),
    "run1-face-poset-two-triangles-12.json": (
        "--construction", "face-poset", "--ranks", "1,2",
    ),
}


@pytest.mark.parametrize("name", list(RUN1_REPORTS))
def test_run1_reports_verify_like_their_run2_counterparts(name, tmp_path, capsys):
    old = DATA / name
    doc1 = json.loads(old.read_text())
    argv = list(RUN1_REPORTS[name])
    if doc1["input"] is not None:
        source = tmp_path / "input.json"
        source.write_text(canonical_dumps(doc1["input"]["document"]))
        argv += ["--input", str(source)]
    new = tmp_path / "run2.json"
    code, _, _ = run_cli(capsys, "decompose", *argv, "--output", str(new))
    assert code == 0
    doc2 = json.loads(new.read_text())

    # decomposition/2 drops the ear keys complex, shelling and ambient, /3
    # drops the order complex, and ced-verify/2 reads h off the ears instead
    # of the concatenated shelling; the rest is equal
    assert (doc1["schema"], doc2["schema"]) == ("earlab.run/1", "earlab.run/2")
    ced1, ced2 = doc1["ced"], doc2["ced"]
    assert (ced1.pop("schema"), ced2.pop("schema")) == ("earlab.ced-verify/1", "earlab.ced-verify/2")
    h1, h2 = ced1.pop("h_checks"), ced2.pop("h_checks")
    assert h2.pop("ear_sum") == h2["h"] and h2.pop("ear_sum_matches") is True
    del h1["restriction_histogram"], h1["histogram_matches"]
    assert h1 == h2
    dec1, dec2 = doc1.pop("decomposition"), doc2.pop("decomposition")
    assert {k: v for k, v in doc1.items() if k != "schema"} == {
        k: v for k, v in doc2.items() if k != "schema"
    }
    assert dec1.pop("schema") == "earlab.decomposition/1"
    assert dec2.pop("schema") == "earlab.decomposition/3"
    del dec1["complex"]
    for ear in dec1["ears"]:
        for key in ("complex", "shelling", "ambient"):
            del ear[key]
    assert dec1 == dec2

    # ced and reciprocity rebuild the decomposition and h-inequalities reads
    # only ced.h_checks.h, which run/2 keeps: run/1 reports verify as run/2 ones do
    for what in ("ced", "reciprocity", "h-inequalities"):
        outs = [
            run_cli(capsys, "verify", "--what", what, "--input", str(path))
            for path in (old, new)
        ]
        assert outs[0][0] == outs[1][0] == 0, what
        assert outs[0][1] == outs[1][1], what


# decompose arguments, input document (or None) and the same decomposition
# built in the library, for reports turned back into earlab.decomposition/2
DECOMPOSITION2_CASES = {
    "rank-boolean-4-13": (
        ("--construction", "rank-boolean", "--rank", "4", "--ranks", "1,3"),
        None,
        lambda: decompose_rank_selected_boolean(4, [1, 3]),
    ),
    "supersolvable-pi4": (
        ("--construction", "supersolvable"),
        lattice_to_json(partition_lattice(4)),
        lambda: decompose_supersolvable(partition_lattice(4)),
    ),
    "face-poset-two-triangles-12": (
        ("--construction", "face-poset", "--ranks", "1,2"),
        complex_to_json(build_complex(COMPLEX_FIXTURES["two-triangles"])),
        lambda: decompose_face_poset(build_complex(COMPLEX_FIXTURES["two-triangles"]), ranks=[1, 2]),
    ),
    "geometric-u35": (
        ("--construction", "geometric"),
        matroid_to_json(uniform_matroid(3, 5)),
        lambda: decompose_geometric(lattice_of_flats(uniform_matroid(3, 5))),
    ),
}


@pytest.mark.parametrize("name", list(DECOMPOSITION2_CASES))
def test_decomposition2_reports_verify_like_their_decomposition3_originals(name, tmp_path, capsys):
    argv, document, build = DECOMPOSITION2_CASES[name]
    argv = list(argv)
    if document is not None:
        source = tmp_path / "input.json"
        source.write_text(canonical_dumps(document))
        argv += ["--input", str(source)]
    new = tmp_path / "run3.json"
    code, _, _ = run_cli(capsys, "decompose", *argv, "--output", str(new))
    assert code == 0
    doc = json.loads(new.read_text())
    dec3 = doc["decomposition"]
    assert dec3["schema"] == "earlab.decomposition/3" and "complex" not in dec3

    # /2 wrote Δ between ranks and ears; the ears' chains are its facets
    dec = build()
    delta = complex_to_json(dec.complex)
    assert sorted(map(sorted, delta["facets"])) == sorted(
        sorted(c) for ear in dec3["ears"] for c in ear["chains"]
    )
    at = list(dec3).index("ears")
    items = list(dec3.items())
    dec2 = dict(items[:at] + [("complex", delta)] + items[at:])
    dec2["schema"] = "earlab.decomposition/2"
    old = tmp_path / "run2.json"
    old.write_text(canonical_dumps({**doc, "decomposition": dec2}))

    # verify reads args, the ears' chains and the input, never Δ
    for what in ("ced", "reciprocity", "h-inequalities"):
        outs = [
            run_cli(capsys, "verify", "--what", what, "--input", str(path))
            for path in (old, new)
        ]
        assert outs[0][0] == outs[1][0] == 0, what
        assert outs[0][1] == outs[1][1], what


def test_verify_h_inequalities_flag_values(capsys):
    code, out, _ = run_cli(capsys, "verify", "--what", "h-inequalities",
                           "--h", "1,6,5")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "verify", "--what", "h-inequalities",
                           "--h", "2,1,1")
    assert code == 3
    assert json.loads(out)["result"]["failures"]


def test_verify_m_vector_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--what", "m-vector",
                           "--g", "1,0,2")
    assert code == 3
    doc = json.loads(out)
    assert doc["result"]["witness"] == {"index": 2, "value": 2, "bound": 0}


@pytest.mark.parametrize("what", ["h-inequalities", "m-vector"])
def test_verify_refuses_an_empty_h_vector(what, capsys):
    code, out, err = run_cli(capsys, "verify", "--what", what, "--h", ",")
    assert code == 2 and out == ""
    assert "error: BadParams: the h-vector is empty" in err


def test_verify_refuses_an_empty_g_vector(capsys):
    code, out, err = run_cli(capsys, "verify", "--what", "m-vector", "--g", ",")
    assert code == 2 and out == ""
    assert "error: BadParams: the g-vector is empty" in err
    assert m_vector_witness([]) == {"reason": "empty sequence"}


@pytest.mark.parametrize("what, given, vector", [
    ("h-inequalities", "--h", "h"), ("m-vector", "--h", "h"), ("m-vector", "--g", "g"),
])
def test_an_empty_vector_argument_is_given_not_missing(what, given, vector, capsys):
    code, out, err = run_cli(capsys, "verify", "--what", what, given, "")
    assert code == 2 and out == ""
    assert f"error: BadParams: the {vector}-vector is empty" in err


def test_verify_m_vector_from_h(capsys):
    code, out, _ = run_cli(capsys, "verify", "--what", "m-vector",
                           "--h", "1,11,11,1")
    assert code == 0
    assert json.loads(out)["result"]["g"] == [1, 10]


def test_verify_cm_checks(tmp_path, capsys):
    ball = tmp_path / "ball.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "two-triangles",
            "--output", str(ball))
    code, out, _ = run_cli(capsys, "verify", "--what", "cm",
                           "--input", str(ball))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--what", "2cm",
                           "--input", str(ball))
    assert code == 3
    assert json.loads(out)["result"] == {"cm": True, "two_cm": False}

    bowtie = tmp_path / "bowtie.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "bowtie",
            "--output", str(bowtie))
    code, _, _ = run_cli(capsys, "verify", "--what", "cm",
                         "--input", str(bowtie))
    assert code == 3


def test_verify_flag_inequalities(tmp_path, capsys):
    c = tmp_path / "c.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "two-triangles",
            "--output", str(c))
    code, out, _ = run_cli(capsys, "verify", "--what", "flag-inequalities",
                           "--input", str(c))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["violations"] == 0
    assert doc["result"]["rho"] == 3


def test_verify_flag_inequalities_refuses_a_one_element_poset(tmp_path, capsys):
    # a one-element poset is bounded and graded, but of rank 0: no rank set
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"schema": "earlab.poset/1", "elements": ["a"], "covers": []}))
    code, out, err = run_cli(capsys, "verify", "--what", "flag-inequalities",
                             "--input", str(path))
    assert (code, out) == (2, "")
    assert "BadParams: flag vectors need a poset of rank at least 1" in err
    assert "Traceback" not in err


def test_verify_flag_inequalities_refuses_a_high_rank_complex_before_listing_faces(
    tmp_path, capsys, monkeypatch
):
    # the 13-vertex simplex has 2^13 faces; its rank 13 is refused off its dimension
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"schema": "earlab.complex/1",
                                "facets": [[f"v{i:02}" for i in range(13)]]}))
    calls = []
    monkeypatch.setattr("earlab.cli._faces_by_size", lambda *a: calls.append(a) or _faces_by_size(*a))
    code, out, err = run_cli(capsys, "verify", "--what", "flag-inequalities",
                             "--input", str(path))
    assert (code, out, calls) == (2, "", [])
    assert "SizeLimit: rank 13 exceeds the descent-class cap m = 8" in err


def test_verify_flag_inequalities_names_the_short_facet_of_an_impure_complex(tmp_path, capsys):
    # the point d lies below rank d - 1 = 2, so ranks 1..2 with bounds are not graded
    path = tmp_path / "impure.json"
    path.write_text(json.dumps({"schema": "earlab.complex/1", "facets": [["a", "b", "c"], ["d"]]}))
    code, out, err = run_cli(capsys, "verify", "--what", "flag-inequalities",
                             "--input", str(path))
    assert (code, out) == (2, "")
    assert "NotGraded: facet 'd' has fewer than 2 vertices: the face poset is not graded below rank 3" in err


def test_verify_flag_inequalities_on_a_complex_builds_no_poset(tmp_path, capsys, monkeypatch):
    # flag h is read off the face counts of ∂C4; a poset document still takes the chain DP
    calls = Counter()
    originals = {"face_poset": face_poset, "rank_select": rank_select,
                 "with_bounds": with_bounds, "flag_f_and_h": flag_f_and_h}
    for name, fn in originals.items():
        def counted(*a, _name=name, _fn=fn, **k):
            calls[_name] += 1
            return _fn(*a, **k)
        for module in [m for key, m in sys.modules.items() if key.startswith("earlab")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({"schema": "earlab.complex/1", "facets": [
        [s + str(i) for i, s in enumerate(signs, 1)] for signs in product("np", repeat=4)
    ]}))
    code, out, _ = run_cli(capsys, "verify", "--what", "flag-inequalities", "--input", str(c4))
    assert (code, json.loads(out)["result"]["rho"], calls) == (0, 4, Counter())
    b3 = tmp_path / "b3.json"
    run_cli(capsys, "gen", "boolean", "--rank", "3", "--output", str(b3))
    assert run_cli(capsys, "verify", "--what", "flag-inequalities", "--input", str(b3))[0] == 0
    assert calls == Counter(flag_f_and_h=1)


def test_verify_needs_a_source(capsys):
    # the m-vector's refusal names its own --g first
    for what, need in (("h-inequalities", "--h or --input"), ("m-vector", "--g, --h or --input")):
        code, out, err = run_cli(capsys, "verify", "--what", what)
        assert code == 2 and out == ""
        assert f"error: BadParams: need {need}, a document of kind " in err


# -- experiment -----------------------------------------------------------------

def test_experiment_rank_selection(capsys):
    code, out, _ = run_cli(capsys, "experiment", "rank-selection",
                           "--fixture", "two-triangles")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "earlab.experiment/1"
    assert doc["shellable"] is True
    rows = {tuple(r["S"]): r for r in doc["rows"]}
    assert len(rows) == 7
    assert rows[(1, 2)]["includes_top"] is False
    assert rows[(3,)]["includes_top"] is True
    # selections below the facet rank satisfy the necessary conditions,
    # while some through the top rank fail them on this ball fixture; that
    # asymmetry is the point of the observation-only scan
    assert all(
        r["necessary_conditions_ok"] for r in doc["rows"] if not r["includes_top"]
    )
    assert any(
        not r["necessary_conditions_ok"] for r in doc["rows"] if r["includes_top"]
    )


def test_experiment_caps_the_selections_homology(tmp_path, capsys, monkeypatch):
    # one facet on five vertices is small, but its full rank selection's
    # order complex has 5! = 120 facets, and homology runs on that
    path = tmp_path / "facet.json"
    path.write_text(canonical_dumps(
        {"schema": "earlab.complex/1", "vertices": list("abcde"), "facets": [list("abcde")]}
    ))

    def refuse(*args):
        raise AssertionError("homology ran before the cap")

    monkeypatch.setattr("earlab.cli.is_cm_and_2cm", refuse)
    code, _, err = run_cli(capsys, "experiment", "rank-selection",
                           "--input", str(path), "--cap-homology", "100")
    assert code == 2
    assert "SizeLimit: homology size 120 exceeds the cap 100" in err


@pytest.mark.parametrize(
    "facets",
    [*COMPLEX_FIXTURES.values(), [["a", "b", "c"], ["c", "d"], ["e"]], [list("abcde")]],
)
def test_flag_count_is_the_full_selections_facet_count(facets):
    c = build_complex(facets)
    fp = face_poset(c, include_empty=True, graded=True)
    full = order_complex(rank_select(fp, range(1, c.dim + 2)))
    assert _flag_count(c) == len(full.facets)


def test_experiment_refuses_an_oversized_selection_before_building_it(tmp_path, capsys, monkeypatch):
    # one facet on eight vertices: its full rank selection's order complex
    # would have 8! = 40320 facets
    path = tmp_path / "facet.json"
    path.write_text(canonical_dumps(
        {"schema": "earlab.complex/1", "vertices": list("abcdefgh"), "facets": [list("abcdefgh")]}
    ))

    def refuse(*args):
        raise AssertionError("built before the cap")

    monkeypatch.setattr("earlab.cli.order_complex", refuse)
    monkeypatch.setattr("earlab.cli.face_poset", refuse)
    code, _, err = run_cli(capsys, "experiment", "rank-selection",
                           "--input", str(path), "--cap-homology", "100")
    assert code == 2
    assert "SizeLimit: homology size 40320 exceeds the cap 100" in err


@pytest.mark.parametrize("facets", [[], [[]]])
def test_experiment_on_a_complex_without_vertices_has_no_rows(facets, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(canonical_dumps(
        {"schema": "earlab.complex/1", "vertices": [], "facets": facets}
    ))
    code, out, _ = run_cli(capsys, "experiment", "rank-selection", "--input", str(path))
    assert code == 0
    assert json.loads(out)["rows"] == []


@pytest.mark.parametrize("facets", [[["0", "a"], ["a", "b"]], [["a", "b"], ["a+b", "c"]]],
                         ids=["vertex-named-0", "vertex-named-a+b"])
def test_experiment_reports_on_vertices_named_like_faces(facets, tmp_path, capsys):
    # "0" is the empty face's name and "a+b" the edge ab's; the rows name no
    # face, so they equal those of the same complex on other vertex names
    rows = []
    for names in facets, [[f"x{v}" for v in f] for f in facets]:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema": "earlab.complex/1", "facets": names}))
        code, out, _ = run_cli(capsys, "experiment", "rank-selection", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["complex"]["facets"] == names
        rows.append(doc["rows"])
    assert rows[0] == rows[1] and [row["S"] for row in rows[0]] == [[1], [2], [1, 2]]


@pytest.mark.parametrize("argv", [["gen", "flats"], ["decompose", "--construction", "geometric"]],
                         ids=["gen-flats", "decompose-geometric"])
def test_flats_named_like_an_atom_are_refused(argv, tmp_path, capsys):
    # U(2,3) on 0, 1, 2: the atom "0" is named like the empty flat; U(3,4)
    # on a, b, a+b, c: the flat {a, b} is named "a+b", like an atom
    why = "a flat's name joins its atoms with '+', and '0' names the empty flat"
    for ground, rank, clash in [
        (["0", "1", "2"], 2, "flats [] and ['0'] are both named '0'"),
        (["a", "b", "a+b", "c"], 3, "flats ['a+b'] and ['a', 'b'] are both named 'a+b'"),
    ]:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": "earlab.matroid/1", "ground": ground,
                                    "bases": [list(b) for b in combinations(ground, rank)]}))
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == 2 and out == ""
        assert f"Inconsistent: {clash}: {why}" in err


def test_flats_of_a_plus_name_without_a_clash_decompose(tmp_path, capsys):
    # U(2,3) on a+b, c, d: no flat is named "a+b" but the atom, and the top is "a+b+c+d"
    ground = ["a+b", "c", "d"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema": "earlab.matroid/1", "ground": ground,
                                "bases": [list(b) for b in combinations(ground, 2)]}))
    code, out, _ = run_cli(capsys, "decompose", "--construction", "geometric",
                           "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ced"]["ok"] is True and doc["ced"]["ears"] == 2
    assert doc["decomposition"]["params"]["atom_order"] == ground


@pytest.mark.parametrize("facets, clash", [
    ([["0", "b", "c"], ["0", "b", "d"]], "faces [] and ['0'] are both named '0'"),
    ([["a", "b", "c"], ["a+b", "b", "c"]], "faces ['a+b'] and ['a', 'b'] are both named 'a+b'"),
], ids=["vertex-0", "vertex-a+b"])
def test_faces_named_like_another_face_are_refused(facets, clash, tmp_path, capsys):
    # the vertex "0" is named like the empty face; the vertex "a+b" like the edge {a, b}
    why = "a face's name joins its vertices with '+', and '0' names the empty face"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema": "earlab.complex/1", "facets": facets}))
    code, out, err = run_cli(capsys, "decompose", "--construction", "face-poset",
                             "--ranks", "1,2", "--input", str(path))
    assert code == 2 and out == ""
    assert f"Inconsistent: {clash}: {why}" in err


def test_a_matroid_of_high_rank_is_refused_before_its_flats_are_built(tmp_path, monkeypatch, capsys):
    # rank 25: at least 2^25 flats, one per subset of a basis, so the cap refuses it unbuilt
    ground = [f"e{i}" for i in range(26)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema": "earlab.matroid/1", "ground": ground,
                                "circuits": [["e0", "e1", "e2"]]}))

    def refuse(m):
        raise AssertionError("flats built before the size cap")

    monkeypatch.setattr("earlab.cli.lattice_of_flats", refuse)
    code, out, err = run_cli(capsys, "decompose", "--construction", "geometric",
                             "--input", str(path))
    assert code == 2 and out == ""
    assert f"SizeLimit: lattice size {2**25} exceeds the cap 200" in err


def test_poset_document_listing_an_element_twice_is_refused(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema": "earlab.poset/1", "elements": ["0", "a", "a", "1"],
                                "covers": [["0", "a"], ["a", "1"]]}))
    code, out, err = run_cli(capsys, "decompose", "--construction", "supersolvable",
                             "--input", str(path))
    assert code == 2 and out == ""
    assert "Inconsistent: element 'a' is listed twice" in err


def test_experiment_refuses_a_fixture_with_an_input(tmp_path, capsys):
    octa = tmp_path / "octa.json"
    facets = [[s + str(i) for i, s in enumerate(signs, 1)] for signs in product("np", repeat=3)]
    octa.write_text(canonical_dumps(complex_to_json(build_complex(facets))))
    code, out, err = run_cli(capsys, "experiment", "rank-selection",
                             "--fixture", "triangle", "--input", str(octa))
    assert code == 2 and out == ""
    assert "error: BadParams: experiment rank-selection reads one of --fixture, --input; give one" in err


def test_experiment_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "experiment", "rank-selection",
                           "--fixture", "moebius")
    assert code == 2
    assert "unknown fixture" in err


# -- input kinds -----------------------------------------------------------------

LATTICE_OR_POSET = "earlab.lattice/1 or earlab.poset/1"
RUN = "earlab.run/1 or earlab.run/2"

# every command that reads a document: its argv without --input, the
# arguments its missing-input refusal names, its accepted kinds, and a
# kind it refuses
READERS = {
    "gen-flats": (["gen", "flats"], "--input", "earlab.matroid/1", "complex"),
    "supersolvable": (["decompose", "--construction", "supersolvable"],
                      "--input", LATTICE_OR_POSET, "complex"),
    "rank-supersolvable": (["decompose", "--construction", "rank-supersolvable", "--ranks", "1"],
                           "--input", LATTICE_OR_POSET, "matroid"),
    "face-poset": (["decompose", "--construction", "face-poset", "--ranks", "1"],
                   "--input", "earlab.complex/1", "lattice"),
    "geometric": (["decompose", "--construction", "geometric"],
                  "--input", "earlab.matroid/1 or " + LATTICE_OR_POSET, "complex"),
    "ced": (["verify", "--what", "ced"], "--input", RUN, "complex"),
    "reciprocity": (["verify", "--what", "reciprocity"], "--input", RUN, "lattice"),
    "h-inequalities": (["verify", "--what", "h-inequalities"],
                       "--h or --input", "earlab.complex/1 or " + RUN, "lattice"),
    "m-vector": (["verify", "--what", "m-vector"],
                 "--g, --h or --input", "earlab.complex/1 or " + RUN, "matroid"),
    "flag-inequalities": (["verify", "--what", "flag-inequalities"],
                          "--input", "earlab.complex/1 or " + LATTICE_OR_POSET, "matroid"),
    "cm": (["verify", "--what", "cm"], "--input", "earlab.complex/1", "lattice"),
    "2cm": (["verify", "--what", "2cm"], "--input", "earlab.complex/1", "poset"),
    "experiment": (["experiment", "rank-selection"], "--fixture or --input", "earlab.complex/1", "lattice"),
}

DOCUMENTS = {
    "complex": complex_to_json(build_complex([["a", "b"], ["b", "c"]])),
    "lattice": lattice_to_json(boolean_lattice(2)),
    "poset": {"schema": "earlab.poset/1", "elements": ["0", "1"], "covers": [["0", "1"]]},
    "matroid": matroid_to_json(uniform_matroid(2, 3)),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_names_its_kinds_for_a_missing_input(reader, capsys):
    argv, need, kinds, _ = READERS[reader]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: BadParams: need {need}, a document of kind {kinds}\n" in err


@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_names_its_kinds_for_a_document_of_another_kind(reader, tmp_path, capsys):
    argv, _, kinds, wrong = READERS[reader]
    doc = DOCUMENTS[wrong]
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 4 and out == ""
    assert f"error: expected a document of kind {kinds}, got {doc['schema']!r}\n" in err


def _supersolvable_report(tmp_path, capsys) -> dict:
    lat = tmp_path / "b3.json"
    run_cli(capsys, "gen", "boolean", "--rank", "3", "--output", str(lat))
    code, out, _ = run_cli(capsys, "decompose", "--construction", "supersolvable", "--input", str(lat))
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("what", ["ced", "reciprocity"])
def test_a_report_embedding_a_document_of_another_kind_is_refused(what, tmp_path, capsys):
    doc = _supersolvable_report(tmp_path, capsys)
    doc["input"]["document"] = DOCUMENTS["complex"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--what", what, "--input", str(path))
    assert code == 4 and out == ""
    assert f"error: expected a document of kind {LATTICE_OR_POSET}, got 'earlab.complex/1'\n" in err


@pytest.mark.parametrize("what", ["ced", "reciprocity"])
def test_a_run_report_of_another_command_is_refused(what, tmp_path, capsys):
    doc = _supersolvable_report(tmp_path, capsys)
    doc["command"] = "experiment"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--what", what, "--input", str(path))
    assert code == 4 and out == ""
    assert "error: expected a run report of command 'decompose', got 'experiment'\n" in err


# -- process level ----------------------------------------------------------------

def test_module_runs_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "earlab.cli", "gen", "boolean", "--rank", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["elements"]) == 4


def _decompose_digest(hash_seed: int, *argv: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-m", "earlab.cli", "decompose", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stderr.splitlines() if l.startswith("sha256 ")]
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("--construction", "rank-boolean", "--rank", "5", "--ranks", "2,4"),
        ("--construction", "face-poset", "--input", "{fixture}", "--ranks", "1,2"),
    ],
)
def test_decompose_digest_is_independent_of_hash_seed(tmp_path, capsys, argv):
    fixture = tmp_path / "tetra.json"
    run_cli(capsys, "gen", "complex-fixture", "--name", "tetrahedron-boundary",
            "--output", str(fixture))
    argv = tuple(a.format(fixture=fixture) for a in argv)
    assert _decompose_digest(0, *argv) == _decompose_digest(1, *argv)


def test_bad_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
