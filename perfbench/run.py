"""earlab benchmark: three fixed CLI workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload full-order --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn and prefixes each metric
with its workload's name.

A run is a closed loop with one client. Passes run one after another, each
in a fresh interpreter (worker.py) whose ``PYTHONHASHSEED`` is the seed plus
the pass index, so every run also compares report digests across hash
seeds. A pass writes the workload's fixtures (its set-up) and then calls
``earlab.cli.main`` once per rung. Passes go on while the next one is
expected to end within ``--seconds``, with at least MIN_PASSES of them
(with ``--trace 1``, at least one untraced and one traced pass). Every
metric is the median over passes.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the layer
metrics of layers.json from the traced ones, and ``trace.overhead_ratio``.

Before the passes, a separate worker recounts each decompose rung's ears
and facets without running the constructor. A rung invocation fails when
the CLI exits non-zero, its report is not ok, a count differs from the
recorded one or the recorded one from the recount, the printed digest is
not the file's, or its digest differs from another pass of the run.
The last stdout line is the JSON result; the lines before it give each
rung's untraced time and sha256, and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
DEADLINE_S = 170  # stop starting passes that could run past this

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "report_bytes": "bytes",
}


def _spawn(args: list[str], hash_seed: int, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2**32))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _report_problems(rung, doc: dict, oracle: dict) -> list[str]:
    out = []
    if rung.oracle is not None:
        ced = doc.get("ced", {})
        got = (ced.get("ears"), ced.get("chain_partition", {}).get("facets"))
        want = (rung.ears, rung.facets)
        if not ced.get("ok"):
            out.append("ced.ok is false")
        if got != want:
            out.append(f"ears, facets {got} != expected {want}")
        if tuple(oracle[rung.name]) != want:
            out.append(f"expected {want} != recount {tuple(oracle[rung.name])}")
    elif rung.pairs is not None:
        res = doc.get("result", {})
        if not doc.get("ok") or res.get("violations") != 0:
            out.append("flag inequalities violated")
        if len(res.get("pairs", [])) != rung.pairs:
            out.append(f"{len(res.get('pairs', []))} dominating pairs != expected {rung.pairs}")
    else:
        rows = doc.get("result", {}).get("ears", [])
        if not doc.get("ok") or not all(r.get("ok") for r in rows):
            out.append("reciprocity failed")
        if len(rows) != rung.ears or oracle[rung.reads][0] != rung.ears:
            out.append(f"{len(rows)} ears checked, expected {rung.ears}")
    return out


def _check_pass(workload, passdir: Path, res: dict, oracle: dict) -> None:
    """Read back each rung's report; record its size, sha256 and problems."""
    for rung in workload.rungs:
        rec = res["rungs"][rung.name]
        path = passdir / f"{rung.name}.json"
        problems = [] if rec["code"] == 0 else [f"exit code {rec['code']}: {rec.get('stderr', '')}"]
        if path.exists():
            data = path.read_bytes()
            rec["bytes"] = len(data)
            rec["digest"] = hashlib.sha256(data).hexdigest()
            if rec["sha256"] != rec["digest"]:
                problems.append("printed sha256 is not the report's")
            try:
                problems += _report_problems(rung, json.loads(data), oracle)
            except ValueError as exc:
                problems.append(f"report is not JSON: {exc}")
        else:
            problems.append("no report written")
        rec["problems"] = problems
    res["report_bytes"] = sum(r.get("bytes", 0) for r in res["rungs"].values())


def _layer_values(res: dict, untraced_wall: float) -> dict[str, float]:
    """Every layer metric of one traced pass."""
    t = res["trace"]
    c = t["counts"]
    v: dict[str, float] = {}
    for fn in spans.TRACED:
        v[f"{fn}.s"] = t["incl"].get(fn, 0.0)
        v[f"{fn}.calls"] = t["calls"].get(fn, 0)
    for mod in spans.MODULES:
        v[f"{mod}.self_s"] = t["self_s"].get(mod, 0.0)
    for rung in workloads.ALL_RUNGS:
        v[f"cli.main.{rung}.s"] = res["rungs"][rung]["s"] if rung in res["rungs"] else 0.0
    v["decompositions.decompose.s"] = sum(
        v[f"{fn}.s"] for fn in spans.TRACED if fn.startswith("decompositions.decompose_")
    )
    for name in ("decompositions.ears", "decompositions.facets",
                 "complexes.build_complex.facets_in", "complexes.verify_shelling.facets"):
        v[name] = c.get(name, 0)
    shelled = v["complexes.verify_shelling.calls"]
    v["complexes.verify_shelling.repeat_ratio"] = (
        c.get("complexes.verify_shelling.repeats", 0) / shelled if shelled else 0.0
    )
    union_in = c.get("complexes.union_complexes.facets_in", 0)
    v["complexes.union_complexes.kept_ratio"] = (
        c.get("complexes.union_complexes.facets_out", 0) / union_in if union_in else 0.0
    )
    v["trace.overhead_ratio"] = res["wall_s"] / untraced_wall
    return v


def _check_layer_map() -> None:
    """Every traced function must be called on some workload, so that a
    function no workload reaches shows up as a missing call."""
    bad = {
        fn: on
        for layer in spans.LAYERS
        for fn, on in layer["functions"].items()
        if not on or any(w not in workloads.WORKLOADS for w in on)
    }
    if bad:
        raise SystemExit(f"error: layers.json names no known workload for {bad}")


def _warn_missing_calls(workload, values: dict[str, float]) -> None:
    """A function the layer map says this workload calls, but that saw no
    call: the code path changed, or a reference escaped the wrappers."""
    for layer in spans.LAYERS:
        for fn, on in layer["functions"].items():
            if workload.name in on and not values[f"{fn}.calls"]:
                print(f"warning: {fn} was never called on {workload.name}", file=sys.stderr)


def _run_passes(workload, args, work: Path, oracle: dict, deadline: float) -> list[tuple[int, dict]]:
    kinds = (0,) if args.trace == 0 else (0, 1)
    min_cycles = MIN_PASSES if args.trace == 0 else 1
    passes: list[tuple[int, dict]] = []
    start = time.monotonic()
    while True:
        cycles = len(passes) // len(kinds)
        elapsed = time.monotonic() - start
        per_cycle = elapsed / cycles if cycles else 0.0
        if cycles >= min_cycles and elapsed + per_cycle > args.seconds:
            break
        if cycles and time.monotonic() + per_cycle > deadline:
            break
        for kind in kinds:
            k = len(passes)
            passdir = work / f"pass{k}"
            passdir.mkdir()
            res = _spawn(
                ["pass", "--workload", workload.name, "--dir", str(passdir),
                 "--trace", str(kind), "--spawned", repr(time.monotonic())],
                args.seed + k,
                deadline - time.monotonic(),
            )
            _check_pass(workload, passdir, res, oracle)
            shutil.rmtree(passdir)
            passes.append((kind, res))
    return passes


def run_workload(workload, args) -> tuple[int, int, dict]:
    """Run one workload; print its rung lines and metrics; return
    (attempted, failed, metrics)."""
    deadline = time.monotonic() + DEADLINE_S
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        (work / "oracle").mkdir()
        oracle = _spawn(
            ["oracle", "--workload", workload.name, "--dir", str(work / "oracle")],
            args.seed,
            deadline - time.monotonic(),
        )
        passes = _run_passes(workload, args, work, oracle, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [res for kind, res in passes if kind == 0]
    traced = [res for kind, res in passes if kind == 1]
    attempted = failed = 0
    for rung in workload.rungs:
        recs = [res["rungs"][rung.name] for _, res in passes]
        digests = {rec.get("digest") for rec in recs}
        for rec in recs:
            if len(digests) != 1:
                rec["problems"].append(f"digest differs between passes: {sorted(map(str, digests))}")
            attempted += 1
            failed += bool(rec["problems"])
        seconds = statistics.median(res["rungs"][rung.name]["s"] for res in plain)
        print(f"rung {rung.name}: {seconds:.4f} s untraced median, sha256 {recs[0].get('digest')}")
        for p in sorted({p for rec in recs for p in rec["problems"]}):
            print(f"  FAILED {rung.name}: {p}")
    print(f"workload {workload.name}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"hash seeds {args.seed % 2**32} to {(args.seed + len(passes) - 1) % 2**32}")

    untraced = {k: statistics.median(res[k] for res in plain) for k in END_TO_END}
    if args.trace == 0:
        metrics = {k: {"value": untraced[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        per_pass = [_layer_values(res, untraced["wall_s"]) for res in traced]
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        _warn_missing_calls(workload, values)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for layer in spans.LAYERS
            for m in layer["metrics"]
        }
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    return attempted, failed, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "earlab" / "cli.py").is_file():
        print(f"error: no earlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _check_layer_map()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(workloads.WORKLOADS[name], args)
        attempted, failed = attempted + a, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
