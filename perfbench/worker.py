"""One benchmark pass in a fresh interpreter, started by run.py.

``pass`` mode imports earlab from ``<root>/src``, writes the workload's
fixtures (``earlab gen`` for lattices and matroids, the benchmark's own
writer for the two complexes), then calls ``earlab.cli.main`` once per
rung, one after another. With ``--trace 1`` the layer functions are wrapped
before the fixtures are written, so set-up calls are traced too.
``oracle`` mode recounts every decompose rung's ears and facets by routes
that do not run the constructor. Either mode prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _quiet(main, argv):
    """Call the CLI with its stdout and stderr captured; a crash inside the
    CLI is a failed rung, reported with its traceback, not a dead worker."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _peak_rss_mb() -> float:
    """High-water resident set of this process image. Not ru_maxrss: Linux
    carries the parent's resident set at fork time across exec into it."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(workload, workdir: Path, spawned: float, traced: bool) -> dict:
    import earlab.cli as cli

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    fixtures = workloads.write_fixtures(
        workload.fixtures, workdir, lambda argv: _quiet(cli.main, argv)[0]
    )
    reports: dict[str, str] = {}
    rungs: dict[str, dict] = {}
    started = time.monotonic()
    cpu0 = time.process_time()
    for rung in workload.rungs:
        path = str(workdir / f"{rung.name}.json")
        argv = workloads.rung_argv(rung, fixtures, reports) + ["--output", path]
        if tracer is not None:
            tracer.new_invocation()
        t0 = time.perf_counter()
        code, out, err = _quiet(cli.main, argv)
        seconds = time.perf_counter() - t0
        printed = out.split()[1] if out.startswith("sha256 ") else None
        rungs[rung.name] = {"code": code, "s": seconds, "sha256": printed}
        if code != 0:
            rungs[rung.name]["stderr"] = err[-2000:]
        reports[rung.name] = path
    result = {
        "setup_s": started - spawned,
        "wall_s": sum(r["s"] for r in rungs.values()),
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "rungs": rungs,
    }
    if tracer is not None:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "incl": dict(tracer.incl),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
        }
    return result


def run_oracle(workload, workdir: Path) -> dict:
    import earlab.cli as cli

    fixtures = workloads.write_fixtures(
        workload.fixtures, workdir, lambda argv: _quiet(cli.main, argv)[0]
    )
    return {
        rung.name: list(workloads.oracle_counts(rung, fixtures))
        for rung in workload.rungs
        if rung.oracle is not None
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["pass", "oracle"])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawned", type=float, default=0.0, help="time.monotonic() in run.py just before the spawn")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.dir)
    if args.mode == "oracle":
        result = run_oracle(workload, workdir)
    else:
        result = run_pass(workload, workdir, args.spawned, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
