"""One pass of a job batch in a fresh interpreter.

    python3 perfbench/worker.py --jobs FILE [--trace 0|1] [--spans FILE]
                                [--probe]

Imports nicfdim from ``src/`` of the checkout, builds the CLI parser,
reads the batch and prints ``READY``: that is the set-up the caller
times.  It then runs the jobs back to back, each timed on its own, and
prints one JSON object with the per-job outputs and times.  With
``--trace 1`` the layers are wrapped first (see
``tracer.py``), the spans are written to ``--spans`` at exit, and the
per-layer metrics and a thread-scaling probe are added to the result.
With ``--probe`` it exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from fractions import Fraction  # noqa: E402

from nicfdim import cli, pressure_dim, spectrum  # noqa: E402
from nicfdim.nicf_system import LoopLetter  # noqa: E402
from nicfdim.symbolic import AlphabetSelection  # noqa: E402


def _exact(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _run_mme(job) -> str:
    rows = []
    for letter in job["letters"]:
        b = LoopLetter(*letter) if isinstance(letter, list) else letter
        v = spectrum.mme_check(b, job["system"])
        margin = v.margin
        rows.append({"letter": v.letter, "passes": v.passes, "note": v.note,
                     "margin": None if margin is None
                     else [_exact(margin.lo), _exact(margin.hi)]})
    return json.dumps(rows)


def _run_direct(job) -> str:
    small = pressure_dim.DigitIfs(AlphabetSelection.explicit(job["small"]))
    large = pressure_dim.DigitIfs(AlphabetSelection.cofinite(*job["large"]))
    rows = spectrum.direct_lambda_comparison(
        small, large, [Fraction(t) for t in job["grid"]])
    return json.dumps([{"t": _exact(r.t), "verdict": r.verdict,
                        "method": r.method, "lhs_hi": r.lhs_hi,
                        "rhs_lo": r.rhs_lo} for r in rows])


def run_job(job) -> dict:
    """Run one job; its output is the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job["kind"] == "cli":
                rc = cli.main(job["argv"])
            elif job["kind"] == "mme":
                print(_run_mme(job))
            else:
                print(_run_direct(job))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising job is a failed job
            error = f"{type(exc).__name__}: {exc}"
    output = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
    return {"id": job["id"], "output": output, "digest": digest, "error": error}


def threads_speedup(nproc: int) -> float:
    """Time at threads=1 over time at threads=nproc for one deep
    float-lane partition sum (+-3, +-4 at depth 8, 65536 words)."""
    system = pressure_dim.DigitIfs(AlphabetSelection.explicit([-3, 3, -4, 4]))
    t = Fraction(5, 16)
    times = {1: [], nproc: []}
    for _ in range(3):
        for threads in times:
            t0 = perf_counter()
            pressure_dim.partition_sum(system, t, 8, threads=threads)
            times[threads].append(perf_counter() - t0)
    return min(times[1]) / min(times[nproc])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    cli.build_parser()
    with open(args.jobs) as fh:
        jobs = json.load(fh)
    print("READY", flush=True)
    if args.probe:
        return 0

    info = {}
    tracer = None
    if args.trace:
        import tracer as tracing
        info["threads_speedup"] = threads_speedup(len(os.sched_getaffinity(0)))
        tracer = tracing.Tracer()
        tracer.install()

    results = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        t0 = perf_counter()
        res = run_job(job)
        res["seconds"] = perf_counter() - t0
        results.append(res)

    info["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.job = None
        info["layers"] = tracing.layer_metrics(tracer.spans(), tracer.leaves())
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps({"results": results, "info": info}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
