"""The nicfdim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` for why each exists): ``dim-sweep``,
``spectrum-greedy``, ``ledger-exact``.  Each is a closed loop: one
client issues the seeded batch's jobs back to back from one process,
a fresh interpreter per pass, so caches live only as long as they do
for a CLI user.

Untraced (``--trace 0``): as many full passes of the batch as come
closest to ``--seconds`` of job time (at least one); the end-to-end
metrics of ``BENCHMARK.json`` are measured over every job run.  Only
whole passes run, so every job weighs the same in every run.  Set-up
time is the median over several fresh interpreters of the time from
spawn to the first job being ready.

Traced (``--trace 1``): one untraced and one traced full pass.  The
traced pass must reproduce the untraced outputs byte for byte; the
per-layer metrics come from its spans, and tracing overhead is the
ratio of the two passes' job rates.  Exact counts are compared with
the last traced run of the same batch and source tree.

Answers are checked after the timed passes (``checks.py``).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it restate every metric
with its unit, plus the environment record.  A fuller record goes to
``.bench_out/``.  Exit code 2 without a result when the checkout holds
no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"
SRC = ROOT / "src"
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170.0
# counts a traced run must repeat exactly for one workload, seed and source
EXACT_COUNTS = ("pressure_dim.logical_words", "pressure_dim.partition_sum_calls",
                "pressure_dim.distinct_tree_ratio",
                "pressure_dim.certify_decided_ratio", "spectrum.accept_ratio",
                "src.lines")


class BenchError(RuntimeError):
    pass


@dataclass
class Pass:
    setup_s: float
    results: List[dict]
    info: dict

    @property
    def seconds(self) -> float:
        return sum(r["seconds"] for r in self.results)


def spawn(jobs_path: Path, *, trace: bool = False,
          spans: Optional[Path] = None, probe: bool = False) -> Pass:
    """Run worker.py in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--jobs", str(jobs_path),
           "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if probe:
        cmd.append("--probe")
    with open(OUT / "worker.stderr", "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            body = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        tail = (OUT / "worker.stderr").read_text()[-2000:]
        raise BenchError(f"worker exited with {code}: {tail}")
    if probe:
        return Pass(setup, [], {})
    payload = json.loads(body)
    return Pass(setup, payload["results"], payload["info"])


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _src_files() -> List[Path]:
    return sorted(SRC.rglob("*.py"))


def src_digest() -> str:
    h = hashlib.sha256()
    for path in _src_files():
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in _src_files())


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git (the
    benchmark checkout is usually not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile_report(times: List[float]) -> Dict[str, float]:
    """Median, and the highest of p99, p95, p90 and p75 that has at least
    ten samples beyond it (none for small samples)."""
    n = len(times)
    out = {"n": n, "p50": statistics.median(times)}
    ordered = sorted(times)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[min(n - 1, math.ceil(n * p / 100) - 1)]
            break
    return out


def check_counts(jobs_path: Path, digest: str, counts: Dict[str, float]) -> List[str]:
    """Compare exact counts with the last traced run of the same batch and
    source tree; remember them for the next run."""
    batch = hashlib.sha256(jobs_path.read_bytes()).hexdigest()
    path = OUT / "counts" / f"{batch[:16]}-{digest[:16]}.json"
    drift = []
    if path.is_file():
        before = json.loads(path.read_text())
        drift = [f"{k}: {before.get(k)} -> {v}" for k, v in counts.items()
                 if before.get(k) != v]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return drift


def run_passes(jobs_path: Path, seconds: float, spans: Optional[Path]):
    """Set-up probes, then the timed passes, or with ``spans`` one
    untraced and one traced pass."""
    def probes(n):
        return [spawn(jobs_path, probe=True).setup_s for _ in range(n)]

    # host speed drifts over seconds, so half the probes run before the
    # passes and half after
    setup = probes(SETUP_PROBES // 2)
    passes = [spawn(jobs_path)]
    traced = None
    if spans is not None:
        traced = spawn(jobs_path, trace=True, spans=spans)
    else:
        more = round(seconds / passes[0].seconds) - 1
        passes += [spawn(jobs_path) for _ in range(more)]
    setup += probes(SETUP_PROBES - SETUP_PROBES // 2)
    setup += [p.setup_s for p in passes]
    return setup, passes, traced


def judge(workload: str, jobs, passes: List[Pass], traced: Optional[Pass]):
    """Check the first pass's answers; every later pass, the traced one
    included, must repeat its outputs byte for byte."""
    import checks  # imports numpy; kept out of the timed passes
    first = {r["id"]: r for r in passes[0].results}
    verdicts = checks.check_batch(workload, jobs, first)
    for p in passes[1:] + ([traced] if traced else []):
        for r in p.results:
            if r["digest"] != first[r["id"]]["digest"]:
                verdicts[r["id"]].problems.append(
                    "traced output differs from the untraced output" if p is traced
                    else "output differs between passes")
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nicfdim" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'nicfdim'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    jobs = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    jobs_path = OUT / f"jobs-{tag}.json"
    jobs_path.write_text(json.dumps(jobs))
    try:
        setup, passes, traced = run_passes(
            jobs_path, args.seconds, OUT / f"spans-{tag}.jsonl" if args.trace else None)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    verdicts = judge(args.workload, jobs, passes, traced)
    timed = [r for p in passes for r in p.results]
    attempted = timed + (traced.results if traced else [])
    failed = sum(1 for r in attempted if verdicts[r["id"]].problems)
    problems = {job_id: v.problems for job_id, v in verdicts.items() if v.problems}
    findings = {job_id: v.findings for job_id, v in verdicts.items() if v.findings}
    bits = [verdicts[j["id"]].bits for j in jobs if verdicts[j["id"]].bits is not None]

    times = [r["seconds"] for r in timed]
    busy = sum(times)
    jobs_per_s = len(times) / busy
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": jobs_per_s,
        "job_p50_s": statistics.median(times),
        "cert_bits_p50": statistics.median(bits),
        "cert_bits_per_s": sum(verdicts[r["id"]].bits or 0.0 for r in timed) / busy,
        "peak_rss_mib": statistics.median(p.info["rss_mib"] for p in passes),
        "success_frac": 1.0 - failed / len(attempted),
    }
    extra = {
        "failed_frac": failed / len(attempted),
        "uncertified_frac": sum(1 for v in verdicts.values() if v.uncertified) / len(jobs),
        "job_times_s": percentile_report(times),
        "passes": len(passes),
        "setup_samples_s": setup,
        "job_seconds": {j["id"]: [r["seconds"] for r in timed if r["id"] == j["id"]]
                        for j in jobs},
    }
    digest = src_digest()
    drift: List[str] = []
    if traced is not None:
        metrics = dict(traced.info["layers"])
        metrics["pressure_dim.threads_speedup"] = traced.info["threads_speedup"]
        metrics["src.lines"] = src_lines()
        metrics["spectrum.achieved_above_target"] = sum(
            1 for notes in findings.values() for n in notes if n.startswith("achieved hi"))
        metrics["trace.overhead"] = jobs_per_s / (len(traced.results) / traced.seconds) - 1.0
        drift = check_counts(jobs_path, digest, {k: metrics[k] for k in EXACT_COUNTS})
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark aborted: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "src_sha256": digest, "jobs": len(jobs),
    }
    record = {"env": env, "metrics": metrics, "extra": extra,
              "problems": problems, "findings": findings, "drift": drift}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    for m in wanted:
        print(f"{m['name']:<48} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_frac':<48} {extra['failed_frac']:.6g} 1")
        print(f"{'uncertified_frac':<48} {extra['uncertified_frac']:.6g} 1")
        print("job times (s): " + ", ".join(
            f"{k}={v:.6g}" for k, v in extra["job_times_s"].items()))
    for job_id, probs in problems.items():
        print(f"FAILED {job_id}: {'; '.join(probs)}")
    for job_id, notes in findings.items():
        print(f"FINDING {job_id}: {'; '.join(notes)}")
    for line in drift:
        print(f"DRIFT {line}")
    print(json.dumps({
        "correct": failed == 0 and not drift,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
