"""Seeded job batches for the three workloads.

A batch is a list of jobs; each job is a dict with an ``id``, a ``kind``
(``cli``, ``mme`` or ``direct``), the inputs the worker hands to the
library, and a ``meta`` record that only the answer checks read.  The
same seed always gives the same batch.  This module does not import
nicfdim, so batches can be built before the program is loaded.

Why each workload exists, and what it should move:

* ``dim-sweep`` -- the flagship query, ``nicfdim dim`` through
  ``cli.main``.  Each alphabet is probed at about 40 ``(t, n)`` pairs
  over a handful of word trees, and the dyadic bisection midpoints
  (1/2, 1/4, 3/8) take the exact lane.  Word-tree caching, lane
  unification and ``pow_enclosure`` show here (``partition_sum_s``,
  ``logical_words``, ``distinct_tree_ratio``, ``pow_enclosure`` from
  ``pressure_dim``).
* ``spectrum-greedy`` -- the same ``pressure_dim`` layer used the other
  way round: dozens of distinct, growing alphabets, each certified at
  one ``t`` in the float lane.  A per-tree cache or an exact-lane
  change should move little here; incremental alphabet extension should
  (``spectrum.construct_s``, ``spectrum.certify_per_letter``).  The
  phi_f runs use ``--threads 1``: on a shared 2-core host ``--threads
  2`` runs swing by up to 60% with the host's load (the pool's threads
  contend for the interpreter lock across both cores), which took the
  workload's spread past its bound.  The phi_v run keeps ``--threads
  2`` so the pool path still runs end to end, and the traced run's
  ``pressure_dim.threads_speedup`` measures the pool on its own.
* ``ledger-exact`` -- the exact lane alone: the inequality ledger,
  ``mme_check`` sweeps and direct comparisons against cofinite tails.
  No words are enumerated, so pressure-path changes should not move it;
  ``exactnum`` tails and surds, ``_decide`` escalation and ``q_growth``
  should (``ledger.case.*_s``, ``exactnum.tail_sum_enclosure_s``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

# letters**depth is kept at or below this word count.  It sits under the
# exact-lane cap (20_000 words), so dyadic midpoints take the exact lane
# as they do for a CLI user at moderate depth.
WORD_BUDGET = 4096
DIM_TOL = "0.02"
DIM_GROUPS = 14                # each group: finite alphabets + 1 cofinite
FINITE_PER_GROUP = 4
MAGNITUDES = range(3, 13)      # |b| in 3..12

SPECTRUM_TARGETS = 10          # phi_f runs, one per tenth of [0.2, 0.45]

MME_CHUNKS = 8                 # mme_check jobs per batch
MME_CHUNK_LETTERS = 8
DIRECT_JOBS = 4


def depth_for(letter_count: int) -> int:
    """Largest depth with letter_count**depth <= WORD_BUDGET."""
    depth = 1
    while letter_count ** (depth + 1) <= WORD_BUDGET:
        depth += 1
    return depth


def _dim_job(job_id: str, spec: str, depth: int, meta: dict) -> dict:
    return {
        "id": job_id,
        "kind": "cli",
        "argv": ["--threads", "1", "dim", "--alphabet", spec,
                 "--depth", str(depth), "--tol", DIM_TOL],
        "meta": dict(meta, depth=depth),
    }


def dim_sweep(seed: int) -> List[dict]:
    """Finite alphabets of 2..6 letters plus one cofinite spec per group,
    each queried at two depths (main and one less)."""
    rng = random.Random(seed)
    pool = [s * m for m in MAGNITUDES for s in (-1, 1)]
    jobs: List[dict] = []
    sizes = [2, 3, 4, 5, 6]
    size_at = rng.randrange(len(sizes))
    for g in range(DIM_GROUPS):
        alphabets = []
        for _ in range(FINITE_PER_GROUP):
            count = sizes[size_at % len(sizes)]
            size_at += 1
            letters = sorted(rng.sample(pool, count))
            alphabets.append((",".join(map(str, letters)),
                              {"letters": letters, "cofinite": None}))
        lo = rng.randint(3, 5)
        trunc = lo + rng.randint(1, 2)
        alphabets.append((f"absmin:{lo}:{trunc}",
                          {"letters": [s * m for m in range(lo, trunc + 1)
                                       for s in (-1, 1)],
                           "cofinite": [lo, trunc]}))
        for a, (spec, meta) in enumerate(alphabets):
            depth = depth_for(len(meta["letters"]))
            meta = dict(meta, alphabet=f"g{g}a{a}")
            for d in (depth, max(depth - 1, 1)):
                jobs.append(_dim_job(f"dim-g{g}a{a}-n{d}", spec, d, meta))
    return jobs


def _float_lane_target(x: float) -> Fraction:
    """x rounded to k/1000, moved up by 1/1000 while its reduced
    denominator is 8 or less, so certification at it stays in the float
    lane."""
    t = Fraction(round(x * 1000), 1000)
    while t.denominator <= 8:
        t += Fraction(1, 1000)
    return t


def spectrum_greedy(seed: int) -> List[dict]:
    """phi_f greedy runs at targets spread over [0.2, 0.45] (budget 40,
    depth 10) and one small phi_v run.

    The phi_f targets are a systematic sample: one seeded offset places a
    target in each tenth of the range.  Run time grows with the target,
    so this keeps the batch's cost steady from seed to seed while every
    target in the range stays reachable."""
    rng = random.Random(seed)
    jobs: List[dict] = []
    lo, hi = 0.2, 0.45
    step = (hi - lo) / SPECTRUM_TARGETS
    offset = rng.random()
    for i in range(SPECTRUM_TARGETS):
        t = _float_lane_target(lo + (i + offset) * step)
        jobs.append({
            "id": f"spec-f{i}",
            "kind": "cli",
            "argv": ["--threads", "1", "spectrum",
                     "--target", str(float(t)), "--system", "phi_f",
                     "--budget", "40", "--depth", "10"],
            "meta": {"target": str(t), "system": "phi_f"},
        })
    t = _float_lane_target(rng.uniform(0.22, 0.35))
    jobs.append({
        "id": "spec-v0",
        "kind": "cli",
        "argv": ["--threads", "2", "spectrum",
                 "--target", str(float(t)), "--system", "phi_v",
                 "--budget", "8", "--depth", "6"],
        "meta": {"target": str(t), "system": "phi_v"},
    })
    return jobs


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> List[int]:
    """One integer from each of n equal slices of lo..hi (inclusive)."""
    span = hi - lo + 1
    return [rng.randrange(lo + span * i // n, lo + span * (i + 1) // n)
            for i in range(n)]


def _mme_letters(rng: random.Random, system: str, family: str) -> List:
    """Letters from the ranges the acceptance criteria pin as passing,
    one from each slice of the range: the margins widen as the letters
    shrink, so this keeps each chunk's certified bits steady by seed."""
    n = MME_CHUNK_LETTERS
    if system == "phi_f":
        return [rng.choice((-1, 1)) * b for b in _stratified(rng, 4, 100, n)]
    if family == "digit":
        return _stratified(rng, 4, 30, n)
    ks = [3, 4, 5, 8] * (n // 4)
    rng.shuffle(ks)
    return [[1, j, k] for j, k in zip(_stratified(rng, 1, 12, n), ks)]


def ledger_exact(seed: int) -> List[dict]:
    """All nine ledger cases, seeded mme_check sweeps for phi_f and phi_v,
    and direct comparisons of +-3 subsets against absmin tails."""
    rng = random.Random(seed)
    jobs: List[dict] = [{
        "id": "ledger-all", "kind": "cli", "argv": ["ledger", "--json"],
        "meta": {},
    }]
    plan = (["phi_f", "digit"],) * (MME_CHUNKS // 2) + (
        ["phi_v", "digit"], ["phi_v", "run"]) * (MME_CHUNKS // 4)
    for i, (system, family) in enumerate(plan):
        jobs.append({
            "id": f"mme-{i}", "kind": "mme", "system": system,
            "letters": _mme_letters(rng, system, family), "meta": {},
        })
    # t <= 1/2 passes by divergence; above 1/2 the z1-chain decides, in the
    # exact lane when t's denominator is 8 or less (3/5, 3/4, 4/5, 1) and in
    # the float lane otherwise.  Each job gets two of each kind, and the
    # truncations are a systematic sample of 50..300, so the batch's cost
    # does not swing with the seed.
    exact_t = [Fraction(j, 20) for j in (12, 15, 16, 20)]
    float_t = [Fraction(j, 20) for j in (11, 13, 14, 17, 18, 19)]
    offset = rng.random()
    for i in range(DIRECT_JOBS):
        small = rng.choice(([-3, 3], [3], [-3]))
        trunc = 50 + int((i + offset) * 250 / DIRECT_JOBS)
        grid = ([Fraction(rng.randint(1, 4), 8)] + rng.sample(exact_t, 2)
                + rng.sample(float_t, 2))
        grid = [str(t) for t in sorted(grid)]
        jobs.append({
            "id": f"direct-{i}", "kind": "direct", "small": small,
            "large": [4, trunc], "grid": grid, "meta": {},
        })
    return jobs


WORKLOADS: Dict[str, callable] = {
    "dim-sweep": dim_sweep,
    "spectrum-greedy": spectrum_greedy,
    "ledger-exact": ledger_exact,
}
