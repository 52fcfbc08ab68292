"""Numerical transfer-operator estimate of a Bowen root (answer checks only).

The estimate bisects on t until the leading eigenvalue of

    (L_t f)(x) = sum_b |b + x|**(-2t) f(1 / (b + x)),   x in [-1/2, 1/2],

is 1, with f sampled on a uniform grid and read back by linear
interpolation.  For a cofinite alphabet |b| >= lo the letters up to
``ENUMERATED`` are summed term by term and the rest as an integral: with
y = 1/(u + x) the tail over k > M of (k + x)**(-2t) f(1/(k + x)) becomes
the integral of y**(2t - 2) f(y) over 0 < y < 1/(M + 1/2 + x), which is
integrated cell by cell with exact weights and the cell-midpoint value
of f (and the mirror image for negative letters).

The estimate is not rigorous.  Its discretisation error is estimated by
running it twice, the second time with half the grid (and, for a
cofinite alphabet, half the enumerated letters); ``estimate`` returns
the fine value and the difference.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

ENUMERATED = 40
GRID = 800


def _operator(letters: Sequence[int], tail_from: Optional[int], grid: int):
    xs = np.linspace(-0.5, 0.5, grid)
    b = np.asarray(letters, dtype=float)[:, None]
    pos = (1.0 / (b + xs) + 0.5) * (grid - 1)
    i0 = np.clip(np.floor(pos).astype(int), 0, grid - 2)
    frac = np.clip(pos - i0, 0.0, 1.0)
    log_d = np.log(np.abs(b + xs))
    tail = None
    if tail_from is not None:
        # cell edges and midpoints of the y grid on each side of 0
        h = 1.0 / (grid - 1)
        ymax = 1.0 / (tail_from - 0.5 - 0.5)
        edges = np.arange(0.0, ymax + h, h)
        mids = 0.5 * (edges[:-1] + edges[1:])
        mpos = (mids + 0.5) * (grid - 1)
        m0 = np.clip(np.floor(mpos).astype(int), 0, grid - 2)
        mfrac = mpos - m0
        mneg = (-mids + 0.5) * (grid - 1)
        n0 = np.clip(np.floor(mneg).astype(int), 0, grid - 2)
        nfrac = mneg - n0
        # per x: upper limit of y on the positive and negative side
        ypos = 1.0 / (tail_from - 0.5 + xs)
        yneg = 1.0 / (tail_from - 0.5 - xs)
        tail = (edges, (m0, mfrac), (n0, nfrac), ypos, yneg)
    return i0, frac, log_d, tail


def _cell_weights(edges, ylim, t):
    """Exact integral of y**(2t-2) over each cell, clipped at ylim (per x)."""
    a = np.minimum(edges[None, :-1], ylim[:, None])
    b = np.minimum(edges[None, 1:], ylim[:, None])
    e = 2.0 * t - 1.0
    return (b ** e - a ** e) / e


def _eigenvalue(op, t: float, iters: int = 600, rtol: float = 1e-13) -> float:
    i0, frac, log_d, tail = op
    grid = i0.shape[1]
    w = np.exp(-2.0 * t * log_d)
    if tail is not None:
        if t <= 0.5:
            return np.inf
        edges, (m0, mf), (n0, nf), ypos, yneg = tail
        wpos = _cell_weights(edges, ypos, t)
        wneg = _cell_weights(edges, yneg, t)
    f = np.ones(grid)
    lam = 0.0
    for _ in range(iters):
        nf_ = (w * ((1.0 - frac) * f[i0] + frac * f[i0 + 1])).sum(axis=0)
        if tail is not None:
            fpos = (1.0 - mf) * f[m0] + mf * f[m0 + 1]
            fneg = (1.0 - nf) * f[n0] + nf * f[n0 + 1]
            nf_ = nf_ + wpos @ fpos + wneg @ fneg
        new = nf_.max()
        f = nf_ / new
        if abs(new - lam) <= rtol * new:
            return new
        lam = new
    return lam


def bowen_root(letters: Sequence[int], tail_from: Optional[int] = None,
               grid: int = GRID, steps: int = 34) -> float:
    op = _operator(letters, tail_from, grid)
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if _eigenvalue(op, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def estimate(letters: Sequence[int],
             cofinite: Optional[Tuple[int, int]] = None) -> Tuple[float, float]:
    """(estimate, discretisation error estimate) of the dimension of the
    finite alphabet ``letters`` or of the cofinite set |b| >= lo."""
    if cofinite is None:
        fine = bowen_root(letters, None, GRID)
        coarse = bowen_root(letters, None, GRID // 2)
    else:
        fine = _cofinite_root(cofinite[0], ENUMERATED, GRID)
        coarse = _cofinite_root(cofinite[0], ENUMERATED // 2, GRID // 2)
    return fine, abs(fine - coarse)


def _cofinite_root(lo: int, enumerated: int, grid: int) -> float:
    top = max(lo, enumerated)
    letters = [s * k for k in range(lo, top + 1) for s in (-1, 1)]
    return bowen_root(letters, top + 1, grid)
