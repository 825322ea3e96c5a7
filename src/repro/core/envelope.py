"""The submodular upper-bound function τ (§V-B, Fig 2, Algorithm 4).

The AU objective is a sum over MRR samples of a logistic in the covered
piece count — not submodular.  The paper's bound replaces each per-sample
logistic with its *minimal monotone concave majorant* anchored at the
partial plan's current count; a concave non-decreasing function of a
per-sample coverage count is submodular in the plan, so greedy selection
over the summed bound carries a (1 − 1/e) guarantee.

Two constructions are provided:

* :func:`tangent_envelope` — the paper's Algorithm 4: binary search for
  the gradient of the line through the anchor point that is tangent to the
  logistic S-curve (the continuous construction of Fig 2);
* :func:`upper_hull_values` / :func:`envelope_table` — the exact discrete
  upper concave hull over the integer counts {c₀..ℓ}, which is what the
  bound is evaluated on (counts are integers, ℓ ≤ 5).  It is tighter than
  (never above) the tangent construction, so pruning remains valid and the
  approximation analysis is unchanged; tests assert the dominance.

The search uses the discrete table; Algorithm 4 is kept and tested for
faithfulness (see DESIGN.md §3).
"""
from __future__ import annotations

import functools

import numpy as np

from .adoption import LogisticModel


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def upper_hull_values(ys: np.ndarray) -> np.ndarray:
    """Minimal concave majorant of points (i, ys[i]) evaluated at each i.

    Standard upper-convex-hull scan over consecutive integer abscissae,
    then piecewise-linear interpolation between hull vertices.
    """
    ys = np.asarray(ys, dtype=np.float64)
    d = len(ys)
    if d <= 2:
        return ys.copy()
    hull = [0]
    for i in range(1, d):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # Pop b if it lies on/below chord a→i (slopes must strictly decrease).
            if (ys[b] - ys[a]) * (i - b) <= (ys[i] - ys[b]) * (b - a):
                hull.pop()
            else:
                break
        hull.append(i)
    out = np.empty(d)
    for (a, b) in zip(hull[:-1], hull[1:]):
        xs = np.arange(a, b + 1)
        out[a : b + 1] = ys[a] + (ys[b] - ys[a]) * (xs - a) / (b - a)
    return out


def envelope_table(model: LogisticModel, n_pieces: int) -> np.ndarray:
    """G[c0, c]: the anchored envelope value at count c, for anchor c0 ≤ c.

    Row c0 is the minimal concave majorant of the adoption curve restricted
    to counts {c0..ℓ}; entries with c < c0 are NaN (never evaluated).
    G[c0, c0] = f(c0) and G[c0, c] ≥ f(c) with concave increments — the
    refinement of Fig 2: as a partial plan activates more pieces for a
    sample, the anchor advances and the bound tightens.
    """
    f = model.adoption_values(n_pieces)
    G = np.full((n_pieces + 1, n_pieces + 1), np.nan)
    for c0 in range(n_pieces + 1):
        G[c0, c0:] = upper_hull_values(f[c0:])
    return G


def delta_table(G: np.ndarray) -> np.ndarray:
    """D[c0, c] = G[c0, c+1] − G[c0, c]: the marginal bound gain of covering
    one more piece for a sample anchored at c0 and currently at c.  The last
    column (c = ℓ) is 0 — a fully covered sample cannot gain."""
    n = G.shape[0]
    D = np.zeros_like(G)
    D[:, : n - 1] = G[:, 1:] - G[:, : n - 1]
    D = np.nan_to_num(D, nan=0.0)
    return D


@functools.lru_cache(maxsize=64)
def bound_tables(model: LogisticModel, n_pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, D) = (:func:`envelope_table`, :func:`delta_table`), built once per
    (model, ℓ) and shared by every bound state, so both are read-only."""
    G = envelope_table(model, n_pieces)
    D = delta_table(G)
    G.setflags(write=False)
    D.setflags(write=False)
    return G, D


def tangent_gradient(x0: float, *, tol: float = 1e-9) -> float:
    """Algorithm 4: gradient w of the line through (x0, σ(x0)) tangent to σ.

    Valid for anchors below the inflection (x0 < 0); the binary search runs
    over w ∈ (0, 1/4), with the tangent abscissa t(w) = log((1+√(1−4w)) /
    (1−√(1−4w))) — the positive root of σ′(t) = w.
    """
    if x0 >= 0:
        # Past the inflection the sigmoid is concave: the envelope is σ itself.
        s = sigmoid(x0)
        return float(s * (1.0 - s))
    lo, hi = 0.0, 0.25
    while hi - lo > tol:
        w = (hi + lo) / 2.0
        root = np.sqrt(max(1.0 - 4.0 * w, 1e-300))
        t = np.log((1.0 + root) / max(1.0 - root, 1e-300))
        v = w * t + sigmoid(x0) - w * x0  # line value at t
        if v > sigmoid(t):
            hi = w  # line above the curve at its own tangent point: too steep
        else:
            lo = w
    return hi


def tangent_envelope(model: LogisticModel, c0: int, n_pieces: int) -> np.ndarray:
    """The Fig-2 tangent-line envelope evaluated at integer counts c0..ℓ.

    Returns values for c = 0..ℓ (NaN below c0).  Anchored on the sigmoid at
    x0 = β·c0 − α; for x ≤ tangent point the line, beyond it the sigmoid.
    """
    x0 = model.beta * c0 - model.alpha
    out = np.full(n_pieces + 1, np.nan)
    w = tangent_gradient(x0)
    root = np.sqrt(max(1.0 - 4.0 * w, 0.0))
    t = (
        np.log((1.0 + root) / max(1.0 - root, 1e-300))
        if x0 < 0
        else x0
    )
    for c in range(c0, n_pieces + 1):
        x = model.beta * c - model.alpha
        line = sigmoid(x0) + w * (x - x0)
        out[c] = line if x <= t else sigmoid(x)
    return out
