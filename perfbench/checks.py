"""Output checks for the benchmark, computed apart from the program.

Each check raises :class:`CheckFailed` with a message naming what is wrong.
The inputs are plain pandas / numpy values (the collected membership table,
the program's index arrays, plans as ``{piece: set(vertices)}``), so the
checks can be fed corrupted inputs in ``test_checks.py`` without Spark.
"""
from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd

# Two estimators of one spread may differ by this many standard errors of
# their difference before the forward-simulation check fails: a false alarm
# has probability about 7e-6 per comparison.
FORWARD_Z = 4.5
# Two evaluations of one plan's adoption utility agree to float rounding.
AU_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _fail(name: str, msg: str) -> None:
    raise CheckFailed(f"{name}: {msg}")


# -- sketch ----------------------------------------------------------------


def check_rows(memb: pd.DataFrame, *, n_vertices: int, theta: int, n_graphs: int) -> None:
    """Every id is in range and no (piece, sample_id, vertex) row repeats."""
    for col, hi in (("piece", n_graphs), ("sample_id", theta), ("vertex", n_vertices)):
        v = memb[col].to_numpy()
        bad = (v < 0) | (v >= hi)
        if bad.any():
            _fail("rows", f"{int(bad.sum())} {col} values outside [0, {hi})")
    dup = memb.duplicated(["piece", "sample_id", "vertex"])
    if dup.any():
        _fail("rows", f"{int(dup.sum())} duplicated (piece, sample_id, vertex) rows")


def check_roots(memb: pd.DataFrame, roots: np.ndarray, *, n_graphs: int) -> None:
    """Each of the θ·n_graphs RR sets contains its own root."""
    theta = len(roots)
    want = pd.DataFrame(
        {
            "piece": np.repeat(np.arange(n_graphs), theta),
            "sample_id": np.tile(np.arange(theta), n_graphs),
            "vertex": np.tile(np.asarray(roots), n_graphs),
        }
    )
    got = want.merge(
        memb[["piece", "sample_id", "vertex"]].drop_duplicates(),
        how="left",
        indicator=True,
    )
    missing = int((got["_merge"] == "left_only").sum())
    if missing:
        _fail("roots", f"{missing} of {len(want)} RR sets lack their root")


def pivot(memb: pd.DataFrame, pool: np.ndarray, piece: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(promoters, indptr, samples) of one piece restricted to V^p, by a
    pandas sort and group-by of the membership table."""
    sub = memb[(memb["piece"] == piece) & memb["vertex"].isin(pool)]
    sub = sub.sort_values(["vertex", "sample_id"])
    sizes = sub.groupby("vertex", sort=True).size()
    indptr = np.concatenate([[0], np.cumsum(sizes.to_numpy())])
    return sizes.index.to_numpy(), indptr, sub["sample_id"].to_numpy()


def check_index(coverages: list, memb: pd.DataFrame, pool: np.ndarray) -> None:
    """Piece j's CSR coverage (``coverages[j]``) equals the pivot of the
    membership table's piece-j rows restricted to the promoter pool."""
    for j, cov in enumerate(coverages):
        promoters, indptr, samples = pivot(memb, pool, j)
        for name, got, want in (
            ("promoters", cov.promoters, promoters),
            ("indptr", cov.indptr, indptr),
            ("samples", cov.samples, samples),
        ):
            if not np.array_equal(np.asarray(got, dtype=np.int64), want.astype(np.int64)):
                _fail("index", f"piece {j} {name} differ from the membership pivot")


def check_same(name: str, values: list) -> None:
    """Repeats of a deterministic computation give equal results."""
    for i, v in enumerate(values[1:], start=1):
        if v != values[0]:
            _fail(name, f"repeat {i} gave {v!r}, repeat 0 gave {values[0]!r}")


def rr_hits(memb: pd.DataFrame, seeds, piece: int) -> int:
    """#{i : R_i ∩ S ≠ ∅} over the RR sets of one piece."""
    hit = memb[(memb["piece"] == piece) & memb["vertex"].isin(list(seeds))]
    return int(hit["sample_id"].nunique())


def check_forward(hits: int, trials: np.ndarray, *, n_vertices: int, theta: int, label: str) -> None:
    """The RR estimate n/θ·hits of a spread σ(S) agrees with forward
    Monte-Carlo trials of the same seed set within FORWARD_Z standard errors
    of the difference.  Under agreement, hits is binomial(θ, σ/n); its
    standard error uses the pooled estimate of σ, since at a few dozen hits
    the RR estimate's own proportion understates it."""
    trials = np.asarray(trials, dtype=np.float64)
    est = n_vertices * hits / theta
    mc = float(trials.mean())
    q = min((est + mc) / (2 * n_vertices), 1.0)
    se_rr = n_vertices * math.sqrt(q * (1.0 - q) / theta)
    se_mc = float(trials.std(ddof=1) / math.sqrt(len(trials)))
    tol = FORWARD_Z * math.hypot(se_rr, se_mc)
    if abs(est - mc) > tol:
        _fail("forward", f"{label}: RR {est:.3f} vs forward {mc:.3f} (tolerance {tol:.3f})")


# -- search ----------------------------------------------------------------


def check_plan(plan: dict, *, k: int, pool: np.ndarray, n_pieces: int, label: str) -> None:
    """At most k assignments, each a promoter of V^p on a real piece."""
    size = sum(len(s) for s in plan.values())
    if size > k:
        _fail("plan", f"{label}: {size} assignments > k={k}")
    pool_set = set(int(v) for v in pool)
    for j, seeds in plan.items():
        if not 0 <= int(j) < n_pieces:
            _fail("plan", f"{label}: piece {j} outside [0, {n_pieces})")
        outside = sorted(int(v) for v in seeds if int(v) not in pool_set)
        if outside:
            _fail("plan", f"{label}: non-promoters {outside[:5]} on piece {j}")


def au_duckdb(memb: pd.DataFrame, plans: list[dict], *, alpha: float, beta: float, n_vertices: int, theta: int) -> list[float]:
    """Eqn 6 for each plan, by DuckDB SQL over the raw membership table:
    n/θ · Σ over samples of 1/(1+exp(α − β·c)), c = distinct plan pieces
    whose seeds lie in the sample's RR set of that piece."""
    pairs = pd.DataFrame(
        [(i, int(j), int(v)) for i, plan in enumerate(plans) for j, s in plan.items() for v in s],
        columns=["plan_id", "piece", "vertex"],
    ).astype("int64")
    con = duckdb.connect()
    try:
        con.register("memb", memb[["piece", "sample_id", "vertex"]])
        con.register("pairs", pairs)
        got = con.execute(
            """
            WITH hits AS (
                SELECT DISTINCT p.plan_id, m.sample_id, m.piece
                FROM memb m JOIN pairs p ON m.piece = p.piece AND m.vertex = p.vertex
            ), counts AS (
                SELECT plan_id, sample_id, count(*) AS c FROM hits GROUP BY plan_id, sample_id
            )
            SELECT plan_id, sum(1.0 / (1.0 + exp(? - ? * c))) AS s
            FROM counts GROUP BY plan_id
            """,
            [alpha, beta],
        ).fetchall()
    finally:
        con.close()
    sums = dict(got)
    return [n_vertices / theta * float(sums.get(i, 0.0)) for i in range(len(plans))]


def check_utility(utility: float, au: float, *, label: str) -> None:
    """The reported utility equals the plan's independently computed AU."""
    if abs(utility - au) > AU_REL_TOL * max(1.0, abs(au)):
        _fail("utility", f"{label}: reported {utility!r}, recomputed {au!r}")


def check_bound(utility: float, upper: float, gap: float, *, label: str) -> None:
    """utility ≤ upper_bound and 0 ≤ gap ≤ 1."""
    if not utility <= upper * (1.0 + AU_REL_TOL):
        _fail("bound", f"{label}: utility {utility!r} > upper bound {upper!r}")
    if not 0.0 <= gap <= 1.0:
        _fail("bound", f"{label}: gap {gap!r} outside [0, 1]")


def check_monotone(utilities: list[float], *, label: str) -> None:
    """Utilities over increasing k never decrease."""
    for a, b in zip(utilities, utilities[1:]):
        if b < a - AU_REL_TOL * max(1.0, abs(a)):
            _fail("monotone", f"{label}: utility fell from {a!r} to {b!r} as k grew")


def check_nested(seed_sets: list[set], *, label: str) -> None:
    """Greedy seed sets over increasing k are nested."""
    for small, big in zip(seed_sets, seed_sets[1:]):
        if not set(small) <= set(big):
            _fail("nested", f"{label}: {sorted(set(small) - set(big))[:5]} dropped as k grew")
