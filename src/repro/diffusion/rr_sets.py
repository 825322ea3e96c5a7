"""Reverse-reachable (RR) and multi-RR (MRR) set sampling in one Spark stage
(§V-A).

An RR set for root x under the IC model is the set of vertices that reach x
in a random live-edge graph.  The MRR extension samples θ roots uniformly
and, for each root, one RR set per viral piece over that piece's influence
graph (edge probability ``p(t_j, e)``).

The sampler is the RR-set construction of Borgs et al. (SODA'14) and IMM
(Tang et al., SIGMOD'15): a reverse BFS per sample.  Its input is the
per-piece relation that ``topics.edges_by_piece`` derives on the driver (a
local relation, so collecting it moves no data off the driver).  The driver
builds one reverse CSR per piece (in-edges grouped by ``dst``) and
broadcasts them.
``roots.mapInArrow`` then runs, in each task, a level-synchronous numpy BFS
for every piece over the task's slice of roots and emits (piece, sample_id,
vertex) batches; the result is checkpointed locally, once.  The BFS runs
until the frontier is empty (at most n levels), so no RR set is truncated.

Edge e = (src, dst) is live in sample i of piece j iff
``xxhash64(seed, j, i, src, dst) mod 2^24 / 2^24 < p(t_j, e)``, where
``xxhash64`` is a numpy port of Spark SQL's (seed 42, ``XXH64.hashInt``
chained over the five int32 keys).  Every sample therefore sees one fixed
live-edge world, a pure function of its keys, and examining an edge once or
many times gives the same answer.
"""
from __future__ import annotations

import sys

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark import cloudpickle
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

# Spark's Python workers need not be able to import this package (a driver
# may put it on sys.path by hand), so the mapInArrow function and the kernels
# it calls are pickled by value.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

_COIN_MOD = 1 << 24
# Spark's XXH64 primes and F.xxhash64's default seed.
_PRIME1 = np.uint64(0x9E3779B185EBCA87)
_PRIME2 = np.uint64(0xC2B2AE3D27D4EB4F)
_PRIME3 = np.uint64(0x165667B19E3779F9)
_PRIME5 = np.uint64(0x27D4EB2F165667C5)
_XXHASH64_SEED = 42
# Upper bound on one BFS chunk's visited bitmap (samples × vertices).
_BFS_CELLS = 1 << 22

ROOTS_SCHEMA = T.StructType(
    [
        T.StructField("sample_id", T.IntegerType(), False),
        T.StructField("vertex", T.IntegerType(), False),
    ]
)

MRR_SCHEMA = T.StructType(
    [
        T.StructField("piece", T.IntegerType(), False),
        T.StructField("sample_id", T.IntegerType(), False),
        T.StructField("vertex", T.IntegerType(), False),
    ]
)


def sample_roots(spark: SparkSession, *, n: int, theta: int, seed: int) -> DataFrame:
    """θ root vertices drawn uniformly from V, deterministic in ``seed``."""
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "sample_id": np.arange(theta, dtype=np.int32),
            "vertex": g.integers(0, n, size=theta).astype(np.int32),
        }
    )
    return spark.createDataFrame(pdf, schema=ROOTS_SCHEMA)


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _hash_int(x, h: np.ndarray) -> np.ndarray:
    """Spark's ``XXH64.hashInt(x, h)`` elementwise; ``x`` holds int32 values."""
    x = np.atleast_1d(np.asarray(x, dtype=np.int32)).view(np.uint32).astype(np.uint64)
    h = (h + _PRIME5 + np.uint64(4)) ^ (x * _PRIME1)
    h = _rotl(h, 23) * _PRIME2 + _PRIME3
    h ^= h >> np.uint64(33)
    h *= _PRIME2
    h ^= h >> np.uint64(29)
    h *= _PRIME3
    h ^= h >> np.uint64(32)
    return h


def xxhash64_coin(*keys) -> np.ndarray:
    """Uniform [0, 1) coin from int32 keys (scalars or arrays, broadcast):
    ``pmod(xxhash64(*keys), 2^24) / 2^24`` exactly as Spark SQL computes it."""
    h = np.full(1, _XXHASH64_SEED, dtype=np.uint64)
    for k in keys:
        h = _hash_int(k, h)
    return (h & np.uint64(_COIN_MOD - 1)).astype(np.float64) / _COIN_MOD


def reverse_csrs(
    edges: pd.DataFrame, n_pieces: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One reverse CSR per piece from (piece, src, dst, p) rows: the in-edges
    of v in piece j are ``src[indptr[v]:indptr[v+1]]`` with probabilities
    ``p[indptr[v]:indptr[v+1]]``.  Every ``indptr`` spans the same vertex
    range, 0 .. the largest id in ``edges``."""
    piece = edges["piece"].to_numpy()
    src = edges["src"].to_numpy(np.int32)
    dst = edges["dst"].to_numpy(np.int64)
    p = edges["p"].to_numpy(np.float64)
    n = int(max(src.max(), dst.max())) + 1 if len(edges) else 0
    csrs = []
    for j in range(n_pieces):
        mine = piece == j
        order = np.argsort(dst[mine], kind="stable")
        indptr = np.searchsorted(dst[mine][order], np.arange(n + 1))
        csrs.append((indptr, src[mine][order], p[mine][order]))
    return csrs


def _reverse_bfs(
    indptr: np.ndarray,
    src: np.ndarray,
    p: np.ndarray,
    *,
    seed: int,
    piece: int,
    sample_ids: np.ndarray,
    roots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The RR sets of ``roots[i]`` in sample ``sample_ids[i]`` for all i at
    once, one BFS level per iteration; returns their (sample_id, vertex)
    memberships.  ``indptr`` must cover every root."""
    n = len(indptr) - 1
    visited = np.zeros(len(roots) * n, dtype=bool)
    row = np.arange(len(roots), dtype=np.int64)  # index into roots/sample_ids
    vert = roots.astype(np.int64)
    visited[row * n + vert] = True
    rows, verts = [row], [vert]
    while row.size:
        start = indptr[vert]
        deg = indptr[vert + 1] - start
        total = int(deg.sum())
        # Positions of every in-edge of every frontier vertex, in CSR order.
        pos = np.arange(total) + np.repeat(start - (np.cumsum(deg) - deg), deg)
        row = np.repeat(row, deg)
        u = src[pos]
        live = xxhash64_coin(seed, piece, sample_ids[row], u, np.repeat(vert, deg)) < p[pos]
        key = np.unique(row[live] * n + u[live])
        key = key[~visited[key]]
        visited[key] = True
        row, vert = np.divmod(key, n)
        rows.append(row)
        verts.append(vert)
    row = np.concatenate(rows)
    return sample_ids[row], np.concatenate(verts).astype(np.int32)


def mrr_batches(csrs, seed: int):
    """The ``mapInArrow`` function of :func:`sample_mrr_sets`: Arrow batches
    of (sample_id, vertex) roots in, (piece, sample_id, vertex) memberships
    out.  ``csrs.value`` is :func:`reverse_csrs`'s list (a Spark broadcast)."""
    schema = pa.schema([(f.name, pa.int32(), False) for f in MRR_SCHEMA.fields])

    def run(batches):
        pieces = csrs.value
        for batch in batches:
            sample_ids = batch.column("sample_id").to_numpy().astype(np.int32)
            roots = batch.column("vertex").to_numpy().astype(np.int32)
            if not len(roots):
                continue
            n = max(len(pieces[0][0]) - 1, int(roots.max()) + 1)
            step = max(1, _BFS_CELLS // n)
            for j, (indptr, src, p) in enumerate(pieces):
                indptr = np.pad(indptr, (0, n + 1 - len(indptr)), mode="edge")
                for lo in range(0, len(roots), step):
                    ids, verts = _reverse_bfs(
                        indptr,
                        src,
                        p,
                        seed=seed,
                        piece=j,
                        sample_ids=sample_ids[lo : lo + step],
                        roots=roots[lo : lo + step],
                    )
                    yield pa.RecordBatch.from_arrays(
                        [pa.array(np.full(len(ids), j, dtype=np.int32)), pa.array(ids), pa.array(verts)],
                        schema=schema,
                    )

    return run


def sample_mrr_sets(
    spark: SparkSession,
    edges_by_piece: DataFrame,
    roots: DataFrame,
    n_pieces: int,
    *,
    seed: int = 0,
) -> DataFrame:
    """All (piece, sample_id, vertex) memberships: vertex ∈ R_i^j.

    ``edges_by_piece`` is (piece, src, dst, p), as ``topics.edges_by_piece``
    builds it; ``roots`` is (sample_id, vertex).  Roots are shared across
    pieces, matching §V-A ("for each selected user v_i, generate a
    multi-set of ℓ RR sets").
    The returned DataFrame is checkpointed locally, so it is safe to reuse
    across many downstream jobs without resampling.
    """
    seed = int(seed)
    if not np.iinfo(np.int32).min <= seed <= np.iinfo(np.int32).max:
        raise ValueError(f"seed {seed} is outside the int32 range the coins hash")
    edges = edges_by_piece.select("piece", "src", "dst", "p").toPandas()
    csrs = spark.sparkContext.broadcast(reverse_csrs(edges, n_pieces))
    out = (
        roots.select("sample_id", "vertex")
        .mapInArrow(mrr_batches(csrs, seed), MRR_SCHEMA)
        .localCheckpoint(eager=True)
    )
    csrs.unpersist()
    return out

