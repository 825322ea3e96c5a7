"""Reverse-reachable (RR) and multi-RR (MRR) set sampling in one Spark stage
(§V-A).

An RR set for root x under the IC model is the set of vertices that reach x
in a random live-edge graph.  The MRR extension samples θ roots uniformly
and, for each root, one RR set per viral piece over that piece's influence
graph (edge probability ``p(t_j, e)``).

The sampler is the RR-set construction of Borgs et al. (SODA'14) and IMM
(Tang et al., SIGMOD'15): a reverse BFS per sample.  Its input is the
per-piece relation that ``topics.edges_by_piece`` derives on the driver and
returns as a local relation.  Collecting it back with ``toPandas`` is not
free: it is one Spark job (4 tasks under ``local[4]``), the first of the two
that perfbench's ``rr_sets.jobs`` counts, and takes 0.06–0.2 s warm and
1.0–1.2 s cold (first in a fresh JVM) per ``prepare`` on perfbench's
inputs, 4 vCPUs (the CHANGES.md ``FOUND:`` line on ``edges_by_piece``).  The
DataFrame return stays because perfbench's tracer counts its rows
(``test_traced_prepare_marks_layers_and_counts_piece_edges``) until a
benchmark change lets it go.  The driver builds one reverse CSR over all
pieces, keyed by (piece, dst), and broadcasts it.  ``roots.mapInArrow``
then runs, once per Arrow batch of roots, one level-synchronous numpy BFS
over every (piece, root) pair and emits (piece, sample_id, vertex) rows;
the result is checkpointed locally, once.  The visited set is a sorted
array of (pair, vertex) keys, so nothing is sized by the vertex count n.
The BFS runs until the frontier is empty, so no RR set is truncated.

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
# Vertex ids fill the low 31 bits of a BFS key.
_VERTEX_MASK = (1 << 31) - 1

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


def reverse_csr(edges: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One reverse CSR over every piece from (piece, src, dst, p) rows.

    A node is keyed ``piece << 31 | dst``; ``keys`` holds the sorted keys of
    the nodes that have in-edges, then the sentinel ``int64.max``, so a
    ``searchsorted`` of any node lands in range.  The in-edges of node
    ``keys[i]`` are ``src[indptr[i]:indptr[i+1]]`` with probabilities
    ``p[indptr[i]:indptr[i+1]]``, in ``edges`` order; the sentinel has none.
    """
    src = edges["src"].to_numpy(np.int32)
    dst = edges["dst"].to_numpy(np.int64)
    if len(edges) and min(src.min(), dst.min()) < 0:
        raise ValueError("edge endpoints must be non-negative vertex ids")
    key = edges["piece"].to_numpy(np.int64) << 31 | dst
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    return (
        np.append(keys, np.iinfo(np.int64).max),
        np.append(starts, [len(key), len(key)]),
        src[order],
        edges["p"].to_numpy(np.float64)[order],
    )


def _reverse_bfs(csr, seed: int, n_pieces: int, sample_ids: np.ndarray, roots: np.ndarray):
    """The RR sets of every (piece, root) pair at once, one BFS level per
    iteration.  Row r is piece ``r // m`` and root ``r % m`` (m roots);
    returns the sorted visited keys ``r << 31 | v``."""
    keys, indptr, src, p = csr
    m = len(roots)
    row = np.arange(n_pieces * m, dtype=np.int64)
    visited = row << 31 | np.tile(roots.astype(np.int64), n_pieces)
    frontier = visited
    while frontier.size:
        row, vert = frontier >> 31, frontier & _VERTEX_MASK
        node = (row // m) << 31 | vert
        pos = np.searchsorted(keys, node)
        start = indptr[pos]
        deg = np.where(keys[pos] == node, indptr[pos + 1] - start, 0)
        # Positions of every in-edge of every frontier node, in CSR order.
        at = np.arange(deg.sum()) + np.repeat(start - (np.cumsum(deg) - deg), deg)
        row, u = np.repeat(row, deg), src[at]
        live = xxhash64_coin(seed, row // m, sample_ids[row % m], u, np.repeat(vert, deg)) < p[at]
        reached = np.unique(row[live] << 31 | u[live])
        i = np.searchsorted(visited, reached)
        new = visited[np.minimum(i, len(visited) - 1)] != reached
        frontier = reached[new]
        visited = np.insert(visited, i[new], frontier)
    return visited


def mrr_batches(csr, seed: int, n_pieces: int):
    """The ``mapInArrow`` function of :func:`sample_mrr_sets`: Arrow batches
    of (sample_id, vertex) roots in, (piece, sample_id, vertex) memberships
    out.  ``csr.value`` is :func:`reverse_csr`'s tuple (a Spark broadcast)."""
    schema = pa.schema([(f.name, pa.int32(), False) for f in MRR_SCHEMA.fields])

    def run(batches):
        for batch in batches:
            sample_ids = batch.column("sample_id").to_numpy().astype(np.int32)
            roots = batch.column("vertex").to_numpy().astype(np.int32)
            if not len(roots):
                continue
            if roots.min() < 0:
                raise ValueError("roots must be non-negative vertex ids")
            visited = _reverse_bfs(csr.value, seed, n_pieces, sample_ids, roots)
            row = visited >> 31
            cols = (row // len(roots), sample_ids[row % len(roots)], visited & _VERTEX_MASK)
            yield pa.RecordBatch.from_arrays([pa.array(c.astype(np.int32)) for c in cols], schema=schema)

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
    csr = spark.sparkContext.broadcast(reverse_csr(edges))
    out = (
        roots.select("sample_id", "vertex")
        .mapInArrow(mrr_batches(csr, seed, n_pieces), MRR_SCHEMA)
        .localCheckpoint(eager=True)
    )
    csr.unpersist()
    return out

