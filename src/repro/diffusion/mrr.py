"""Driver-side MRR index: the sampled sketch the search algorithms run on.

Spark produces the MRR membership table (piece, sample_id, vertex); the
index restricts it to the promoter pool V^p and pivots it into one CSR per
piece, plus one concatenated CSR over all pieces (:class:`SlotLayout`) so a
greedy step scores every (piece, promoter) pair in one vectorized pass
(`np.add.reduceat`).  Everything the branch-and-bound needs is in this
object; the raw DataFrame stays available for Spark-side AU evaluation and
oracle checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame


@dataclass
class PieceCoverage:
    """CSR coverage of one piece: promoters[i] covers samples
    ``samples[indptr[i]:indptr[i+1]]``."""

    promoters: np.ndarray  # (P,) int32, sorted promoter vertex ids
    indptr: np.ndarray  # (P+1,) int64
    samples: np.ndarray  # concatenated sample ids, int32

    def covered_by(self, v: int) -> np.ndarray:
        i = int(np.searchsorted(self.promoters, v))
        if i >= len(self.promoters) or self.promoters[i] != v:
            return np.empty(0, dtype=np.int32)
        return self.samples[self.indptr[i] : self.indptr[i + 1]]


@dataclass(frozen=True)
class SlotLayout:
    """Every piece's CSR concatenated in piece order: slot g = offsets[j] + i
    is promoter i of piece j, and covers ``samples[indptr[g]:indptr[g+1]]``.
    Every slot covers at least one sample, so one ``np.add.reduceat`` over
    ``indptr[:-1]`` sums every slot's segment."""

    offsets: np.ndarray  # (ℓ+1,) int64, first slot of each piece
    piece: np.ndarray  # (S,) int64, piece of each slot
    promoter: np.ndarray  # (S,) int32, vertex of each slot
    indptr: np.ndarray  # (S+1,) int64
    samples: np.ndarray  # (E,) int32, covered sample ids, slot-major
    cells: np.ndarray  # (E,) int64, piece·θ + sample: the entry's flat (ℓ, θ) cell
    covers: list[np.ndarray]  # per-slot views of ``samples``
    lookup: list[dict[int, int]]  # per piece: promoter vertex → slot


def _slot_layout(pieces: list[PieceCoverage], theta: int) -> SlotLayout:
    def cat(arrays: list[np.ndarray], dtype) -> np.ndarray:
        return np.concatenate([np.empty(0, dtype), *arrays]).astype(dtype, copy=False)

    sizes = np.array([len(c.promoters) for c in pieces], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    lens = cat([np.diff(c.indptr) for c in pieces], np.int64)
    if (lens == 0).any():
        raise ValueError("every promoter of a piece must cover at least one sample")
    indptr = np.concatenate(([0], np.cumsum(lens)))
    piece = np.repeat(np.arange(len(pieces), dtype=np.int64), sizes)
    samples = cat([c.samples for c in pieces], np.int32)
    return SlotLayout(
        offsets=offsets,
        piece=piece,
        promoter=cat([c.promoters for c in pieces], np.int32),
        indptr=indptr,
        samples=samples,
        cells=np.repeat(piece, lens) * theta + samples,
        covers=[samples[a:b] for a, b in zip(indptr[:-1], indptr[1:])],
        lookup=[
            dict(zip(c.promoters.tolist(), range(lo, lo + len(c.promoters))))
            for c, lo in zip(pieces, offsets.tolist())
        ],
    )


@dataclass
class MRRIndex:
    """The full sketch: θ samples × ℓ pieces, restricted to promoters V^p."""

    n_vertices: int
    theta: int
    n_pieces: int
    promoter_pool: np.ndarray  # (|V^p|,) int32 sorted
    pieces: list[PieceCoverage] = field(default_factory=list)
    slots: SlotLayout = field(init=False, repr=False)

    def __post_init__(self):
        self.slots = _slot_layout(self.pieces, self.theta)

    def slot(self, piece: int, v: int) -> int:
        """Slot of promoter ``v`` in ``piece``, or −1 if ``v`` is not one."""
        return self.slots.lookup[piece].get(v, -1)

    def covered_by(self, piece: int, v: int) -> np.ndarray:
        g = self.slot(piece, v)
        return self.slots.covers[g] if g >= 0 else np.empty(0, dtype=np.int32)

    def subset(self, piece_ids: list[int]) -> "MRRIndex":
        """A view-like index over a subset of pieces (e.g. dropping the
        extra topic-agnostic 'piece' sampled for the IM baseline)."""
        return MRRIndex(
            n_vertices=self.n_vertices,
            theta=self.theta,
            n_pieces=len(piece_ids),
            promoter_pool=self.promoter_pool,
            pieces=[self.pieces[j] for j in piece_ids],
        )

    def plan_counts(self, plan: dict[int, set[int] | list[int]]) -> np.ndarray:
        """Per-sample count of distinct pieces whose seed set reaches the root."""
        counts = np.zeros(self.theta, dtype=np.int64)
        for j, seeds in plan.items():
            if not seeds:
                continue
            covered = np.zeros(self.theta, dtype=bool)
            for v in seeds:
                covered[self.covered_by(j, int(v))] = True
            counts += covered
        return counts


def build_index(
    mrr_df: DataFrame,
    *,
    n_vertices: int,
    theta: int,
    n_pieces: int,
    promoter_pool: np.ndarray,
) -> MRRIndex:
    """Collect the Spark MRR table and pivot it into an :class:`MRRIndex`.

    One ``toPandas`` brings the (piece, sample_id, vertex) rows to the driver
    (a sketch of θ·ℓ RR sets is tens of thousands of rows); numpy keeps the
    rows whose vertex is in V^p and sorts them by (piece, vertex, sample_id)
    into each piece's CSR.
    """
    pdf = mrr_df.select("piece", "sample_id", "vertex").toPandas()
    return _pivot(
        pdf["piece"].to_numpy(),
        pdf["sample_id"].to_numpy(),
        pdf["vertex"].to_numpy(),
        n_vertices=n_vertices,
        theta=theta,
        n_pieces=n_pieces,
        pool=promoter_pool,
    )


def index_from_sets(
    rr_sets: dict[int, list[set[int]]],
    *,
    n_vertices: int,
    promoter_pool: np.ndarray | None = None,
) -> MRRIndex:
    """Build an index directly from explicit RR sets (tests, paper examples).

    ``rr_sets[piece][i]`` is the vertex set of R_i^piece; every piece must
    provide θ sets.  Defaults the promoter pool to all vertices.
    """
    n_pieces = len(rr_sets)
    theta = len(rr_sets[0])
    pool = np.arange(n_vertices) if promoter_pool is None else promoter_pool
    rows = []
    for j in range(n_pieces):
        assert len(rr_sets[j]) == theta, "all pieces must have θ RR sets"
        rows += [(j, i, int(v)) for i, s in enumerate(rr_sets[j]) for v in s]
    piece, sample_id, vertex = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    return _pivot(
        piece,
        sample_id,
        vertex,
        n_vertices=n_vertices,
        theta=theta,
        n_pieces=n_pieces,
        pool=pool,
    )


def _pivot(
    piece: np.ndarray,
    sample_id: np.ndarray,
    vertex: np.ndarray,
    *,
    n_vertices: int,
    theta: int,
    n_pieces: int,
    pool: np.ndarray,
) -> MRRIndex:
    """Membership rows → per-piece CSR over the promoters in ``pool``."""
    pool = np.sort(np.asarray(pool, dtype=np.int32))
    rows = np.flatnonzero(np.isin(vertex, pool))
    rows = rows[np.lexsort((sample_id[rows], vertex[rows], piece[rows]))]
    piece, sample_id, vertex = piece[rows], sample_id[rows], vertex[rows]
    bounds = np.searchsorted(piece, np.arange(n_pieces + 1))
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        promoters, counts = np.unique(vertex[lo:hi], return_counts=True)
        indptr = np.zeros(len(promoters) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        pieces.append(
            PieceCoverage(
                promoters=promoters.astype(np.int32),
                indptr=indptr,
                samples=sample_id[lo:hi].astype(np.int32),
            )
        )
    return MRRIndex(
        n_vertices=n_vertices,
        theta=theta,
        n_pieces=n_pieces,
        promoter_pool=pool,
        pieces=pieces,
    )
