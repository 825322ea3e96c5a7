"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public layer functions with timing wrappers for
the duration of a traced run and restores them afterwards; the program's
files are not touched.  Spark work is attributed to a layer by a named job
group, set when the layer's first function is entered, and counted through
``sparkContext.statusTracker()`` once the run is over.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from repro.core import bab, baselines, bound
from repro.experiments import harness

GROUP_PREFIX = "perfbench."


class Tracer:
    def __init__(self, sc):
        self.sc = sc
        self.acc: dict[str, float] = defaultdict(float)
        self.scope = "setup"  # prefix for bound-call counters
        self.marks: list[tuple[str, float]] = []  # (layer, entry time) in prepare
        self.piece_edges_df = None

    # -- layer phases inside prepare ----------------------------------------
    def enter(self, layer: str) -> None:
        """Start ``layer``: the previous layer ends here, and Spark jobs from
        now on belong to ``layer``'s job group."""
        self.marks.append((layer, time.perf_counter()))
        self.sc.setJobGroup(GROUP_PREFIX + layer, layer)

    def phase_seconds(self) -> dict[str, float]:
        """Wall seconds per layer between consecutive ``enter`` marks; the
        last mark ("done") closes the last layer."""
        return {
            a: tb - ta for (a, ta), (_, tb) in zip(self.marks, self.marks[1:])
        }

    def spark_counts(self, layer: str) -> tuple[int, int, int]:
        """(jobs, stages run, tasks run) under ``layer``'s job group."""
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(GROUP_PREFIX + layer)
        stage_ids = set()
        for j in jobs:
            info = st.getJobInfo(j)
            if info is not None:
                stage_ids.update(info.stageIds)
        stages = tasks = 0
        for s in stage_ids:
            info = st.getStageInfo(s)
            if info is not None and info.numCompletedTasks > 0:
                stages += 1
                tasks += info.numCompletedTasks
        return len(jobs), stages, tasks

    # -- wrappers ------------------------------------------------------------
    def _entering(self, layer, fn):
        def wrapped(*a, **kw):
            self.enter(layer)
            return fn(*a, **kw)

        return wrapped

    def _keep_piece_edges(self, fn):
        def wrapped(*a, **kw):
            self.piece_edges_df = fn(*a, **kw)
            return self.piece_edges_df

        return wrapped

    def _timed(self, key, fn):
        def wrapped(*a, **kw):
            t = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                self.acc[f"{self.scope}.{key}_s"] += time.perf_counter() - t
                self.acc[f"{self.scope}.{key}_calls"] += 1

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions, restoring the originals on exit."""
        patches = [
            (harness, "social_graph", self._entering("graphs", harness.social_graph)),
            (harness, "edges_by_piece", self._keep_piece_edges(harness.edges_by_piece)),
            (harness, "sample_roots", self._entering("rr_sets", harness.sample_roots)),
            (harness, "build_index", self._entering("mrr", harness.build_index)),
            (bab, "compute_bound", self._timed("bound", bab.compute_bound)),
            (
                bab,
                "compute_bound_progressive",
                self._timed("bound", bab.compute_bound_progressive),
            ),
            (bound, "estimate_au", self._timed("estimate_au", bound.estimate_au)),
            (baselines, "im_baseline", self._timed("im", baselines.im_baseline)),
            (baselines, "tim_baseline", self._timed("tim", baselines.tim_baseline)),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
