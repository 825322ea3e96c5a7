"""The benchmark's tracer (perfbench/tracing.py) replaces program functions
by name; these tests fail if one of those names disappears or if the bound
stops routing its lower value through the traced ``estimate_au``."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core import bab, baselines, bound
from repro.core.adoption import LogisticModel
from repro.experiments import harness

from .conftest import random_index

HOOKED = [
    (harness, "social_graph"),
    (harness, "edges_by_piece"),
    (harness, "sample_roots"),
    (harness, "build_index"),
    (bab, "compute_bound"),
    (bab, "compute_bound_progressive"),
    (bound, "estimate_au"),
    (baselines, "im_baseline"),
    (baselines, "tim_baseline"),
]


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_without_spark():
    before = [getattr(mod, name) for mod, name in HOOKED]
    with _tracing().Tracer(None).installed():
        during = [getattr(mod, name) for mod, name in HOOKED]
    assert all(a is not b for a, b in zip(before, during))
    assert [getattr(mod, name) for mod, name in HOOKED] == before


def test_traced_search_counts_one_estimate_au_per_bound_call():
    idx = random_index(seed=3)
    m = LogisticModel.from_ratio(0.5)
    tracer = _tracing().Tracer(None)
    with tracer.installed():
        res = bab.branch_and_bound(idx, m, 4, progressive=True, max_pops=20)
    assert tracer.acc["setup.bound_calls"] == res.bound_calls
    assert tracer.acc["setup.estimate_au_calls"] == res.bound_calls
