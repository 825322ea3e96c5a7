"""Tests for the τ upper-bound envelope (§V-B, Fig 2, Algorithm 4)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adoption import LogisticModel
from repro.core.envelope import (
    bound_tables,
    delta_table,
    envelope_table,
    sigmoid,
    tangent_envelope,
    tangent_gradient,
    upper_hull_values,
)

RATIOS = [0.3, 0.5, 0.7, 0.9]
ELLS = [1, 2, 3, 4, 5]


def models():
    return [LogisticModel.from_ratio(r) for r in RATIOS]


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("l", ELLS)
def test_envelope_majorizes_adoption(ratio, l):
    m = LogisticModel.from_ratio(ratio)
    f = m.adoption_values(l)
    G = envelope_table(m, l)
    for c0 in range(l + 1):
        assert np.all(G[c0, c0:] >= f[c0:] - 1e-12)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("l", ELLS)
def test_envelope_anchored(ratio, l):
    """G[c0, c0] = f(c0): the bound is tight at the partial plan itself."""
    m = LogisticModel.from_ratio(ratio)
    f = m.adoption_values(l)
    G = envelope_table(m, l)
    for c0 in range(l + 1):
        assert np.isclose(G[c0, c0], f[c0])


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("l", ELLS)
def test_envelope_concave_and_monotone(ratio, l):
    m = LogisticModel.from_ratio(ratio)
    G = envelope_table(m, l)
    for c0 in range(l + 1):
        row = G[c0, c0:]
        inc = np.diff(row)
        assert np.all(inc >= -1e-12), "monotone"
        assert np.all(np.diff(inc) <= 1e-9), "concave (submodularity driver)"


@pytest.mark.parametrize("ratio", RATIOS)
def test_refinement_tightens_bound(ratio):
    """Fig 2: advancing the anchor can only lower the bound at any count."""
    m = LogisticModel.from_ratio(ratio)
    l = 5
    G = envelope_table(m, l)
    for c0 in range(l):
        assert np.all(G[c0 + 1, c0 + 1 :] <= G[c0, c0 + 1 :] + 1e-12)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("l", [3, 5])
def test_discrete_hull_dominated_by_tangent(ratio, l):
    """Our discrete hull is at least as tight as the paper's tangent line."""
    m = LogisticModel.from_ratio(ratio)
    G = envelope_table(m, l)
    for c0 in range(l + 1):
        te = tangent_envelope(m, c0, l)
        assert np.all(G[c0, c0:] <= te[c0:] + 1e-9)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("l", [3, 5])
def test_tangent_envelope_majorizes_sigmoid(ratio, l):
    m = LogisticModel.from_ratio(ratio)
    for c0 in range(l + 1):
        te = tangent_envelope(m, c0, l)
        for c in range(c0, l + 1):
            assert te[c] >= sigmoid(m.beta * c - m.alpha) - 1e-9


@pytest.mark.parametrize("x0", [-5.0, -3.0, -1.0, -0.5, -0.1])
def test_tangent_gradient_is_tangent(x0):
    """Algorithm 4: the returned gradient's line touches the sigmoid."""
    w = tangent_gradient(x0)
    assert 0 < w <= 0.25
    root = np.sqrt(max(1 - 4 * w, 0.0))
    t = np.log((1 + root) / max(1 - root, 1e-300))
    line_at_t = sigmoid(x0) + w * (t - x0)
    assert abs(line_at_t - sigmoid(t)) < 1e-4
    # Line majorizes the sigmoid on a grid beyond the anchor.
    xs = np.linspace(x0, t, 50)
    assert np.all(sigmoid(x0) + w * (xs - x0) >= sigmoid(xs) - 1e-6)


def test_tangent_gradient_past_inflection():
    """Anchors at/after the inflection return the local derivative (σ concave)."""
    w = tangent_gradient(0.5)
    s = sigmoid(0.5)
    assert np.isclose(w, s * (1 - s))


def test_upper_hull_identity_on_concave_points():
    ys = np.array([0.0, 0.5, 0.8, 0.9])
    assert np.allclose(upper_hull_values(ys), ys)


def test_upper_hull_on_convex_points():
    ys = np.array([0.0, 0.1, 0.4, 1.0])  # convex: hull is the chord
    hull = upper_hull_values(ys)
    assert np.allclose(hull, [0.0, 1 / 3, 2 / 3, 1.0])


def test_upper_hull_short_inputs():
    assert np.allclose(upper_hull_values(np.array([0.3])), [0.3])
    assert np.allclose(upper_hull_values(np.array([0.3, 0.9])), [0.3, 0.9])


@settings(max_examples=50, deadline=None)
@given(
    ys=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8)
)
def test_upper_hull_properties_random(ys):
    ys = np.asarray(ys)
    hull = upper_hull_values(ys)
    assert np.all(hull >= ys - 1e-9), "majorant"
    inc = np.diff(hull)
    assert np.all(np.diff(inc) <= 1e-9), "concave"
    assert np.isclose(hull[0], ys[0]) and np.isclose(hull[-1], ys[-1]), "touches ends"


@pytest.mark.parametrize("ratio", RATIOS)
def test_delta_table(ratio):
    m = LogisticModel.from_ratio(ratio)
    G = envelope_table(m, 4)
    D = delta_table(G)
    for c0 in range(5):
        for c in range(c0, 4):
            assert np.isclose(D[c0, c], G[c0, c + 1] - G[c0, c])
        assert D[c0, 4] == 0.0  # fully covered sample cannot gain


def test_hard_ratio_needs_hull():
    """At β/α=0.3 the adoption curve is convex low down: the hull must rise
    above it (this is the case where plain logistic is farthest from
    submodular, motivating the whole τ construction)."""
    m = LogisticModel.from_ratio(0.3)
    f = m.adoption_values(5)
    G = envelope_table(m, 5)
    assert np.any(G[0, 1:] > f[1:] + 1e-9)


def test_bound_tables_cached_and_read_only():
    """One (G, D) per (model, ℓ), shared by every bound state, so a caller
    cannot write into it."""
    m = LogisticModel.from_ratio(0.3)
    G, D = bound_tables(m, 4)
    assert bound_tables(LogisticModel.from_ratio(0.3), 4)[0] is G
    assert bound_tables(m, 3)[0] is not G
    assert np.array_equal(G, envelope_table(m, 4), equal_nan=True)
    assert np.array_equal(D, delta_table(envelope_table(m, 4)))
    for table in (G, D):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
