"""Finite-difference PDE machinery tests (cheap configurations)."""

import dataclasses

import numpy as np
import pytest

from gapdet import pdecheck
from gapdet.gap import airy_gap_probability


def _synthetic_grid(fn, center=(1.0, 0.2, 0.1), step=0.05, radius=2):
    offs = step * np.arange(-radius, radius + 1)
    vals = np.empty((2 * radius + 1,) * 3)
    for it, dt in enumerate(offs):
        for ie, de in enumerate(offs):
            for iw, dw in enumerate(offs):
                vals[it, ie, iw] = fn(center[0] + dt, center[1] + de,
                                      center[2] + dw)
    return pdecheck.LogDetGrid(center=center, step=step, radius=radius,
                               values=vals)


def test_constant_grid_zero_residual():
    g = _synthetic_grid(lambda t, e, w: -0.7)
    r = pdecheck.avm_residual(g)
    assert r["lhs"] == 0 and r["rhs"] == 0 and r["residual"] == 0


def test_linear_grid_zero_residual():
    g = _synthetic_grid(lambda t, e, w: e)
    r = pdecheck.avm_residual(g)
    assert abs(r["lhs"]) < 1e-12 and abs(r["rhs"]) < 1e-12


def test_stencils_exact_on_cubic_polynomials():
    g = _synthetic_grid(lambda t, e, w: t ** 3 + e ** 3 * w + t * e * w)
    t0, e0, w0 = g.center
    assert pdecheck.derivative(g, (3, 0, 0)) == pytest.approx(6.0)
    assert pdecheck.derivative(g, (0, 3, 0)) == pytest.approx(6.0 * w0)
    assert pdecheck.derivative(g, (0, 2, 1)) == pytest.approx(6.0 * e0)
    assert pdecheck.derivative(g, (1, 1, 1)) == pytest.approx(1.0)


def test_mixed_partial_orderings_commute():
    g = _synthetic_grid(lambda t, e, w: np.sin(t) * np.exp(0.3 * e - 0.2 * w))
    # d3/(dtau dE dW) via the tensor stencil equals the dW(dE(dtau)) chain
    direct = pdecheck.derivative(g, (1, 1, 1))
    h = g.step
    c = g.radius
    v = g.values
    chain = ((v[c + 1, c + 1, c + 1] - v[c - 1, c + 1, c + 1]
              - v[c + 1, c - 1, c + 1] + v[c - 1, c - 1, c + 1])
             - (v[c + 1, c + 1, c - 1] - v[c - 1, c + 1, c - 1]
                - v[c + 1, c - 1, c - 1] + v[c - 1, c - 1, c - 1])) \
        / (8.0 * h ** 3)
    assert direct == pytest.approx(chain, rel=1e-12)


def test_two_time_logdet_matches_driver():
    direct = airy_gap_probability([0.0, 1.0], [[0.3], [0.1]],
                                  m=60).log_value.real
    via = pdecheck.two_time_logdet(1.0, 0.2, 0.1, m=60)
    assert via == pytest.approx(direct, rel=1e-12)


def test_grid_center_matches_two_time_logdet():
    g = pdecheck.build_grid((1.0, 0.2, 0.1), radius=2, m=60)
    assert g.values.shape == (5, 5, 5)
    assert g.values[2, 2, 2] == pytest.approx(
        pdecheck.two_time_logdet(1.0, 0.2, 0.1, m=60), rel=1e-12)


def test_grid_values_are_log_probabilities_and_w_symmetric():
    g = pdecheck.build_grid((1.0, 0.0, 0.0), step=0.05, radius=2, m=110)
    done = ~np.isnan(g.values)
    assert np.all(g.values[done] <= 1e-12)
    # exchanging the two intervals reflects W (time reversal of the
    # stationary two-time process); needs resolved determinants
    flipped = g.values[:, :, ::-1]
    assert np.array_equal(done, ~np.isnan(flipped))
    assert np.allclose(g.values[done], flipped[done], atol=1e-7)


def _fake_logdet(calls):
    def fake(tau, e, w, m=120):
        calls.append((tau, e, w, m))
        return -0.1 * (tau + e * e + 2.0 * w * w)
    return fake


def _read_mask(radius):
    """Entries whose perturbation changes ``avm_residual``."""
    shape = (2 * radius + 1,) * 3
    base = pdecheck.LogDetGrid(
        center=(1.0, 0.2, 0.1), step=0.05, radius=radius,
        values=np.random.default_rng(0).standard_normal(shape))
    ref = pdecheck.avm_residual(base)
    read = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(shape):
        vals = base.values.copy()
        vals[idx] += 1.0
        out = pdecheck.avm_residual(dataclasses.replace(base, values=vals))
        read[idx] = out["lhs"] != ref["lhs"] or out["rhs"] != ref["rhs"]
    return read


@pytest.mark.parametrize("radius", [2, 3])
def test_build_grid_evaluates_exactly_the_stencil_points(monkeypatch, radius):
    calls = []
    monkeypatch.setattr(pdecheck, "two_time_logdet", _fake_logdet(calls))
    center, h = (1.0, 0.2, 0.1), 0.05
    g = pdecheck.build_grid(center, step=h, radius=radius, m=48)
    assert len(calls) == 21
    assert all(c[3] == 48 for c in calls)
    done = ~np.isnan(g.values)
    assert np.array_equal(done, _read_mask(radius))
    # each evaluated entry holds the value at its own grid point
    for idx in np.argwhere(done):
        t, e, w = (c + h * (i - radius) for c, i in zip(center, idx))
        assert g.values[tuple(idx)] == pytest.approx(
            -0.1 * (t + e * e + 2.0 * w * w), rel=1e-12)


def test_unread_points_do_not_change_the_residual():
    g = _synthetic_grid(lambda t, e, w: np.sin(t) * np.exp(0.3 * e - 0.2 * w))
    sparse = dataclasses.replace(
        g, values=np.where(_read_mask(2), g.values, np.nan))
    assert pdecheck.avm_residual(sparse) == pdecheck.avm_residual(g)


def test_derivative_raises_on_an_unevaluated_point():
    g = _synthetic_grid(lambda t, e, w: t + e * w)
    g.values[2, 2, 4] = np.nan  # W offset +2: read only by d^3/dW^3
    assert np.isfinite(pdecheck.derivative(g, (0, 3, 0)))
    with pytest.raises(ValueError, match="unevaluated"):
        pdecheck.derivative(g, (0, 0, 3))
    with pytest.raises(ValueError, match="unevaluated"):
        pdecheck.avm_residual(g)


@pytest.mark.parametrize("radius", [0, 1])
def test_build_grid_rejects_radius_below_two(monkeypatch, radius):
    calls = []
    monkeypatch.setattr(pdecheck, "two_time_logdet", _fake_logdet(calls))
    with pytest.raises(ValueError, match="radius"):
        pdecheck.build_grid((1.0, 0.2, 0.1), radius=radius, m=48)
    assert calls == []


def test_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        pdecheck.two_time_logdet(0.0, 0.1, 0.1, m=48)
