"""Finite-difference PDE machinery tests (cheap configurations)."""

import numpy as np
import pytest

from gapdet import gap, pdecheck
from gapdet.gap import airy_gap_probability


def _gradient_grid(grad, center=(1.0, 0.2, 0.1), step=0.05):
    t, e, w = center
    vals = np.array([[grad(t, e + step * i, w + step * j) for j in (-1, 0, 1)]
                     for i in (-1, 0, 1)], dtype=float)
    return pdecheck.GradientGrid(center=center, step=step, values=vals)


def test_constant_grid_zero_residual():
    g = _gradient_grid(lambda t, e, w: (0.0, 0.0, 0.0))
    r = pdecheck.avm_residual(g)
    assert r["lhs"] == 0 and r["rhs"] == 0 and r["residual"] == 0


def test_linear_grid_zero_residual():
    # G = 0.3 t + e - 2 w
    g = _gradient_grid(lambda t, e, w: (0.3, 1.0, -2.0))
    r = pdecheck.avm_residual(g)
    assert abs(r["lhs"]) < 1e-12 and abs(r["rhs"]) < 1e-12


def test_stencils_exact_on_cubic_polynomials():
    # G = e^3 + 2e^2w + 3ew^2 + 4w^3 + 5tew + 6e^2 + 7ew + t^3
    def grad(t, e, w):
        return (5 * e * w + 3 * t * t,
                3 * e * e + 4 * e * w + 3 * w * w + 5 * t * w + 12 * e + 7 * w,
                2 * e * e + 6 * e * w + 12 * w * w + 5 * t * e + 7 * e)

    g = _gradient_grid(grad)
    t0, e0, w0 = g.center
    expected = {(0, 2, 1): 4.0, (0, 0, 3): 24.0, (0, 3, 0): 6.0,
                (0, 1, 2): 6.0, (1, 1, 1): 5.0,
                (0, 2, 0): 6 * e0 + 4 * w0 + 12,
                (0, 1, 1): 4 * e0 + 6 * w0 + 5 * t0 + 7}
    d = pdecheck.derivatives(g)
    assert d.keys() == expected.keys()
    for orders, value in expected.items():
        assert d[orders] == pytest.approx(value, rel=1e-9, abs=1e-9), orders


def test_two_time_logdet_matches_driver():
    direct = airy_gap_probability([0.0, 1.0], [[0.3], [0.1]],
                                  m=60).log_value.real
    via = pdecheck.two_time_logdet(1.0, 0.2, 0.1, m=60)
    assert via == pytest.approx(direct, rel=1e-12)


def test_grid_center_matches_two_time_logdet():
    # the moment gradient against central differences of the log det
    center, h = (1.0, 0.2, 0.1), 1e-3
    grad = pdecheck.build_grid(center, step=0.04, m=120).values[1, 1]
    assert np.array_equal(grad, pdecheck.two_time_gradient(*center, m=120))
    for k in range(3):
        up, dn = list(center), list(center)
        up[k] += h
        dn[k] -= h
        fd = (pdecheck.two_time_logdet(*up, m=120)
              - pdecheck.two_time_logdet(*dn, m=120)) / (2 * h)
        assert abs(grad[k] - fd) <= 1e-5 * abs(fd), k


def test_grid_is_w_symmetric(monkeypatch):
    # exchanging the two intervals reflects W (time reversal of the
    # stationary two-time process): dTau G and dE G are even in W and
    # dW G is odd; needs resolved solves
    def no_det(op):
        raise AssertionError("build_grid computed a determinant")

    monkeypatch.setattr(gap, "det", no_det)
    g = pdecheck.build_grid((1.0, 0.0, 0.0), step=0.05, radius=2, m=120)
    flipped = g.values[:, ::-1] * np.array([1.0, 1.0, -1.0])
    assert np.allclose(g.values, flipped, rtol=0.0, atol=1e-7)


def _fake_gradient(calls):
    def fake(tau, e, w, m=120):
        calls.append((tau, e, w, m))
        return (tau + e, e * w, w - tau)
    return fake


@pytest.mark.parametrize("radius", [2, 3])
def test_build_grid_evaluates_exactly_the_stencil_points(monkeypatch, radius):
    calls = []
    monkeypatch.setattr(pdecheck, "two_time_gradient", _fake_gradient(calls))
    center, h = (1.0, 0.2, 0.1), 0.05
    g = pdecheck.build_grid(center, step=h, radius=radius, m=48)
    assert len(calls) == 9
    assert {c[0] for c in calls} == {1.0} and {c[3] for c in calls} == {48}
    assert g.values.shape == (3, 3, 3)
    # each entry holds the gradient at its own (E, W) point
    for i, j in np.ndindex(3, 3):
        e, w = 0.2 + h * (i - 1), 0.1 + h * (j - 1)
        assert (1.0, e, w, 48) in calls
        assert g.values[i, j] == pytest.approx((1.0 + e, e * w, w - 1.0),
                                               rel=1e-12)


@pytest.mark.parametrize("radius", [0, 1])
def test_build_grid_rejects_radius_below_two(monkeypatch, radius):
    calls = []
    monkeypatch.setattr(pdecheck, "two_time_gradient", _fake_gradient(calls))
    with pytest.raises(ValueError, match="radius"):
        pdecheck.build_grid((1.0, 0.2, 0.1), radius=radius, m=48)
    assert calls == []


def test_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        pdecheck.two_time_logdet(0.0, 0.1, 0.1, m=48)
    with pytest.raises(ValueError):
        pdecheck.two_time_gradient(0.0, 0.1, 0.1, m=48)
    with pytest.raises(ValueError):
        pdecheck.build_grid((-0.5, 0.1, 0.1), m=48)
