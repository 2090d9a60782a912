"""Finite-difference PDE machinery tests (cheap configurations)."""

import numpy as np
import pytest

from gapdet import airy, contour, gap, isomono, pdecheck
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


def _stencil_system(center, step, m):
    """The contour system of the stencil around ``center``: radii at the
    largest |endpoint| of its nine points."""
    tau, e, w = center
    scale = max(abs(e + i * step + s * (w + j * step))
                for i in (-1, 0, 1) for j in (-1, 0, 1) for s in (1, -1))
    return contour.build_airy_system([0.0, tau], m=m, endpoint_scale=scale)


def test_grid_center_matches_two_time_logdet():
    # the moment gradient against central differences of the log det
    center, h = (1.0, 0.2, 0.1), 1e-3
    grid = pdecheck.build_grid(center, step=0.04, m=120)
    grad = grid.values[1, 1]
    # bit for bit the gradient of the center on the stencil's system
    system = _stencil_system(center, 0.04, 120)
    assert grid.radii == system.meta["radii"]
    ep = airy.AiryEndpoints([[0.2 + 0.1], [0.2 - 0.1]])
    times = np.array([0.0, 1.0])
    op = airy.iiks_operator(ep, times, system)
    one = pdecheck._gradient(isomono.resolvent_moments([op])[0], ep, times)
    assert np.all(np.abs(grad - one) <= 1e-14 * np.abs(one))
    # and close to the gradient on the center's own system
    own = np.array(pdecheck.two_time_gradient(*center, m=120))
    assert np.all(np.abs(grad - own) <= 1e-7 * np.abs(own))
    for k in range(3):
        up, dn = list(center), list(center)
        up[k] += h
        dn[k] -= h
        fd = (pdecheck.two_time_logdet(*up, m=120)
              - pdecheck.two_time_logdet(*dn, m=120)) / (2 * h)
        assert abs(grad[k] - fd) <= 1e-5 * abs(fd), k


@pytest.mark.parametrize("step", [0.04, 0.02])
def test_stencil_system_radii_cover_every_point(step):
    # the truncation rule is monotone in the endpoint scale: a system
    # built at one point's own endpoints needs no larger radius
    center = (1.0, 0.2, 0.1)
    grid = pdecheck.build_grid(center, step=step, m=48)
    tau, e, w = center
    for i, j in np.ndindex(3, 3):
        a, b = e + step * (i - 1) + w + step * (j - 1), \
            e + step * (i - 1) - (w + step * (j - 1))
        own = contour.build_airy_system([0.0, tau], m=48,
                                        endpoint_scale=max(abs(a), abs(b)))
        assert own.meta["radii"].keys() == grid.radii.keys()
        assert all(r <= grid.radii[k] for k, r in own.meta["radii"].items())
    assert grid.radius_capped == ()


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
    # records each point's intervals [a, inf), [b, inf) and its times,
    # and returns (tau + E, E W, W - tau) at E = (a + b) / 2, W = (a - b) / 2
    def fake(moments, endpoints, times):
        (a,), (b,) = endpoints.per_time
        calls.append(((a, b), tuple(times)))
        e, w = (a + b) / 2, (a - b) / 2
        return (times[1] + e, e * w, w - times[1])
    return fake


def _fake_moments(batches):
    # records each batch of operators the stencil solves with
    def fake(ops):
        batches.append(list(ops))
        return [None] * len(batches[-1])
    return fake


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("radius", [2, 3])
def test_build_grid_evaluates_exactly_the_stencil_points(monkeypatch, radius):
    calls, systems, batches = [], [], []
    monkeypatch.setattr(pdecheck, "_gradient", _fake_gradient(calls))
    monkeypatch.setattr(pdecheck, "resolvent_moments",
                        _fake_moments(batches))
    monkeypatch.setattr(pdecheck, "build_airy_system",
                        _counting(systems, contour.build_airy_system))
    center, h = (1.0, 0.2, 0.1), 0.05
    g = pdecheck.build_grid(center, step=h, radius=radius, m=48)
    # one contour system, one batch of solves on one Cauchy geometry, and
    # one tau and m for all
    [ops] = batches
    assert len(systems) == 1 and len(calls) == 9 and len(ops) == 9
    assert len({id(op.geometry) for op in ops}) == 1
    assert {c[1] for c in calls} == {(0.0, 1.0)}
    assert {len(op.slots.nodes) // 4 for op in ops} == {48}  # 4 per node
    assert len({c[0] for c in calls}) == 9
    assert g.values.shape == (3, 3, 3)
    # each entry holds the gradient at its own (E, W) point
    for (i, j), (ends, _) in zip(np.ndindex(3, 3), calls):
        e, w = 0.2 + h * (i - 1), 0.1 + h * (j - 1)
        assert ends == pytest.approx((e + w, e - w), rel=1e-12)
        assert g.values[i, j] == pytest.approx((1.0 + e, e * w, w - 1.0),
                                               rel=1e-12)


@pytest.mark.parametrize("radius", [0, 1])
def test_build_grid_rejects_radius_below_two(monkeypatch, radius):
    calls = []
    monkeypatch.setattr(pdecheck, "_gradient", _fake_gradient(calls))
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


def test_richardson_extrapolate_reaches_the_quadrature_floor():
    # ROADMAP item 11: with the CLI steps the extrapolate of lhs - rhs
    # cancels the h^2 error of the differences, 1.2e-4 relative, and
    # leaves the m = 120 quadrature error; m = 160 leaves the h^4 rest
    center, steps = (1.0, 0.2, 0.1), (0.04, 0.02)
    out = {m: pdecheck.richardson(*(pdecheck.build_grid(center, step=h, m=m)
                                    for h in steps)) for m in (120, 160)}
    assert out[120]["extrapolate"] == pytest.approx(7.55e-7, rel=0.1)
    assert abs(out[160]["extrapolate"]) <= 5e-8
    # the signed residuals are avm_residual's, here with lhs > rhs
    grid = pdecheck.build_grid(center, step=0.02, m=120)
    assert out[120]["signed_residuals"][1] \
        == pdecheck.avm_residual(grid)["relative_residual"]
