"""Contour geometry and quadrature tests."""

import math

import numpy as np
import pytest

from gapdet import airy, contour, fredholm, gap, pearcey
from gapdet.airy import theta
from gapdet.tracy_widom import airy_ai


def test_airy_system_single_time_geometry():
    sys_ = contour.build_airy_system([0.0], m=40)
    assert sys_.labels == ("gamma_R", "line_1")
    apexes = sorted(g.component.apex.real for g in sys_.grids)
    assert apexes == [0.0, 1.0]
    line = sys_.grid("line_1").component
    assert np.allclose(sorted(np.abs(line.angles)), [2 * np.pi / 3] * 2)


def test_airy_system_two_time_gap_and_disjoint():
    sys_ = contour.build_airy_system([0.0, 0.5], m=40)
    right = sys_.grid("gamma_R").component.apex.real
    nearest = max(g.component.apex.real for g in sys_.grids
                  if g.component.label != "gamma_R")
    assert right - nearest == pytest.approx(1.0)
    assert sys_.min_pairwise_distance() > 0


@pytest.mark.parametrize("dt, capped", [(1e-3, ("line_1", "line_2")),
                                        (1.0, ())])
def test_capped_radius_is_reported(dt, capped):
    # the Gaussian rule asks for r = sqrt(2 TAIL_LOG / dt), 272 at dt=1e-3
    sys_ = contour.build_airy_system([0.0, dt], m=8)
    assert sys_.meta["radius_capped"] == capped
    assert all(sys_.meta["radii"][c] == contour.RADIUS_CAP for c in capped)
    res = gap.airy_gap_probability([0.0, dt], [[0.0], [0.0]], m=8)
    assert res.diagnostics["radius_capped"] == capped
    # a radius the caller gives is no cap
    assert contour.build_airy_system(
        [0.0, dt], m=8, radius=contour.RADIUS_CAP).meta["radius_capped"] == ()


def test_capped_physical_radius_is_reported():
    assert airy.physical_contours([0.0], m=8).meta["radius_capped"] == ()
    # the linear slowdown from x = -3e4 outgrows the cubic decay up to 200
    assert airy.physical_contours([0.0], m=8, x_min=-3e4).meta[
        "radius_capped"] == ("gamma_R", "left_line")
    op = airy.physical_operator(airy.AiryEndpoints([[0.0]]), [0.0], m=8)
    assert fredholm.det(op).diagnostics["radius_capped"] == ()
    sys_ = contour.build_pearcey_system([0.0, 1.0], m=8)
    op = pearcey.physical_operator(
        pearcey.PearceyEndpoints([[-1.0, 1.0]] * 2), [0.0, 1.0], sys_)
    assert op.meta["radius_capped"] == ()


def test_airy_system_rejects_bad_parameters():
    with pytest.raises(contour.ContourError):
        contour.build_airy_system([0.0, 0.0])


@pytest.mark.parametrize("angles, collide", [
    ((-np.pi / 2, np.pi / 2), True),    # the same nodes in the same order
    ((np.pi / 2, -np.pi / 2), True),    # and in reverse order
    ((-np.pi / 3, np.pi / 3), False),   # only the apex, which is no node
])
def test_system_rejects_components_that_share_a_node(angles, collide):
    line = contour.ContourComponent(0j, (-np.pi / 2, np.pi / 2), 5.0, "a")
    other = contour.ContourComponent(0j, angles, 5.0, "b")
    system = contour.ContourSystem(grids=contour.build_grids([line, other],
                                                             16))
    # the distance check is the reference
    assert (system.min_pairwise_distance() == 0) == collide
    if collide:
        with pytest.raises(contour.ContourError, match="collide"):
            contour._system([line, other], 16, None, {})
    else:
        assert contour._system([line, other], 16, None, {}).labels == \
            ("a", "b")


def test_pearcey_system_geometry():
    sys_ = contour.build_pearcey_system([0.0], delta=0.5, m=40)
    gr, gl, ir = (sys_.grid(k) for k in ("gamma_R", "gamma_L", "iR"))
    assert np.all(gr.nodes.real >= 0.5 - 1e-14)
    assert np.all(gl.nodes.real <= -0.5 + 1e-14)
    assert np.allclose(ir.nodes.real, 0.0)
    # quartic decay: Re(mu^4) < 0 away from the apexes
    for g in (gr, gl):
        far = g.nodes[np.abs(g.nodes - g.component.apex) > 1.5]
        assert np.all((far ** 4).real < 0)
    assert sys_.min_pairwise_distance() > 0
    with pytest.raises(contour.ContourError):
        contour.build_pearcey_system([0.0], delta=0.0)


def test_grid_node_count_and_conjugation_symmetry():
    sys_ = contour.build_airy_system([0.0], m=48)
    for g in sys_.grids:
        assert len(g) == 48
        swapped = np.sort_complex(np.conj(g.nodes))
        assert np.allclose(np.sort_complex(g.nodes), swapped)


def test_integrate_constant_gives_length_times_direction():
    sys_ = contour.build_airy_system([0.0], m=60)
    for g in sys_.grids:
        r = g.component.truncation_radius
        phi_in, phi_out = g.component.angles
        legs = len(g) // 2
        # per straight segment: sum of weights = length * unit direction
        total_in = g.weights[:legs].sum()
        total_out = g.weights[legs:].sum()
        assert total_in == pytest.approx(-r * np.exp(1j * phi_in), rel=1e-13)
        assert total_out == pytest.approx(r * np.exp(1j * phi_out), rel=1e-13)


def test_integrate_zero_function():
    g = contour.build_airy_system([0.0], m=24).grid("gamma_R")
    assert np.sum(g.weights * (0.0 * g.nodes)) == 0


def test_integrate_airy_contour_against_series_oracle():
    g = contour.build_airy_system([0.0], m=160).grid("gamma_R")
    val = np.sum(g.weights * np.exp(theta(0.0, g.nodes))) / (2j * np.pi)
    exact = -(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0))
    assert val.real == pytest.approx(exact, abs=1e-12)
    assert abs(val.imag) < 1e-14
    assert airy_ai(0.0) == pytest.approx(-exact, abs=1e-14)


def test_integrate_gaussian_on_vertical_line():
    g = contour.build_pearcey_system([0.0], m=100, radius=9.0).grid("iR")
    z = g.nodes
    val = np.sum(g.weights * np.exp(z ** 2 / 2.0 + 0.3 * z)) / (2j * np.pi)
    exact = np.exp(-0.3 ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert val.real == pytest.approx(exact, abs=1e-12)
    assert abs(val.imag) < 1e-13


def test_integrate_converges_under_node_doubling():
    # super-algebraic convergence: once resolved, doubling m moves the
    # value by no more than a small multiple of the 1e-16 tail cut
    exact_checks = []
    for m in (160, 320):
        sys_ = contour.build_airy_system([0.0], m=m)
        g = sys_.grid("gamma_R")
        exact_checks.append(
            np.sum(g.weights * np.exp(theta(0.0, g.nodes))))
    assert abs(exact_checks[1] - exact_checks[0]) < 1e-11


def test_integrate_conjugation_reversal_relation():
    g = contour.build_airy_system([0.0], m=80).grid("gamma_R")
    val = np.sum(g.weights * np.exp(theta(0.0, g.nodes)))
    reversed_grid = contour.QuadratureGrid(
        nodes=g.nodes, weights=-g.weights, component=g.component)
    rev = np.sum(reversed_grid.weights
                 * np.exp(theta(0.0, reversed_grid.nodes)))
    assert np.conj(val) == pytest.approx(rev, abs=1e-15)


def test_pearcey_weights_decay_at_truncation():
    times = [0.0, 1.0]
    sys_ = contour.build_pearcey_system(times, m=40)
    for g in sys_.grids:
        comp = g.component
        r = comp.truncation_radius
        if comp.label == "iR":
            end = 1j * r
            slowest = min(abs(np.exp(-(end ** 4 / 4 - t / 2 * end ** 2)))
                          for t in times)
            slowest = max(slowest, abs(np.exp(np.diff(times).min()
                                              * end ** 2 / 2.0)))
        else:
            end = comp.apex + r * np.exp(1j * comp.angles[1])
            slowest = abs(np.exp(0.5 * (end ** 4 / 4)))
        assert slowest < 1e-12
