"""Pearcey kernel tests: phase, heat factor, physical entries, IIKS data."""

import numpy as np
import pytest

from gapdet import contour, pearcey
from gapdet.fredholm import det

from reference_kernels import (heat_kernel_contour, pearcey_block_entry,
                               pearcey_kernel_entry)


def _fg(lam, label, ep, times):
    return contour.fg_matrices(pearcey.exponents, lam, label, ep, times)


def test_phase_values():
    assert pearcey.phase(0, 0.0, 0.0, [0.0]) == 0
    assert pearcey.phase(0, 1.0, 1.0, [0.0]) == pytest.approx(-0.75)
    y = 1.3
    val = pearcey.phase(0, 0.0, 1j * y, [0.7])
    assert val == pytest.approx(y ** 4 / 4.0 + 0.7 * y ** 2 / 2.0)
    assert abs(val.imag) < 1e-15


def test_heat_kernel_values_and_contour_form():
    times = [0.0, 1.0]
    assert pearcey.heat_kernel(1, 0, 0.2, 0.4, times) == 0
    assert pearcey.heat_kernel(0, 0, 0.2, 0.4, times) == 0
    assert pearcey.heat_kernel(0, 1, 0.3, 0.3, times) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi))
    [grid] = contour.build_grids([contour.ContourComponent(
        0j, (-np.pi / 2, np.pi / 2), 9.0, "iR")], 100)
    closed = pearcey.heat_kernel(0, 1, 0.7, 0.0, times)
    quad = heat_kernel_contour(1.0, 0.7, 0.0, grid)
    assert quad.real == pytest.approx(closed, abs=1e-10)
    assert abs(quad.imag) < 1e-12


def test_endpoints_require_even_counts():
    with pytest.raises(ValueError):
        pearcey.PearceyEndpoints([[-1.0, 0.0, 1.0]])
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-2.0, -1.0, 1.0, 2.0]])
    assert ep.p == 7
    assert ep.offsets == (1, 3)


def test_physical_entry_deformation_invariance():
    times = [0.0]
    vals = {}
    for delta in (0.25, 0.75):
        sys_ = contour.build_pearcey_system(times, delta=delta, m=120)
        vals[delta] = pearcey.physical_entry(0, 0, 0.0, 0.0, sys_, times)
    assert abs(vals[0.25] - vals[0.75]) < 1e-9


def test_physical_entry_real_parity_and_converged():
    # the kernel is real up to quadrature error; it is not symmetric in
    # (x, y) (the two Pearcey-type factors differ), but at tau = 0 it is
    # even under the parity map (x, y) -> (-x, -y)
    times = [0.0]
    sys_ = contour.build_pearcey_system(times, m=120)
    a = pearcey.physical_entry(0, 0, 0.4, -0.2, sys_, times)
    b = pearcey.physical_entry(0, 0, -0.4, 0.2, sys_, times)
    assert abs(a.imag) < 1e-9 and abs(b.imag) < 1e-9
    assert a.real == pytest.approx(b.real, abs=1e-9)
    sys2 = contour.build_pearcey_system(times, m=240)
    a2 = pearcey.physical_entry(0, 0, 0.4, -0.2, sys2, times)
    assert abs(a - a2) < 1e-8


def test_one_point_density_positive():
    times = [0.0]
    sys_ = contour.build_pearcey_system(times, m=100)
    for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
        rho = pearcey.physical_entry(0, 0, x, x, sys_, times)
        assert rho.real > 0
        assert abs(rho.imag) < 1e-10


def test_H_numerator_vanishes_on_diagonal_and_limit():
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-1.0, 1.0]])
    times = [0.0, 1.0]
    lam = 0.35j
    f, _ = _fg(lam, "iR", ep, times)
    _, g = _fg(lam, "iR", ep, times)
    prod = f.T @ g
    assert np.abs(prod).max() < 1e-12  # alternating sum cancels at xi = lam
    # analytic limit, endpoints (a, b): e^{dt lam^2 / 2} (a - b)
    lim = pearcey_block_entry("H", 0, 1, lam, lam, ep, times)
    expected = np.exp(1.0 * lam ** 2 / 2.0) * (-1.0 - 1.0)
    assert lim == pytest.approx(expected, rel=1e-13)
    # cross-check against a nearby off-diagonal evaluation
    near = pearcey_block_entry("H", 0, 1, lam + 1e-6, lam, ep, times)
    assert abs(near - lim) < 1e-5 * abs(lim)
    assert pearcey_block_entry("H", 1, 0, lam + 0.1j, lam, ep, times) == 0


def test_H_degenerate_interval_limit_is_zero():
    ep = pearcey.PearceyEndpoints([[0.5, 0.5], [-1.0, 1.0]])
    lim = pearcey_block_entry("H", 0, 1, 0.2j, 0.2j, ep, [0.0, 1.0])
    assert lim == 0


def test_fg_orthogonality_at_coincident_points():
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
    times = [0.0, 1.0]
    rng = np.random.default_rng(3)
    for comp in ("gamma_R", "gamma_L", "iR"):
        for _ in range(5):
            lam = complex(rng.standard_normal(), rng.standard_normal())
            f, g = _fg(lam, comp, ep, times)
            assert np.abs(f.T @ g).max() < 1e-12


def test_kernel_zero_on_X_pairs():
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0]])
    times = [0.0]
    for cl, cm in (("gamma_R", "gamma_R"), ("gamma_R", "gamma_L"),
                   ("gamma_L", "gamma_R")):
        k = pearcey_kernel_entry(0.9 + 0.3j, -0.9 + 0.2j, cl, cm,
                                 ep, times)
        assert np.all(k == 0)


def test_kernel_block_consistency_at_random_nodes():
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
    times = [0.0, 1.0]
    sys_ = contour.build_pearcey_system(times, m=24)
    labels = {g.component.label: g for g in sys_.grids}
    rng = np.random.default_rng(17)
    two_pi_i = 2j * np.pi

    def draw(label):
        g = labels[label]
        return g.nodes[rng.integers(len(g.nodes))]

    for _ in range(100):
        x_label = ("gamma_R", "gamma_L")[rng.integers(2)]
        mu_x, lam_l = draw(x_label), draw("iR")
        k = pearcey_kernel_entry(mu_x, lam_l, x_label, "iR", ep, times)
        i, j = rng.integers(2), rng.integers(2)
        blk = pearcey_block_entry("F", i, j, mu_x, lam_l, ep, times)
        assert k[i, j] * two_pi_i == pytest.approx(blk, rel=1e-12)
        k2 = pearcey_kernel_entry(lam_l, mu_x, "iR", x_label, ep, times)
        blk_g = pearcey_block_entry("G", i, i, lam_l, mu_x, ep, times)
        assert k2[i, i] * two_pi_i == pytest.approx(blk_g, rel=1e-12)
        xi2, lam2 = draw("iR"), draw("iR")
        if xi2 != lam2:
            k3 = pearcey_kernel_entry(xi2, lam2, "iR", "iR", ep, times)
            blk_h = pearcey_block_entry("H", 0, 1, xi2, lam2, ep, times)
            assert k3[0, 1] * two_pi_i == pytest.approx(blk_h, rel=1e-12)
            assert k3[1, 0] == 0 and k3[0, 0] == 0 and k3[1, 1] == 0


def test_jump_D_blocks_match_outer_product():
    # lower-triangular blocks on the shared line: (s, t) entry equals
    # (-1)^{t+1} e^{(a_i^{(s)} - a_j^{(t)}) lam + (tau_i - tau_j)/2 lam^2}
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
    times = [0.0, 1.0]
    lam = 0.6j
    f, g = _fg(lam, "iR", ep, times)
    outer = f @ g.T
    a1, a2 = ep.per_time[1], ep.per_time[0]
    for s in range(2):
        for t in range(2):
            expected = (-1.0) ** t * np.exp(
                (a1[s] - a2[t]) * lam + (1.0 - 0.0) / 2.0 * lam ** 2)
            got = outer[ep.row_index(1, s), ep.row_index(0, t)]
            assert got == pytest.approx(expected, rel=1e-13)


def test_downstream_determinant_invariance_under_delta():
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0]])
    times = [0.0]
    vals = []
    for delta in (0.25, 0.75):
        sys_ = contour.build_pearcey_system(
            times, delta=delta, m=120, endpoint_scale=ep.max_abs_endpoint())
        vals.append(det(pearcey.iiks_operator(ep, times, sys_)).value)
    assert abs(vals[0] - vals[1]) < 1e-8
