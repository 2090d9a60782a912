"""Airy kernel tests: phase, bridge, physical entries, IIKS data."""

import numpy as np
import pytest

from gapdet import airy, contour
from gapdet.tracy_widom import airy_kernel_matrix

from reference_kernels import airy_block_entry, airy_kernel_entry


def _fg(lam, label, ep, times):
    return contour.fg_matrices(airy.exponents, lam, label, ep, times)


def test_theta_values():
    assert airy.theta(0.0, 0.0) == 0
    assert airy.theta(1.0, 1.0) == pytest.approx(-2.0 / 3.0)
    z = 0.7 + 1.3j
    assert airy.theta(2.0, np.conj(z)) == pytest.approx(
        np.conj(airy.theta(2.0, z)))


def test_gaussian_bridge_values():
    times = [0.0, 2.0]
    assert airy.gaussian_bridge(1, 0, 0.3, -0.2, times) == 0  # upper triangular
    assert airy.gaussian_bridge(0, 0, 0.3, -0.2, times) == 0
    val = airy.gaussian_bridge(0, 1, 0.0, 0.0, times)
    assert val == pytest.approx(np.exp(2.0 / 3.0) / np.sqrt(8.0 * np.pi))
    assert airy.gaussian_bridge(0, 1, 0.4, -1.1, times) == pytest.approx(
        airy.gaussian_bridge(0, 1, -1.1, 0.4, times))


def test_endpoints_validation_and_layout():
    ep = airy.AiryEndpoints([[0.0, 1.0, 2.5], [-1.0]])
    assert ep.counts == (3, 1)
    assert ep.p == 5
    assert ep.offsets == (1, 4)
    assert ep.row_index(1, 0) == 4
    with pytest.raises(ValueError):
        airy.AiryEndpoints([[1.0, 0.0]])
    with pytest.raises(ValueError, match="at least one time entry"):
        airy.AiryEndpoints([])


def test_physical_entry_matches_classical_airy_kernel():
    # n = 1, tau = 0: the kernel reduces to int_0^inf Ai(x+s) Ai(y+s) ds
    times = [0.0]
    phys = airy.physical_contours(times, m=120, x_min=-0.5)
    pts = np.array([0.0, 0.35, -0.5])
    oracle = airy_kernel_matrix(pts)
    for a, x in enumerate(pts):
        for b, y in enumerate(pts):
            val = airy.physical_entry(0, 0, x, y, phys, times)
            assert val.real == pytest.approx(oracle[a, b], abs=1e-10)
            assert abs(val.imag) < 1e-12
    # closed form at the origin: Ai'(0)^2
    import math
    exact = (3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)) ** 2
    assert airy.physical_entry(0, 0, 0.0, 0.0, phys, times).real == \
        pytest.approx(exact, abs=1e-11)


def test_physical_entry_diagonal_real_and_converged():
    times = [0.0]
    phys80 = airy.physical_contours(times, m=80)
    phys160 = airy.physical_contours(times, m=160)
    v80 = airy.physical_entry(0, 0, 1.0, 1.0, phys80, times)
    v160 = airy.physical_entry(0, 0, 1.0, 1.0, phys160, times)
    assert abs(v80.imag) < 1e-10
    assert abs(v80 - v160) < 1e-8


def test_fg_support_structure():
    ep = airy.AiryEndpoints([[0.0], [0.5, 1.0]])
    times = [0.0, 1.0]
    lam_r = 1.7 + 0.4j
    f, g = _fg(lam_r, "gamma_R", ep, times)
    assert np.all(f[1:] == 0)            # only row 0 on gamma_R
    assert np.all(f[0] != 0)
    assert np.all(g[0] == 0)             # g on gamma_R: own block only
    assert np.count_nonzero(g[:, 0]) == 1
    assert np.count_nonzero(g[:, 1]) == 2
    lam_l = 1.0 + 0.9j  # on line_2 geometrically; chi is by label
    f2, g2 = _fg(lam_l, "line_2", ep, times)
    assert np.all(f2[:, 0] == 0)         # column 1 unsupported on line_2
    assert np.count_nonzero(f2[:, 1]) == 2
    assert g2[0, 1] != 0 and g2[1, 1] != 0  # row 0 and earlier block


@pytest.mark.parametrize("comp", ["gamma_R", "line_1", "line_2"])
def test_same_contour_orthogonality_is_structural(comp):
    ep = airy.AiryEndpoints([[0.0], [0.5, 1.0]])
    times = [0.0, 1.0]
    rng = np.random.default_rng(5)
    for _ in range(6):
        lam, mu = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f, _ = _fg(lam, comp, ep, times)
        _, g = _fg(mu, comp, ep, times)
        assert np.all(f.T @ g == 0)  # exact structural zeros


def test_kernel_zero_on_gamma_R_pairs_and_diagonal():
    ep = airy.AiryEndpoints([[0.0], [0.5]])
    times = [0.0, 1.0]
    k = airy_kernel_entry(2.0 + 1j, 2.0 - 1j, "gamma_R", "gamma_R",
                          ep, times)
    assert np.all(k == 0)
    k2 = airy_kernel_entry(0.5j, 0.5j, "line_1", "line_1", ep, times)
    assert np.all(k2 == 0)


def test_kernel_block_consistency_at_random_nodes():
    ep = airy.AiryEndpoints([[0.0, 0.7], [0.5]])
    times = [0.0, 1.0]
    sys_ = contour.build_airy_system(times, m=24)
    rng = np.random.default_rng(11)
    labels = {g.component.label: g for g in sys_.grids}
    two_pi_i = 2j * np.pi

    def draw(label):
        g = labels[label]
        return g.nodes[rng.integers(len(g.nodes))]

    for _ in range(100):
        # upper-right block: output on gamma_R, input on a line
        j = rng.integers(2)
        lam, mu = draw("gamma_R"), draw(f"line_{j + 1}")
        k = airy_kernel_entry(lam, mu, "gamma_R", f"line_{j + 1}",
                              ep, times)
        for i in range(2):
            blk = airy_block_entry("F", i, j, lam, mu, ep, times)
            assert k[i, j] * two_pi_i == pytest.approx(blk, rel=1e-13)
        # lower-left: output on line i, input on gamma_R
        i = rng.integers(2)
        xi, mu2 = draw(f"line_{i + 1}"), draw("gamma_R")
        k = airy_kernel_entry(xi, mu2, f"line_{i + 1}", "gamma_R",
                              ep, times)
        for j2 in range(2):
            blk = airy_block_entry("G", i, j2, xi, mu2, ep, times)
            assert k[i, j2] * two_pi_i == pytest.approx(blk, rel=1e-13)
    # cross-time block: line_1 output, line_2 input
    xi, lam = draw("line_1"), draw("line_2")
    k = airy_kernel_entry(xi, lam, "line_1", "line_2", ep, times)
    blk = airy_block_entry("H", 0, 1, xi, lam, ep, times)
    assert k[0, 1] * two_pi_i == pytest.approx(blk, rel=1e-13)
    assert airy_block_entry("H", 1, 0, xi, lam, ep, times) == 0
    assert airy_block_entry("G", 0, 1, xi, lam, ep, times) == 0


def test_f_subscript_resolution_reproduces_F_block():
    # the first entry of f_i carries theta(0, lam - tau_i): the (i, j)
    # gamma_R/line block must then match F as printed
    ep = airy.AiryEndpoints([[0.2], [0.6]])
    times = [0.0, 1.0]
    lam, mu = 2.0 + 0.8j, 1.0 + 1.4j
    k = airy_kernel_entry(lam, mu, "gamma_R", "line_2", ep, times)
    expected01 = np.exp(0.5 * airy.theta(0.0, lam - 0.0)
                        - airy.theta(0.0, mu - 1.0)) / (lam - mu)
    assert k[0, 1] * 2j * np.pi == pytest.approx(expected01, rel=1e-13)


def test_trivial_F_substitution_example():
    ep = airy.AiryEndpoints([[0.0]])
    times = [0.0]
    c, lam = 1.0, 1j + 0.0
    val = airy_block_entry("F", 0, 0, c, lam, ep, times)
    assert val == pytest.approx(
        np.exp(0.5 * airy.theta(0.0, c) - airy.theta(0.0, lam)) / (c - lam))
