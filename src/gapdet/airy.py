"""Airy-process kernels.

Physical side: the multi-time matrix kernel A = A_tilde - B, where
A_tilde is a double contour integral of e^{theta(x,mu) - theta(y,lam)}
against a Cauchy factor and B is the Gaussian bridge term, restricted
to per-time interval collections.

Integrable side: the same determinant comes from a kernel
f^T(lam) g(mu) / (lam - mu) on the contour family built by
``contour.build_airy_system``, with vector data assembled here.
"""

from __future__ import annotations

import numpy as np

from .contour import (
    TWO_PI_I,
    ContourComponent,
    Endpoints,
    _radius,
    _system,
    build_slots,
    fg_matrices,
    validate_times,
)
from .fredholm import (
    cauchy_operator,
    double_contour_factors,
    interval_grids,
    interval_operator,
)


def theta(x, mu):
    """Cubic Airy phase mu^3/3 - x*mu (broadcasts over arrays)."""
    mu = np.asarray(mu, dtype=complex) if not np.isscalar(mu) else mu
    return mu ** 3 / 3.0 - x * mu


def phase(i, x, mu, times):
    """Cubic phase of time i, theta(x, mu - tau_i)."""
    return theta(x, mu - validate_times(times)[i])


def gaussian_bridge(i, j, x, y, times):
    """Gaussian bridge entry B_ij(x, y); zero unless tau_i < tau_j."""
    t = validate_times(times)
    dt = t[j] - t[i]
    if dt <= 0:
        return np.zeros(np.broadcast(x, y).shape) if not (
            np.isscalar(x) and np.isscalar(y)) else 0.0
    val = np.exp(dt ** 3 / 12.0 - (np.asarray(x) - np.asarray(y)) ** 2
                 / (4.0 * dt) - dt * (np.asarray(x) + np.asarray(y)) / 2.0)
    return val / np.sqrt(4.0 * np.pi * dt)


class AiryEndpoints(Endpoints):
    """Per-time strictly increasing interval endpoints, any count.

    An odd endpoint count at a time means the trailing interval is
    semi-infinite, [a_k, inf).
    """

    def _check(self, ends):
        if not all(b > a for a, b in zip(ends, ends[1:])):
            raise ValueError(
                f"endpoints must be strictly increasing: {ends}")


# ---------------------------------------------------------------------------
# integrable-kernel vector data
# ---------------------------------------------------------------------------

def _gauge_exponent(endpoints, i, lam_i, gauge):
    """log of the row gauge on line component i (zero when disabled)."""
    if not gauge or endpoints.counts[i] == 0:
        return np.zeros_like(lam_i)
    return -endpoints.per_time[i][0] * lam_i


def f_columns(lam, comp_label, i, endpoints, times, gauge=False):
    """Column f_i (bare, without the 1/(2 pi i) prefactor) at nodes ``lam``.

    ``comp_label`` is "gamma_R" or "line_<j>" (1-based j); the chi
    factors select which rows are populated.
    """
    t = validate_times(times)
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = np.zeros((endpoints.p, len(lam)), dtype=complex)
    if comp_label == "gamma_R":
        out[0] = np.exp(0.5 * theta(0.0, lam - t[i]))
        return out
    j = int(comp_label.split("_")[1]) - 1
    if j != i:
        return out
    lam_i = lam - t[i]
    gexp = _gauge_exponent(endpoints, i, lam_i, gauge)
    for ell, a in enumerate(endpoints.per_time[i]):
        out[endpoints.row_index(i, ell)] = np.exp(a * lam_i + gexp)
    return out


def g_columns(mu, comp_label, j, endpoints, times, gauge=False):
    """Column g_j (bare) at nodes ``mu`` on the given component."""
    t = validate_times(times)
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    out = np.zeros((endpoints.p, len(mu)), dtype=complex)
    if comp_label == "gamma_R":
        mu_j = mu - t[j]
        half = 0.5 * theta(0.0, mu_j)
        for ell, a in enumerate(endpoints.per_time[j]):
            out[endpoints.row_index(j, ell)] = \
                (-1.0) ** ell * np.exp(half - a * mu_j)
        return out
    c = int(comp_label.split("_")[1]) - 1
    if c != j:
        return out
    mu_j = mu - t[j]
    gexp = -_gauge_exponent(endpoints, j, mu_j, gauge)  # columns carry 1/d
    out[0] = np.exp(-theta(0.0, mu_j) + gexp)
    for i in range(j):
        mu_i = mu - t[i]
        for ell, a in enumerate(endpoints.per_time[i]):
            out[endpoints.row_index(i, ell)] = (-1.0) ** ell * np.exp(
                theta(a, mu_i) - theta(0.0, mu_j) + gexp)
    return out


def iiks_kernel_entry(lam, mu, comp_lam, comp_mu, endpoints, times):
    """n x n matrix kernel value K(lam, mu); zero on a shared component."""
    if comp_lam == comp_mu:
        return np.zeros((endpoints.n, endpoints.n), dtype=complex)
    f, _ = fg_matrices(f_columns, g_columns, lam, comp_lam, endpoints, times)
    _, g = fg_matrices(f_columns, g_columns, mu, comp_mu, endpoints, times)
    return (f.T @ g) / (lam - mu) / TWO_PI_I


def block_entry(block, i, j, z_out, z_in, endpoints, times):
    """Bare block-kernel formulas (F, G, H) used for consistency checks.

    The full kernel equals block / (2 pi i) on the matching component
    pair; arguments are (output variable, input variable).
    """
    t = validate_times(times)
    if block == "F":
        return np.exp(0.5 * theta(0.0, z_out - t[i])
                      - theta(0.0, z_in - t[j])) / (z_out - z_in)
    if block == "G":
        if i != j:
            return 0.0
        mu_i = z_in - t[i]
        xi_i = z_out - t[i]
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(0.5 * theta(0.0, mu_i)
                                          - a * (mu_i - xi_i))
        return acc / (z_out - z_in)
    if block == "H":
        if t[i] >= t[j]:
            return 0.0
        lam_i, lam_j = z_in - t[i], z_in - t[j]
        xi_i = z_out - t[i]
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(theta(a, lam_i)
                                          - theta(0.0, lam_j) + a * xi_i)
        return acc / (z_out - z_in)
    raise ValueError(f"unknown block {block!r}")


def iiks_slots(endpoints, times, system, gauge=True):
    """Slots with bare f/g data; line j carries only vector component j."""
    def active(label):
        if label == "gamma_R":
            return range(endpoints.n)
        return (int(label.split("_")[1]) - 1,)

    return build_slots(system, active, f_columns, g_columns,
                       endpoints, times, gauge)


def _lead(endpoints, system):
    """Slots on gamma_R, where K vanishes: the first grid, n per node."""
    return endpoints.n * len(system.grid("gamma_R"))


def iiks_operator(endpoints, times, system, gauge=True, geometry=None):
    """Discretized integrable-kernel operator on the contour system.

    ``geometry`` is the ``fredholm.CauchyGeometry`` of an operator on the
    same system with the same number of times; it is built by default.
    """
    s = iiks_slots(endpoints, times, system, gauge)
    meta = {**system.meta, "process": "airy", "gauge": gauge,
            "p": endpoints.p}
    return cauchy_operator([(s.f, s.g)], s, _lead(endpoints, system),
                           meta=meta, geometry=geometry)


def iiks_tangent_operator(endpoints, times, system, i, ell):
    """Endpoint derivative d K / d a_i^(ell) sampled like ``iiks_operator``.

    The gauge factors are held fixed; the similarity commutator they
    generate is traceless and drops out of Jacobi's formula.
    """
    t = validate_times(times)
    s = iiks_slots(endpoints, times, system)
    lead = _lead(endpoints, system)
    terms = s.endpoint_terms(endpoints.row_index(i, ell), i, lead, t[i])
    return cauchy_operator(terms, s, lead, meta={"tangent": ("a", i, ell)})


# ---------------------------------------------------------------------------
# physical kernel
# ---------------------------------------------------------------------------

def physical_contours(times, m=80, x_min=0.0):
    """Contours for the physical Airy kernel entries, as a ContourSystem.

    "gamma_R" has apex C = max(times) + 1 and angles +-pi/3; the mu
    contour of time i is gamma_R - tau_i.  "left_line" is the lam
    contour, the vertical line deformed to left rays (apex c_L, angles
    +-2pi/3) for cubic decay.  ``x_min`` is the most negative argument
    the kernel will see; it slows the decay linearly.  Both contours
    share one radius, the solved one plus a pad of 1; ``meta`` is that
    of ``contour._system`` plus ``C``.
    """
    t = validate_times(times)
    C = float(t.max()) + 1.0
    rad = _radius(lambda r: r ** 3 / 3, max(0.0, -x_min) / 2.0) + 1.0
    c_left = min(0.0, float(t.min())) - 0.5
    comps = [ContourComponent(complex(C), (np.pi / 3, -np.pi / 3), rad,
                              "gamma_R"),
             ContourComponent(complex(c_left), (-2 * np.pi / 3, 2 * np.pi / 3),
                              rad, "left_line")]
    return _system(comps, m, {"C": C})


def _physical_factors(phys, times):
    """(left, right) with A_ij(x, y) = left(i, x)^T right(j, y) - B_ij:
    mu on gamma_R, the mu contour of time i shifted by -tau_i, and lam
    on the left line, with 1 / (lam + tau_j - mu) and theta(y, lam)."""
    t = validate_times(times)
    right_grid, left_grid = phys.grids
    return double_contour_factors(
        [right_grid], left_grid, t, lambda i, x, mu: theta(x, mu - t[i]),
        lambda j, y, lam: theta(y, lam))


def physical_entry(i, j, x, y, phys, times):
    """Single kernel entry A_ij(x, y)."""
    left, right = _physical_factors(phys, times)
    u, v = left(i, np.array([float(x)])), right(j, np.array([float(y)]))
    return complex((u.T @ v)[0, 0] - gaussian_bridge(i, j, x, y, times))


def physical_operator(endpoints, times, m=80):
    """Nystrom discretization of the physical operator chi A chi."""
    t = validate_times(times)
    grids = interval_grids(endpoints)
    all_x = np.concatenate([x for x, _ in grids])
    x_min = float(all_x.min()) if len(all_x) else 0.0
    phys = physical_contours(times, m=m, x_min=x_min)
    meta = {**phys.meta, "process": "airy", "representation": "physical"}
    return interval_operator(
        grids, *_physical_factors(phys, t),
        lambda i, j, xs, ys: gaussian_bridge(i, j, xs, ys, t), meta)
