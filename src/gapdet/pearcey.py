"""Pearcey-process kernels.

Physical side: matrix kernel P = P_tilde - Q with the quartic phase
Theta_i and the heat kernel Q.  Integrable side: kernel
f^T(lam) g(mu) / (lam - mu) on the X-shaped contour plus the imaginary
axis, all times sharing the single vertical line.  The cross-time
block on the shared line has a removable diagonal handled by its
analytic limit.
"""

from __future__ import annotations

import numpy as np

from .contour import (TWO_PI_I, Endpoints, build_slots, fg_matrices,
                      validate_times)
from .fredholm import (cauchy_operator, double_contour_factors,
                       interval_grids, interval_operator)

_X_LABELS = ("gamma_R", "gamma_L")


def phase(i, x, mu, times):
    """Quartic Pearcey phase mu^4/4 - (tau_i/2) mu^2 - x*mu."""
    t = validate_times(times)
    mu = np.asarray(mu, dtype=complex) if not np.isscalar(mu) else mu
    return mu ** 4 / 4.0 - 0.5 * t[i] * mu ** 2 - x * mu


def heat_kernel(i, j, x, y, times):
    """Gaussian factor Q_ij(x, y); zero unless tau_i < tau_j."""
    t = validate_times(times)
    dt = t[j] - t[i]
    if dt <= 0:
        return np.zeros(np.broadcast(x, y).shape) if not (
            np.isscalar(x) and np.isscalar(y)) else 0.0
    diff = np.asarray(x) - np.asarray(y)
    return np.exp(-diff ** 2 / (2.0 * dt)) / np.sqrt(2.0 * np.pi * dt)


def heat_kernel_contour(dt, x, y, grid):
    """Contour form of the heat kernel, for cross-testing.

    (1/2 pi i) * int_{iR} e^{dt lam^2/2 + (y-x) lam} d lam on the given
    vertical-line grid.
    """
    vals = np.exp(dt * grid.nodes ** 2 / 2.0 + (y - x) * grid.nodes)
    return complex(np.sum(grid.weights * vals)) / TWO_PI_I


class PearceyEndpoints(Endpoints):
    """Per-time sorted interval endpoints, an even count at every time.

    Zero-width intervals [a, a] are allowed.
    """

    def _check(self, ends):
        if len(ends) % 2:
            raise ValueError(
                "Pearcey intervals are finite: even endpoint count required")
        if not all(b >= a for a, b in zip(ends, ends[1:])):
            raise ValueError(f"endpoints must be sorted: {ends}")


# ---------------------------------------------------------------------------
# integrable-kernel vector data
# ---------------------------------------------------------------------------

def f_columns(lam, comp_label, i, endpoints, times):
    """Column f_i (bare) at nodes ``lam`` on the given component."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = np.zeros((endpoints.p, len(lam)), dtype=complex)
    if comp_label in _X_LABELS:
        out[0] = np.exp(0.5 * phase(i, 0.0, lam, times))
        return out
    for ell, a in enumerate(endpoints.per_time[i]):
        out[endpoints.row_index(i, ell)] = np.exp(a * lam)
    return out


def g_columns(mu, comp_label, j, endpoints, times):
    """Column g_j (bare) at nodes ``mu`` on the given component."""
    t = validate_times(times)
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    out = np.zeros((endpoints.p, len(mu)), dtype=complex)
    if comp_label in _X_LABELS:
        half = 0.5 * phase(j, 0.0, mu, times)
        for ell, a in enumerate(endpoints.per_time[j]):
            out[endpoints.row_index(j, ell)] = \
                (-1.0) ** ell * np.exp(half - a * mu)
        return out
    out[0] = np.exp(-phase(j, 0.0, mu, times))
    for i in range(j):
        dt = t[j] - t[i]
        for ell, a in enumerate(endpoints.per_time[i]):
            out[endpoints.row_index(i, ell)] = \
                (-1.0) ** ell * np.exp(-a * mu + dt * mu ** 2 / 2.0)
    return out


def _alternating_sums(endpoints):
    """sum_ell (-1)^ell a_i^(ell) for every time i."""
    return np.array([sum((-1.0) ** ell * a for ell, a in enumerate(ends))
                     for ends in endpoints.per_time])


def _diag_limit(i, j, lam, times, coef):
    """Analytic value of the shared-line kernel at coincident arguments.

    The alternating numerator vanishes at xi = lam; L'Hopital gives
    e^{dt lam^2/2} * coef[i] for tau_i < tau_j and zero otherwise, with
    coef from ``_alternating_sums`` (the sign pattern of the outer
    product, + for the first endpoint).  Broadcasts over arrays.
    """
    t = validate_times(times)
    i, j, lam = np.broadcast_arrays(i, j, lam)
    dt = t[j] - t[i]
    up = dt > 0
    out = np.zeros(lam.shape, dtype=complex)
    out[up] = np.exp(dt[up] * lam[up] ** 2 / 2.0) * coef[i[up]]
    return out


def iiks_kernel_entry(lam, mu, comp_lam, comp_mu, endpoints, times):
    """n x n kernel value K(lam, mu) with the removable diagonal filled."""
    n = endpoints.n
    if comp_lam in _X_LABELS and comp_mu in _X_LABELS:
        return np.zeros((n, n), dtype=complex)
    if comp_lam == comp_mu == "iR" and lam == mu:
        i, j = np.indices((n, n))
        return _diag_limit(i, j, lam, times,
                           _alternating_sums(endpoints)) / TWO_PI_I
    f, _ = fg_matrices(f_columns, g_columns, lam, comp_lam, endpoints, times)
    _, g = fg_matrices(f_columns, g_columns, mu, comp_mu, endpoints, times)
    return (f.T @ g) / (lam - mu) / TWO_PI_I


def block_entry(block, i, j, z_out, z_in, endpoints, times):
    """Bare block-kernel formulas (F, G, H); kernel = block / (2 pi i).

    H carries the sign pattern of the outer product f g^T (leading +),
    which is also what the determinant identity requires; its removable
    diagonal is evaluated by the analytic limit.
    """
    t = validate_times(times)
    if block == "F":
        return np.exp(0.5 * phase(i, 0.0, z_out, times)
                      - phase(j, 0.0, z_in, times)) / (z_out - z_in)
    if block == "G":
        if i != j:
            return 0.0
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(
                0.5 * phase(i, 0.0, z_in, times) - a * (z_in - z_out))
        return acc / (z_out - z_in)
    if block == "H":
        if t[i] >= t[j]:
            return 0.0
        if z_out == z_in:
            return complex(_diag_limit(i, j, z_in, times,
                                       _alternating_sums(endpoints)))
        dt = t[j] - t[i]
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(
                a * (z_out - z_in) + dt * z_in ** 2 / 2.0)
        return acc / (z_out - z_in)
    raise ValueError(f"unknown block {block!r}")


def iiks_slots(endpoints, times, system):
    """Slots with bare f/g data; every component carries all n."""
    return build_slots(system, lambda label: range(endpoints.n),
                       f_columns, g_columns, endpoints, times)


def _lead(endpoints, system):
    """Slots on gamma_R and gamma_L, where K vanishes: the first two grids."""
    return endpoints.n * sum(len(system.grid(c)) for c in _X_LABELS)


def iiks_operator(endpoints, times, system):
    """Discretized integrable Pearcey operator."""
    s = iiks_slots(endpoints, times, system)
    coef = _alternating_sums(endpoints)
    meta = {**system.meta, "process": "pearcey", "p": endpoints.p}
    return cauchy_operator(
        [(s.f, s.g)], s, _lead(endpoints, system),
        diag=lambda i, j, lam: _diag_limit(i, j, lam, times, coef), meta=meta)


def iiks_tangent_operator(endpoints, times, system, i, ell):
    """Endpoint derivative d K / d a_i^(ell) on the same slots."""
    s = iiks_slots(endpoints, times, system)
    lead = _lead(endpoints, system)
    terms = s.endpoint_terms(endpoints.row_index(i, ell), i, lead, 0.0)
    # d/da of the L'Hopital limit e^{dt lam^2/2} sum (-1)^l a_l
    coef = np.zeros(endpoints.n)
    coef[i] = (-1.0) ** ell
    return cauchy_operator(
        terms, s, lead,
        diag=lambda vi, vj, lam: _diag_limit(vi, vj, lam, times, coef),
        meta={"tangent": ("a", i, ell)})


# ---------------------------------------------------------------------------
# physical kernel
# ---------------------------------------------------------------------------

def _physical_factors(system, times):
    """(left, right) with P_ij(x, y) = left(i, x)^T right(j, y) - Q_ij:
    mu on the X contour and lam on iR, with the one Cauchy factor 1 /
    (lam - mu) of all times."""
    t = validate_times(times)
    return double_contour_factors(
        [system.grid(c) for c in _X_LABELS], system.grid("iR"),
        np.zeros(len(t)), lambda i, x, mu: phase(i, x, mu, t),
        lambda j, y, lam: phase(j, y, lam, t))


def physical_entry(i, j, x, y, system, times):
    """Single kernel entry P_ij(x, y)."""
    left, right = _physical_factors(system, times)
    u, v = left(i, np.array([float(x)])), right(j, np.array([float(y)]))
    return complex((u.T @ v)[0, 0] - heat_kernel(i, j, x, y, times))


def physical_operator(endpoints, times, system):
    """Nystrom discretization of the physical operator chi P chi."""
    t = validate_times(times)
    meta = {**system.meta, "process": "pearcey",
            "representation": "physical"}
    return interval_operator(
        interval_grids(endpoints), *_physical_factors(system, t),
        lambda i, j, xs, ys: heat_kernel(i, j, xs, ys, t), meta)
