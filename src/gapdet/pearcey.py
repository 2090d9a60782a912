"""Pearcey-process kernels.

Physical side: matrix kernel P = P_tilde - Q with the quartic phase
Theta_i and the heat kernel Q, real on the real line: one mirror half
of the X contour is summed (``double_contour_factors``).  Integrable
side: kernel f^T(lam) g(mu) / (lam - mu) on the X-shaped contour plus
the imaginary axis, all times sharing the single vertical line.  The
cross-time block on the shared line has a removable diagonal handled
by its analytic limit.
"""

from __future__ import annotations

import numpy as np

from .contour import Endpoints, build_slots, endpoint_terms, validate_times
from .fredholm import (cauchy_operator, double_contour_factors,
                       interval_grids, interval_operator)

_X_LABELS = ("gamma_R", "gamma_L")


def phase(i, x, mu, times):
    """Quartic Pearcey phase mu^4/4 - (tau_i/2) mu^2 - x*mu."""
    mu = np.asarray(mu, dtype=complex) if not np.isscalar(mu) else mu
    return mu ** 4 / 4.0 - 0.5 * times[i] * mu ** 2 - x * mu


def heat_kernel(i, j, x, y, times):
    """Gaussian factor Q_ij(x, y); zero unless tau_i < tau_j."""
    dt = times[j] - times[i]
    if dt <= 0:
        return np.zeros(np.broadcast(x, y).shape) if not (
            np.isscalar(x) and np.isscalar(y)) else 0.0
    diff = np.asarray(x) - np.asarray(y)
    return np.exp(-diff ** 2 / (2.0 * dt)) / np.sqrt(2.0 * np.pi * dt)


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

def exponents(z, comp_label, ends, t):
    """Exponents of the bare columns f_b and g_b of every vector
    component b at nodes ``z`` on the given component: the blocks that do
    not vanish, yielded as ``contour.build_slots`` reads them, with
    ``ends[i]`` the endpoints of time i of every set of a batch."""
    if comp_label in _X_LABELS:
        for b in range(len(t)):
            half = 0.5 * phase(b, 0.0, z, t)
            yield 0, None, b, half
            yield 1, b, b, half - ends[b] * z
        return
    sq = z ** 2
    for b in range(len(t)):
        yield 1, None, b, -phase(b, 0.0, z, t)
        yield 0, b, b, ends[b] * z
        for i in range(b):  # the heat factor of each earlier time
            yield 1, i, b, -ends[i] * z + (t[b] - t[i]) * sq / 2.0


def _alternating_sums(endpoints):
    """sum_ell (-1)^ell a_i^(ell) for every time i."""
    return np.array([sum((-1.0) ** ell * a for ell, a in enumerate(ends))
                     for ends in endpoints.per_time])


def _diag_limit(i, j, lam, t, coef):
    """Analytic value of the shared-line kernel at coincident arguments.

    The alternating numerator vanishes at xi = lam; L'Hopital gives
    e^{dt lam^2/2} * coef[i] for tau_i < tau_j and zero otherwise, with
    coef from ``_alternating_sums`` (the sign pattern of the outer
    product, + for the first endpoint).  Broadcasts over arrays; ``t``
    is the array of times, and leading axes of ``coef`` (one per
    endpoint set) lead the result.
    """
    i, j, lam = np.broadcast_arrays(i, j, lam)
    dt = t[j] - t[i]
    up = dt > 0
    out = np.zeros(coef.shape[:-1] + lam.shape, dtype=complex)
    out[..., up] = np.exp(dt[up] * lam[up] ** 2 / 2.0) * coef[..., i[up]]
    return out


def iiks_operators(endpoint_sets, times, system):
    """Discretized integrable Pearcey operators of a batch of endpoint
    sets, one endpoint count per time: one stacked ``CauchyOperator``."""
    t = validate_times(times)
    f, g = build_slots(system, endpoint_sets, exponents, t)
    coef = np.array([_alternating_sums(ep) for ep in endpoint_sets])
    meta = {**system.meta, "process": "pearcey", "p": f.shape[1]}
    return cauchy_operator(
        [(f, g)], system.geometry,
        diag=lambda i, j, lam: _diag_limit(i, j, lam, t, coef), meta=meta)


def iiks_operator(endpoints, times, system):
    """``iiks_operators`` of the one set ``endpoints``, unstacked."""
    return iiks_operators([endpoints], times, system).member(0)


def iiks_tangent_operator(endpoints, times, system, i, ell):
    """Endpoint derivative d K / d a_i^(ell) on the same slots."""
    t, geo = validate_times(times), system.geometry
    [f], [g] = build_slots(system, [endpoints], exponents, t)
    terms = endpoint_terms(f, g, geo, endpoints.row_index(i, ell), i, 0.0)
    # d/da of the L'Hopital limit e^{dt lam^2/2} sum (-1)^l a_l
    coef = np.zeros(endpoints.n)
    coef[i] = (-1.0) ** ell
    return cauchy_operator(
        terms, geo,
        diag=lambda vi, vj, lam: _diag_limit(vi, vj, lam, t, coef),
        meta={"tangent": ("a", i, ell)})


# ---------------------------------------------------------------------------
# physical kernel
# ---------------------------------------------------------------------------

def _physical_factors(system, t):
    """(left, right) with P_ij(x, y) = left(i, x)^T right(j, y) - Q_ij:
    mu on the X contour and lam on iR, with the one Cauchy factor 1 /
    (lam - mu) of all times."""
    return double_contour_factors(
        [system.grid(c) for c in _X_LABELS], system.grid("iR"),
        np.zeros(len(t)), lambda i, x, mu: phase(i, x, mu, t),
        lambda j, y, lam: phase(j, y, lam, t))


def physical_entry(i, j, x, y, system, times):
    """Single kernel entry P_ij(x, y), a real mirror-half sum."""
    t = validate_times(times)
    left, right = _physical_factors(system, t)
    u, v = left(i, np.array([float(x)])), right(j, np.array([float(y)]))
    return float((u.T @ v)[0, 0] - heat_kernel(i, j, x, y, t))


def physical_operator(endpoints, times, system):
    """Nystrom discretization of the physical operator chi P chi."""
    t = validate_times(times)
    meta = {**system.meta, "process": "pearcey",
            "representation": "physical"}
    return interval_operator(
        interval_grids(endpoints), *_physical_factors(system, t),
        lambda i, j, xs, ys: heat_kernel(i, j, xs, ys, t), meta)
