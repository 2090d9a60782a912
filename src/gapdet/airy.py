"""Airy-process kernels.

Physical side: the multi-time matrix kernel A = A_tilde - B, where
A_tilde is a double contour integral of e^{theta(x,mu) - theta(y,lam)}
against a Cauchy factor and B is the Gaussian bridge term, restricted
to per-time interval collections.  A is real on the real line: one
mirror half of its contours is summed (``double_contour_factors``).

Integrable side: the same determinant comes from a kernel
f^T(lam) g(mu) / (lam - mu) on the contour family built by
``contour.build_airy_system``, with vector data assembled here.
"""

from __future__ import annotations

import numpy as np

from .contour import (
    ContourComponent,
    Endpoints,
    _radius,
    _system,
    build_slots,
    endpoint_terms,
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
    return theta(x, mu - times[i])


def gaussian_bridge(i, j, x, y, times):
    """Gaussian bridge entry B_ij(x, y); zero unless tau_i < tau_j."""
    dt = times[j] - times[i]
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

def exponents(z, comp_label, ends, t, gauge=False):
    """Exponents of the bare columns f_b and g_b (without the 1/(2 pi i)
    prefactor) at nodes ``z`` of one contour component: the blocks that
    do not vanish, yielded as ``contour.build_slots`` reads them, with
    ``ends[i]`` the endpoints of time i of every set of a batch.

    ``comp_label`` is "gamma_R" or "line_<j>" (1-based j); the chi
    factors select which rows are populated.  With ``gauge`` the rows of
    line j carry the row gauge e^{-a lam_j} of the first endpoint a of
    time j.
    """
    if comp_label == "gamma_R":
        for b in range(len(t)):
            z_t = z - t[b]
            half = 0.5 * theta(0.0, z_t)
            yield 0, None, b, half
            yield 1, b, b, half - ends[b] * z_t
        return
    b = int(comp_label.split("_")[1]) - 1  # the one component line b+1 carries
    z_b = z - t[b]
    gexp = -ends[b][:, :1] * z_b if gauge and ends[b].shape[1] \
        else np.zeros_like(z_b)
    yield 0, b, b, ends[b] * z_b + gexp
    gexp, th = -gexp, theta(0.0, z_b)  # g's columns carry 1/d
    yield 1, None, b, -th + gexp
    for i in range(b):
        yield 1, i, b, theta(ends[i], z - t[i]) - th + gexp


def iiks_operators(endpoint_sets, times, system, gauge=True):
    """Discretized integrable-kernel operators of a batch of endpoint
    sets, one endpoint count per time, on the contour system: one
    stacked ``CauchyOperator``, its columns built in one pass."""
    f, g = build_slots(system, endpoint_sets, exponents,
                       validate_times(times), gauge)
    meta = {**system.meta, "process": "airy", "gauge": gauge,
            "p": f.shape[1]}
    return cauchy_operator([(f, g)], system.geometry, meta=meta)


def iiks_operator(endpoints, times, system, gauge=True):
    """``iiks_operators`` of the one set ``endpoints``, unstacked."""
    return iiks_operators([endpoints], times, system, gauge).member(0)


def iiks_tangent_operator(endpoints, times, system, i, ell):
    """Endpoint derivative d K / d a_i^(ell) sampled like ``iiks_operator``.

    The gauge factors are held fixed; the similarity commutator they
    generate is traceless and drops out of Jacobi's formula.
    """
    t, geo = validate_times(times), system.geometry
    [f], [g] = build_slots(system, [endpoints], exponents, t, True)
    terms = endpoint_terms(f, g, geo, endpoints.row_index(i, ell), i, t[i])
    return cauchy_operator(terms, geo, meta={"tangent": ("a", i, ell)})


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


def _physical_factors(phys, t):
    """(left, right) with A_ij(x, y) = left(i, x)^T right(j, y) - B_ij:
    mu on gamma_R, the mu contour of time i shifted by -tau_i, and lam
    on the left line, with 1 / (lam + tau_j - mu) and theta(y, lam)."""
    right_grid, left_grid = phys.grids
    return double_contour_factors(
        [right_grid], left_grid, t, lambda i, x, mu: theta(x, mu - t[i]),
        lambda j, y, lam: theta(y, lam))


def physical_entry(i, j, x, y, phys, times):
    """Single kernel entry A_ij(x, y), a real mirror-half sum."""
    t = validate_times(times)
    left, right = _physical_factors(phys, t)
    u, v = left(i, np.array([float(x)])), right(j, np.array([float(y)]))
    return float((u.T @ v)[0, 0] - gaussian_bridge(i, j, x, y, t))


def physical_operator(endpoints, times, m=80):
    """Nystrom discretization of the physical operator chi A chi."""
    t = validate_times(times)
    grids = interval_grids(endpoints)
    all_x = np.concatenate([x for x, _ in grids])
    x_min = float(all_x.min()) if len(all_x) else 0.0
    phys = physical_contours(t, m=m, x_min=x_min)
    meta = {**phys.meta, "process": "airy", "representation": "physical"}
    return interval_operator(
        grids, *_physical_factors(phys, t),
        lambda i, j, xs, ys: gaussian_bridge(i, j, xs, ys, t), meta)
