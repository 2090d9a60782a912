"""Finite-difference verification of the two-time third-order PDE.

For the two-time process on semi-infinite intervals [a, inf), [b, inf)
with time separation tau, the log gap probability G(tau, E, W) in the
variables E = (a+b)/2, W = (a-b)/2 satisfies

    (tau^2/2 dW - W dE)(dE^2 - dW^2) G + 2 tau dTauEW G
        = {d2EW G, d2E G}_E,      {f, g}_E := dE(f) g - f dE(g).

The gradient (dTau G, dE G, dW G) at a point comes from one resolvent
solve (``isomono.moment_log_derivatives``); both sides of the PDE are
then central differences of the gradient on a 3 x 3 (E, W) grid at the
center tau.  The nine points share one contour system, so the
differences see no change of discretization between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .airy import AiryEndpoints, iiks_operator
from .contour import build_airy_system, validate_times
from .gap import airy_gap_probability
from .isomono import moment_log_derivatives, resolvent_moments


@dataclass(frozen=True)
class GradientGrid:
    """Gradients of G at the points (tau, E + i step, W + j step).

    ``values[i + 1, j + 1]`` holds (dTau G, dE G, dW G) for i, j in
    {-1, 0, 1}, with tau, E, W the ``center``.  ``radii`` are the
    truncation radii of the contour system the nine points share, and
    ``radius_capped`` the components whose radius hit its cap.
    """

    center: tuple
    step: float
    values: np.ndarray  # shape (3, 3, 3), axes (E, W, gradient component)
    radii: dict = field(default_factory=dict)
    radius_capped: tuple = ()


def two_time_logdet(tau, e, w, m=120):
    """log det for intervals [E+W, inf), [E-W, inf) at times (0, tau)."""
    if tau <= 0:
        raise ValueError("need tau > 0")
    res = airy_gap_probability([0.0, tau], [[e + w], [e - w]], m=m)
    val = res.value
    if not val.real > 0 or abs(val.imag) > 1e-6 * max(val.real, 1e-12):
        raise RuntimeError(f"determinant not a positive real: {val}")
    return res.log_value.real


def two_time_gradient(tau, e, w, m=120):
    """(dTau G, dE G, dW G) of ``two_time_logdet`` from one solve.

    The one-point case of ``build_grid``: the contour system takes its
    radii at this point's endpoints.
    """
    return _stencil(tau, [(e, w)], m)[1][0]


def build_grid(center, step=0.05, radius=2, m=120):
    """Gradients of G at 9 points around ``center``, all at its tau.

    The points are (E + i step, W + j step), i, j in {-1, 0, 1}.
    ``radius`` must be at least 2 but no longer shapes the grid.
    """
    if int(radius) < 2:
        raise ValueError("need radius >= 2")
    tau, e, w = center
    system, grads = _stencil(tau, [(e + step * (i - 1), w + step * (j - 1))
                                   for i, j in np.ndindex(3, 3)], m)
    return GradientGrid(center=tuple(center), step=float(step),
                        values=np.reshape(grads, (3, 3, 3)),
                        radii=dict(system.meta["radii"]),
                        radius_capped=system.meta["radius_capped"])


def _stencil(tau, points, m):
    """(system, gradients) at the (E, W) ``points``, all at time gap tau.

    The points share one contour system, and so its Cauchy geometry,
    and solve as one batch (``fredholm.resolvent_moments``).  Its
    truncation radii are taken at the largest |endpoint| of all points;
    the truncation rule is monotone in it, so every point meets it.
    """
    times = validate_times([0.0, tau])  # ContourError unless tau > 0
    eps = [AiryEndpoints([[e + w], [e - w]]) for e, w in points]
    system = build_airy_system(
        times, m=m, endpoint_scale=max(ep.max_abs_endpoint() for ep in eps))
    moments = resolvent_moments(iiks_operator(ep, times, system)
                                for ep in eps)
    return system, [_gradient(mo, ep, times) for mo, ep in zip(moments, eps)]


def _gradient(moments, endpoints, times):
    """(dTau G, dE G, dW G) from the resolvent ``moments`` of the
    intervals [a, inf), [b, inf) at times (0, tau).

    With a = E + W and b = E - W, dE = da + db and dW = da - db.
    """
    d = moment_log_derivatives("airy", endpoints, times, moments)
    da, db = d["a"][0, 0], d["a"][1, 0]
    return d["tau"][1], da + db, da - db


def derivatives(grid):
    """The mixed partials of G that the PDE combines, at the center.

    Keyed by (n_tau, n_E, n_W); second-order central differences of
    the gradient components.
    """
    h = grid.step
    gt, ge, gw = np.moveaxis(grid.values, -1, 0)

    def d1(g):  # d/dE and d/dW
        return (g[2, 1] - g[0, 1]) / (2 * h), (g[1, 2] - g[1, 0]) / (2 * h)

    def d2(g):  # d^2/dE^2 and d^2/dW^2
        return ((g[2, 1] - 2 * g[1, 1] + g[0, 1]) / h ** 2,
                (g[1, 2] - 2 * g[1, 1] + g[1, 0]) / h ** 2)

    (g_ee, g_ew), (g_eee, g_eww), (g_eew, g_www) = d1(ge), d2(ge), d2(gw)
    g_tew = (gt[2, 2] - gt[2, 0] - gt[0, 2] + gt[0, 0]) / (4 * h ** 2)
    return {(0, 2, 1): g_eew, (0, 0, 3): g_www, (0, 3, 0): g_eee,
            (0, 1, 2): g_eww, (1, 1, 1): g_tew, (0, 2, 0): g_ee,
            (0, 1, 1): g_ew}


def avm_residual(grid):
    """Both sides of the two-time PDE at the grid center.

    Returns lhs, rhs, residual = |lhs - rhs| and the scale of the
    largest participating term.
    """
    tau = grid.center[0]
    w = grid.center[2]
    d = derivatives(grid)
    t1 = 0.5 * tau ** 2 * (d[0, 2, 1] - d[0, 0, 3])  # tau^2/2 dW (dE^2-dW^2)
    t2 = -w * (d[0, 3, 0] - d[0, 1, 2])              # -W dE (dE^2-dW^2)
    t3 = 2.0 * tau * d[1, 1, 1]
    lhs = t1 + t2 + t3
    r1 = d[0, 2, 1] * d[0, 2, 0]                     # dE(dEW G) * dEE G
    r2 = -d[0, 1, 1] * d[0, 3, 0]                    # - dEW G * dE(dEE G)
    rhs = r1 + r2
    scale = max(abs(t1), abs(t2), abs(t3), abs(r1), abs(r2), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "scale": scale, "relative_residual": abs(lhs - rhs) / scale}


def richardson(coarse, fine):
    """Signed residuals (lhs - rhs) / scale of two grids, steps h0 > h1,
    and the Richardson extrapolate (r^2 d(h1) - d(h0)) / (r^2 - 1) of d =
    lhs - rhs, r = h0 / h1, over the fine scale: free of the h^2 error."""
    lo, hi = avm_residual(coarse), avm_residual(fine)
    d0, d1 = lo["lhs"] - lo["rhs"], hi["lhs"] - hi["rhs"]
    r2 = (coarse.step / fine.step) ** 2
    return {"signed_residuals": [d0 / lo["scale"], d1 / hi["scale"]],
            "extrapolate": (r2 * d1 - d0) / (r2 - 1) / hi["scale"]}
