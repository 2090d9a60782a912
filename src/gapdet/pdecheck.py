"""Finite-difference verification of the two-time third-order PDE.

For the two-time process on semi-infinite intervals [a, inf), [b, inf)
with time separation tau, the log gap probability G(tau, E, W) in the
variables E = (a+b)/2, W = (a-b)/2 satisfies

    (tau^2/2 dW - W dE)(dE^2 - dW^2) G + 2 tau dTauEW G
        = {d2EW G, d2E G}_E,      {f, g}_E := dE(f) g - f dE(g).

Both sides are evaluated by central differences on a uniform grid of
log determinants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gap import airy_gap_probability


@dataclass(frozen=True)
class LogDetGrid:
    """Uniform (tau, E, W) grid of two-time log gap probabilities."""

    center: tuple
    step: float
    radius: int
    values: np.ndarray  # shape (2r+1, 2r+1, 2r+1), axes (tau, E, W)
    diagnostics: dict = field(default_factory=dict)


def two_time_logdet(tau, e, w, m=120, **kw):
    """log det for intervals [E+W, inf), [E-W, inf) at times (0, tau)."""
    if tau <= 0:
        raise ValueError("need tau > 0")
    res = airy_gap_probability([0.0, tau], [[e + w], [e - w]], m=m, **kw)
    val = res.value
    if not val.real > 0 or abs(val.imag) > 1e-6 * max(val.real, 1e-12):
        raise RuntimeError(f"determinant not a positive real: {val}")
    return res.log_value.real


def build_grid(center, step=0.05, radius=2, m=120, **kw):
    """Fill a (tau, E, W) grid of log determinants around ``center``."""
    tau0, e0, w0 = center
    r = int(radius)
    if r == 0:
        vals = np.array([[[two_time_logdet(tau0, e0, w0, m=m, **kw)]]])
        return LogDetGrid(center=tuple(center), step=float(step), radius=0,
                          values=vals, diagnostics={"m": m})
    offs = step * np.arange(-r, r + 1)
    vals = np.empty((2 * r + 1,) * 3)
    for it, dt in enumerate(offs):
        for ie, de in enumerate(offs):
            for iw, dw in enumerate(offs):
                vals[it, ie, iw] = two_time_logdet(
                    tau0 + dt, e0 + de, w0 + dw, m=m, **kw)
    if np.any(vals > 1e-12):
        raise RuntimeError("grid holds log probabilities; found positive values")
    return LogDetGrid(center=tuple(center), step=float(step), radius=r,
                      values=vals, diagnostics={"m": m})


_STENCILS = {
    0: np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    1: np.array([0.0, -0.5, 0.0, 0.5, 0.0]),
    2: np.array([0.0, 1.0, -2.0, 1.0, 0.0]),
    3: np.array([-0.5, 1.0, 0.0, -1.0, 0.5]),
}


def derivative(grid, orders):
    """Central-difference mixed partial d^orders G at the grid center.

    ``orders`` = (n_tau, n_E, n_W); supported orders per axis are 0..3
    on a radius-2 grid.
    """
    if grid.radius < 2:
        raise ValueError("need a radius >= 2 grid for the stencils")
    if any(o not in _STENCILS for o in orders):
        raise ValueError(f"unsupported derivative orders {orders}")
    c = grid.radius
    sub = grid.values[c - 2:c + 3, c - 2:c + 3, c - 2:c + 3]
    vt, ve, vw = (_STENCILS[o] / grid.step ** o for o in orders)
    return float(np.einsum("i,j,k,ijk->", vt, ve, vw, sub))


def avm_residual(grid):
    """Both sides of the two-time PDE at the grid center.

    Returns lhs, rhs, residual = |lhs - rhs| and the scale of the
    largest participating term.
    """
    tau = grid.center[0]
    w = grid.center[2]
    d = lambda *o: derivative(grid, o)
    t1 = 0.5 * tau ** 2 * (d(0, 2, 1) - d(0, 0, 3))  # tau^2/2 dW (dE^2-dW^2)
    t2 = -w * (d(0, 3, 0) - d(0, 1, 2))              # -W dE (dE^2-dW^2)
    t3 = 2.0 * tau * d(1, 1, 1)
    lhs = t1 + t2 + t3
    r1 = d(0, 2, 1) * d(0, 2, 0)                     # dE(dEW G) * dEE G
    r2 = -d(0, 1, 1) * d(0, 3, 0)                    # - dEW G * dE(dEE G)
    rhs = r1 + r2
    scale = max(abs(t1), abs(t2), abs(t3), abs(r1), abs(r2), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "scale": scale, "relative_residual": abs(lhs - rhs) / scale}
