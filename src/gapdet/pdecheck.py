"""Finite-difference verification of the two-time third-order PDE.

For the two-time process on semi-infinite intervals [a, inf), [b, inf)
with time separation tau, the log gap probability G(tau, E, W) in the
variables E = (a+b)/2, W = (a-b)/2 satisfies

    (tau^2/2 dW - W dE)(dE^2 - dW^2) G + 2 tau dTauEW G
        = {d2EW G, d2E G}_E,      {f, g}_E := dE(f) g - f dE(g).

Both sides are evaluated by central differences on a uniform grid of
log determinants, of which only the points the stencils read are
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gap import airy_gap_probability


@dataclass(frozen=True)
class LogDetGrid:
    """Uniform (tau, E, W) grid of two-time log gap probabilities.

    Only the points that the PDE stencils read hold a value; every
    other entry is NaN.
    """

    center: tuple
    step: float
    radius: int
    values: np.ndarray  # shape (2r+1, 2r+1, 2r+1), axes (tau, E, W)
    diagnostics: dict = field(default_factory=dict)


_STENCILS = {
    0: np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    1: np.array([0.0, -0.5, 0.0, 0.5, 0.0]),
    2: np.array([0.0, 1.0, -2.0, 1.0, 0.0]),
    3: np.array([-0.5, 1.0, 0.0, -1.0, 0.5]),
}

#: the mixed partials (n_tau, n_E, n_W) that ``avm_residual`` combines;
#: ``build_grid`` evaluates exactly the points their stencils read
PDE_ORDERS = ((0, 2, 1), (0, 0, 3), (0, 3, 0), (0, 1, 2), (1, 1, 1),
              (0, 2, 0), (0, 1, 1))


def _support(orders):
    """Boolean 5x5x5 mask of the points a tensor stencil weights."""
    st, se, sw = (_STENCILS[o] != 0 for o in orders)
    return st[:, None, None] & se[None, :, None] & sw[None, None, :]


_SUPPORT = np.logical_or.reduce([_support(o) for o in PDE_ORDERS])

#: the most grid steps below the center tau that ``build_grid`` reads
TAU_REACH = 2 - int(np.nonzero(_SUPPORT)[0].min())


def two_time_logdet(tau, e, w, m=120):
    """log det for intervals [E+W, inf), [E-W, inf) at times (0, tau)."""
    if tau <= 0:
        raise ValueError("need tau > 0")
    res = airy_gap_probability([0.0, tau], [[e + w], [e - w]], m=m)
    val = res.value
    if not val.real > 0 or abs(val.imag) > 1e-6 * max(val.real, 1e-12):
        raise RuntimeError(f"determinant not a positive real: {val}")
    return res.log_value.real


def build_grid(center, step=0.05, radius=2, m=120):
    """Log determinants at the stencil points of a grid around ``center``.

    Of the (2r+1)^3 grid points only those read by the stencils of
    ``PDE_ORDERS`` are evaluated (21 of them); the rest are NaN.
    """
    r = int(radius)
    if r < 2:
        raise ValueError("need a radius >= 2 grid for the stencils")
    vals = np.full((2 * r + 1,) * 3, np.nan)
    for idx in zip(*np.nonzero(_SUPPORT)):
        dt, de, dw = (step * (i - 2) for i in idx)
        vals[tuple(i + r - 2 for i in idx)] = two_time_logdet(
            center[0] + dt, center[1] + de, center[2] + dw, m=m)
    if np.any(vals[~np.isnan(vals)] > 1e-12):
        raise RuntimeError("grid holds log probabilities; found positive values")
    return LogDetGrid(center=tuple(center), step=float(step), radius=r,
                      values=vals, diagnostics={"m": m})


def derivative(grid, orders):
    """Central-difference mixed partial d^orders G at the grid center.

    ``orders`` = (n_tau, n_E, n_W); supported orders per axis are 0..3
    on a radius-2 grid.  Entries the stencil gives zero weight are not
    read; a NaN among the weighted ones raises.
    """
    if grid.radius < 2:
        raise ValueError("need a radius >= 2 grid for the stencils")
    if any(o not in _STENCILS for o in orders):
        raise ValueError(f"unsupported derivative orders {orders}")
    c = grid.radius
    sub = np.where(_support(orders),
                   grid.values[c - 2:c + 3, c - 2:c + 3, c - 2:c + 3], 0.0)
    if np.isnan(sub).any():
        raise ValueError(f"stencil {orders} reads an unevaluated grid point")
    vt, ve, vw = (_STENCILS[o] / grid.step ** o for o in orders)
    return float(np.einsum("i,j,k,ijk->", vt, ve, vw, sub))


def avm_residual(grid):
    """Both sides of the two-time PDE at the grid center.

    Returns lhs, rhs, residual = |lhs - rhs| and the scale of the
    largest participating term.
    """
    tau = grid.center[0]
    w = grid.center[2]
    d = {o: derivative(grid, o) for o in PDE_ORDERS}
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
