"""Independent Tracy-Widom oracle on the classical Airy kernel.

This module deliberately avoids the contour machinery used everywhere
else: the Airy function comes from ``scipy.special.airy``, the kernel
is the real-line integral K(x,y) = int_0^inf Ai(x+t) Ai(y+t) dt, and
the gap probability on [s, inf) comes from a plain real Nystrom
determinant.  It serves as the cross-check for the single-time Airy
reduction.
"""

from __future__ import annotations

import numpy as np

from .contour import gauss_legendre_panels


def airy_ai(x):
    """Ai(x) for real x, from ``scipy.special.airy`` (AMOS).

    ``scipy.special`` is imported here, not at module level, so that
    importing gapdet does not load it.
    """
    from scipy.special import airy

    out = airy(np.asarray(x, dtype=float))[0]
    return float(out) if out.ndim == 0 else out


def airy_kernel_matrix(x, t_cut=18.0, m_t=240):
    """Classical Airy kernel sampled at the points ``x``.

    K(x_i, x_j) = int_0^t_cut Ai(x_i+t) Ai(x_j+t) dt by Gauss-Legendre;
    the superexponential decay of Ai makes the tail negligible.
    """
    x = np.asarray(x, dtype=float)
    t, wt = gauss_legendre_panels(
        t_cut * np.array([0.0, 0.1, 0.25, 0.5, 1.0]), m_t)
    a = airy_ai(x[:, None] + t[None, :]) * np.sqrt(wt)[None, :]
    return a @ a.T


def gap_probability(s, t_cut=18.0, m_x=200, m_t=240):
    """Tracy-Widom F2(s): no-eigenvalue probability on [s, inf).

    Real-line Nystrom determinant of the classical Airy kernel on the
    truncated interval [s, s + t_cut].
    """
    breaks = s + t_cut * np.array([0.0, 0.08, 0.2, 0.45, 1.0])
    x, w = gauss_legendre_panels(breaks, m_x)
    k = airy_kernel_matrix(x, t_cut=t_cut, m_t=m_t)
    sw = np.sqrt(w)
    a = np.eye(len(x)) - sw[:, None] * k * sw[None, :]
    sign, logdet = np.linalg.slogdet(a)
    return float(sign * np.exp(logdet))
