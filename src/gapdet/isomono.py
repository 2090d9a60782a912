"""Isomonodromic layer: jump matrices, exponent matrices, moment data.

The Riemann-Hilbert jump attached to the integrable kernel is
I - f(lam) g^T(lam); its outer-product factor is nilpotent, and
conjugating by the diagonal exponent matrix T(lam) reduces it to a
constant sign pattern per contour component.  The resolvent supplies
the expansion moments Gamma_1, Gamma_2 of the RH solution, which give
log-derivatives of the determinant in every endpoint and every time.
"""

from __future__ import annotations

import numpy as np

from . import airy, pearcey
from .contour import (TWO_PI_I, build_airy_system, build_pearcey_system,
                      fg_matrices, validate_times)
from .fredholm import solve_resolvent
from .gap import airy_gap_probability, pearcey_gap_probability


def jump_matrix(process, lam, comp_label, endpoints, times):
    """Bare outer product f(lam) g^T(lam) on one contour component.

    The Riemann-Hilbert jump is I minus this matrix (the 1/(2 pi i)
    normalization of f cancels the 2 pi i of the jump formula).
    """
    mod = airy if process == "airy" else pearcey
    f, g = fg_matrices(mod.f_columns, mod.g_columns, lam, comp_label,
                       endpoints, times)
    return f @ g.T


def exponent_diagonal(process, lam, endpoints, times):
    """Diagonal of the exponent matrix T(lam) as a length-p vector.

    Row 0 holds the mean of all phase values; block row (i, ell) holds
    the mean minus its own phase, so the trace vanishes identically.
    """
    mod = airy if process == "airy" else pearcey
    phases = [mod.phase(i, a, lam, times)
              for i, ends in enumerate(endpoints.per_time) for a in ends]
    mean = sum(phases) / endpoints.p if phases else 0.0
    diag = np.empty(endpoints.p, dtype=complex)
    diag[0] = mean
    for r, ph in enumerate(phases, start=1):
        diag[r] = mean - ph
    return diag


def conjugated_jump(process, lam, comp_label, endpoints, times):
    """e^{-T(lam)} (f g^T)(lam) e^{T(lam)}: constant entries in {0, +-1}.

    Meant for nodes at moderate distance from the apexes; far out in
    the tails the bare outer product under/overflows in double
    precision before the conjugation can cancel it.
    """
    g0 = jump_matrix(process, lam, comp_label, endpoints, times)
    d = exponent_diagonal(process, lam, endpoints, times)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = np.exp(d[None, :] - d[:, None]) * g0
    return np.where(g0 == 0, 0.0, out)


def gamma_moments(process, endpoints, times, m=80):
    """First two expansion moments of the RH solution.

    Gamma_k = int_gamma F(mu) g^T(mu) mu^{k-1} d mu with F the resolvent
    image of f; the diagonal gauge drops out of the product F g^T.
    """
    t = validate_times(times)
    endpoints.check_times(t)
    mod, build = (airy, build_airy_system) if process == "airy" \
        else (pearcey, build_pearcey_system)
    system = build(t, m=m, endpoint_scale=endpoints.max_abs_endpoint())
    return resolvent_moments(mod.iiks_operator(endpoints, t, system))


def resolvent_moments(op):
    """(Gamma_1, Gamma_2) of the IIKS operator ``op`` from one solve."""
    s = op.slots
    sol = solve_resolvent(op, s.f.T / TWO_PI_I)
    out = []
    for k in (1, 2):
        wxi = s.weights * s.nodes ** (k - 1)
        out.append(np.einsum("s,sp,qs->pq", wxi, sol, s.g))
    return tuple(out)


def log_derivatives(process, endpoints, times, m=80):
    """Every endpoint and time log-derivative of det from one moment solve.

    Returns {"a": {(i, ell): value}, "tau": {i: value}}; see
    ``moment_log_derivatives``.
    """
    moments = gamma_moments(process, endpoints, times, m=m)
    return moment_log_derivatives(process, endpoints, times, moments)


def moment_log_derivatives(process, endpoints, times, moments):
    """The log-derivatives of det from its moments (Gamma_1, Gamma_2).

    d log det / d a_i^(ell) = -(Gamma_1)_qq with q the row of a_i^(ell);
    d log det / d tau_i sums over the rows qs of time i the diagonal of
    2 tau_i Gamma_1 + Gamma_1^2 - 2 Gamma_2 (Airy) or of
    (Gamma_1^2 - 2 Gamma_2) / 2 (Pearcey).  Returns
    {"a": {(i, ell): value}, "tau": {i: value}}.
    """
    t = validate_times(times)
    g1, g2 = moments
    g1sq = g1 @ g1
    out = {"a": {}, "tau": {}}
    for i, ends in enumerate(endpoints.per_time):
        qs = [endpoints.row_index(i, ell) for ell in range(len(ends))]
        for ell, q in enumerate(qs):
            out["a"][i, ell] = -g1[q, q].real
        if process == "airy":
            out["tau"][i] = sum((2.0 * t[i] * g1 + g1sq - 2.0 * g2)[q, q].real
                                for q in qs)
        else:
            out["tau"][i] = 0.5 * sum((g1sq - 2.0 * g2)[q, q].real
                                      for q in qs)
    return out


def _log_det(process, times, endpoints, m):
    fn = airy_gap_probability if process == "airy" \
        else pearcey_gap_probability
    return fn(times, endpoints, m=m).log_value.real


def _fd_endpoint(process, endpoints, times, i, ell, h, m):
    up = _log_det(process, times, endpoints.shifted(i, ell, h), m)
    dn = _log_det(process, times, endpoints.shifted(i, ell, -h), m)
    return (up - dn) / (2.0 * h)


def _fd_time(process, endpoints, times, i, h, m):
    t = np.asarray(times, dtype=float)
    tp, tm = t.copy(), t.copy()
    tp[i] += h
    tm[i] -= h
    up = _log_det(process, tp, endpoints, m)
    dn = _log_det(process, tm, endpoints, m)
    return (up - dn) / (2.0 * h)


def _entry(fd, formula):
    scale = max(abs(fd), abs(formula), 1e-12)
    return {"fd": fd, "formula": formula,
            "rel_mismatch": abs(fd - formula) / scale}


def _derivative_report(process, endpoints, times, m, step, tau_step):
    """Central differences of log det against ``log_derivatives``."""
    t = validate_times(times)
    formulas = log_derivatives(process, endpoints, t, m=m)
    report = {
        "a": {(i, ell): _entry(_fd_endpoint(process, endpoints, t, i, ell,
                                            step, m), f)
              for (i, ell), f in formulas["a"].items()},
        "tau": {i: _entry(_fd_time(process, endpoints, t, i, tau_step, m), f)
                for i, f in formulas["tau"].items()}}
    report["max_rel_mismatch"] = max(
        v["rel_mismatch"] for part in report.values() for v in part.values())
    return report


def airy_derivative_report(endpoints, times, m=80, step=1e-3,
                           tau_step=1e-3):
    """Finite differences of log det against the Airy moment formulas."""
    return _derivative_report("airy", endpoints, times, m, step, tau_step)


def pearcey_derivative_report(endpoints, times, m=80, step=1e-3,
                              tau_step=1e-3):
    """Finite differences against the Pearcey moment formulas."""
    return _derivative_report("pearcey", endpoints, times, m, step, tau_step)
