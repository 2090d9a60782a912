"""Isomonodromic layer: jump matrices, exponent matrices, moment data.

The Riemann-Hilbert jump attached to the integrable kernel is
I - f(lam) g^T(lam); its outer-product factor is nilpotent, and
conjugating by the diagonal exponent matrix T(lam) reduces it to a
constant sign pattern per contour component.  The resolvent supplies
the expansion moments Gamma_1, Gamma_2 of the RH solution, which give
log-derivatives of the determinant in every endpoint and every time.
Every function takes the ``endpoints`` of a gap question as an endpoint
object or as one endpoint list per time (``gap.as_endpoints``).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import airy, pearcey
from .contour import build_airy_system, build_pearcey_system, fg_matrices
from .fredholm import dets, resolvent_moments
from .gap import as_endpoints, is_airy


def _module(process, times, endpoints):
    """(module, times, endpoints) of one gap question (``as_endpoints``)."""
    t, ep = as_endpoints(process, times, endpoints)
    return (airy if is_airy(process) else pearcey), t, ep


def jump_matrix(process, lam, comp_label, endpoints, times):
    """Bare outer product f(lam) g^T(lam) on one contour component.

    The Riemann-Hilbert jump is I minus this matrix (the 1/(2 pi i)
    normalization of f cancels the 2 pi i of the jump formula).
    """
    mod, t, ep = _module(process, times, endpoints)
    f, g = fg_matrices(mod.exponents, lam, comp_label, ep, t)
    return f @ g.T


def exponent_diagonal(process, lam, endpoints, times):
    """Diagonal of the exponent matrix T(lam) as a length-p vector.

    Row 0 holds the mean of all phase values; block row (i, ell) holds
    the mean minus its own phase, so the trace vanishes identically.
    """
    mod, t, ep = _module(process, times, endpoints)
    phases = [mod.phase(i, a, lam, t)
              for i, ends in enumerate(ep.per_time) for a in ends]
    mean = sum(phases) / ep.p if phases else 0.0
    diag = np.empty(ep.p, dtype=complex)
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
    mod, t, ep = _module(process, times, endpoints)
    build = build_airy_system if mod is airy else build_pearcey_system
    system = build(t, m=m, endpoint_scale=ep.max_abs_endpoint())
    return resolvent_moments(mod.iiks_operator(ep, t, system))[0]


def moment_log_derivatives(process, endpoints, times, moments):
    """The log-derivatives of det from its moments (Gamma_1, Gamma_2).

    d log det / d a_i^(ell) = -(Gamma_1)_qq with q the row of a_i^(ell);
    d log det / d tau_i sums over the rows qs of time i the diagonal of
    2 tau_i Gamma_1 + Gamma_1^2 - 2 Gamma_2 (Airy) or of
    (Gamma_1^2 - 2 Gamma_2) / 2 (Pearcey).  Returns
    {"a": {(i, ell): value}, "tau": {i: value}}.
    """
    mod, t, ep = _module(process, times, endpoints)
    g1, g2 = moments
    g1sq = g1 @ g1
    out = {"a": {}, "tau": {}}
    for i, ends in enumerate(ep.per_time):
        qs = [ep.row_index(i, ell) for ell in range(len(ends))]
        for ell, q in enumerate(qs):
            out["a"][i, ell] = -g1[q, q].real
        if mod is airy:
            out["tau"][i] = sum((2.0 * t[i] * g1 + g1sq - 2.0 * g2)[q, q].real
                                for q in qs)
        else:
            out["tau"][i] = 0.5 * sum((g1sq - 2.0 * g2)[q, q].real
                                      for q in qs)
    return out


def _central(f, h):
    """Central difference (f(h) - f(-h)) / 2h of f at 0."""
    return (f(h) - f(-h)) / (2.0 * h)


def _entry(fd, formula):
    scale = max(abs(fd), abs(formula), 1e-12)
    return {"fd": fd, "formula": formula,
            "rel_mismatch": abs(fd - formula) / scale}


#: the central-difference step in every endpoint and every time
_FD_STEP = 1e-3


def _derivative_report(process, endpoints, times, m):
    """Central differences of log det against the moment formulas, with
    one contour system per distinct (times, largest |endpoint|), the
    builder's only inputs besides m, alive one at a time; the
    determinants on a system form one stacked batch (``iiks_operators``,
    ``fredholm.dets``)."""
    mod, t, ep = _module(process, times, endpoints)
    build = build_airy_system if mod is airy else build_pearcey_system
    steps = {"moments": (t, ep)}
    for h, (i, ends) in itertools.product((_FD_STEP, -_FD_STEP),
                                          enumerate(ep.per_time)):
        steps.update({("a", i, ell, h): (t, ep.shifted(i, ell, h))
                      for ell in range(len(ends))})
        steps["tau", i, h] = (t + h * (np.arange(len(t)) == i), ep)
    disc = lambda step: (tuple(step[1][0]), step[1][1].max_abs_endpoint())
    values = {}
    for (tq, scale), group in itertools.groupby(
            sorted(steps.items(), key=disc), disc):
        system = build(tq, m=m, endpoint_scale=scale)
        group = dict(group)
        if group.pop("moments", None):
            values["moments"] = resolvent_moments(
                mod.iiks_operator(ep, t, system))[0]
        if group:
            values.update(zip(group, (r.log_value.real for r in dets(
                mod.iiks_operators([ek for _, ek in group.values()], tq,
                                   system)))))
        del system
    formulas = moment_log_derivatives(process, ep, t, values["moments"])
    report = {
        "a": {(i, ell): _entry(_central(lambda h: values["a", i, ell, h],
                                        _FD_STEP), f)
              for (i, ell), f in formulas["a"].items()},
        "tau": {i: _entry(_central(lambda h: values["tau", i, h],
                                   _FD_STEP), f)
                for i, f in formulas["tau"].items()}}
    report["max_rel_mismatch"] = max(
        v["rel_mismatch"] for part in report.values() for v in part.values())
    return report


def airy_derivative_report(endpoints, times, m=80):
    """Finite differences of log det against the Airy moment formulas."""
    return _derivative_report("airy", endpoints, times, m)


def pearcey_derivative_report(endpoints, times, m=80):
    """Finite differences against the Pearcey moment formulas."""
    return _derivative_report("pearcey", endpoints, times, m)
