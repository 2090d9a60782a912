"""High-level gap-probability drivers.

Each driver builds the requested representation (physical interval
kernel or integrable contour kernel), discretizes it and returns the
Fredholm determinant with diagnostics.  The two representations of the
same configuration agree up to quadrature error; ``equivalence_report``
computes both and the difference.
"""

from __future__ import annotations

from . import airy, pearcey
from .contour import (build_airy_system, build_pearcey_system,
                      pearcey_contours, validate_times)
from .fredholm import det, dets


def is_airy(process):
    """True for ``"airy"``, False for ``"pearcey"``; else ValueError."""
    if process not in ("airy", "pearcey"):
        raise ValueError(
            f"process: expected 'airy' or 'pearcey', got {process!r}")
    return process == "airy"


def as_endpoints(process, times, intervals):
    """Validated ``(times, endpoints)`` of one gap question.

    ``intervals`` holds one endpoint list per time, or is already an
    endpoint object of the process's class.
    """
    t = validate_times(times)
    cls = airy.AiryEndpoints if is_airy(process) else pearcey.PearceyEndpoints
    ep = intervals if isinstance(intervals, cls) else cls(intervals)
    if len(t) != ep.n:
        raise ValueError(f"{len(t)} times but {ep.n} endpoint lists: "
                         "need one endpoint list per time")
    return t, ep


def airy_gap_probability(times, intervals, representation="iiks", m=80,
                         gauge=True):
    """Gap probability of the multi-time Airy process.

    ``intervals`` holds one sorted endpoint list per time; an odd count
    makes the last interval semi-infinite.  Returns a DetResult whose
    value is real up to quadrature error.
    """
    t, ep = as_endpoints("airy", times, intervals)
    if representation == "iiks":
        system = build_airy_system(t, m=m,
                                   endpoint_scale=ep.max_abs_endpoint())
        op = airy.iiks_operator(ep, t, system, gauge=gauge)
    elif representation == "physical":
        op = airy.physical_operator(ep, t, m=m)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return det(op)


def pearcey_gap_probability(times, intervals, representation="iiks", m=80,
                            delta=0.5):
    """Gap probability of the multi-time Pearcey process.

    One endpoint list per time, each of even count (finite intervals).
    The physical route builds its contours with no slot layout.
    """
    t, ep = as_endpoints("pearcey", times, intervals)
    kw = {"delta": delta, "m": m, "endpoint_scale": ep.max_abs_endpoint()}
    if representation == "iiks":
        op = pearcey.iiks_operator(ep, t, build_pearcey_system(t, **kw))
    elif representation == "physical":
        op = pearcey.physical_operator(ep, t, pearcey_contours(t, **kw))
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return det(op)


def gap_probabilities(process, times, interval_sets, m=80):
    """IIKS gap probabilities of interval sets with one endpoint count at
    one set of times: one batch of determinants (``fredholm.dets``) on one
    contour system, its radii taken at the largest |endpoint| of all sets
    (``endpoint_scale`` in each result's diagnostics)."""
    t = validate_times(times)
    eps = [as_endpoints(process, t, iv)[1] for iv in interval_sets]
    scale = max((ep.max_abs_endpoint() for ep in eps), default=0.0)
    mod, build = (airy, build_airy_system) if is_airy(process) \
        else (pearcey, build_pearcey_system)
    system = build(t, m=m, endpoint_scale=scale)
    out = dets(mod.iiks_operator(ep, t, system) for ep in eps)
    for res in out:
        res.diagnostics["endpoint_scale"] = scale
    return out


def equivalence_report(process, times, intervals, m=80, **kw):
    """Both representations of one configuration and their difference.

    Both Pearcey representations read one contour system, built once.
    """
    if is_airy(process):
        phys, iiks = (airy_gap_probability(times, intervals, representation=r,
                                           m=m, **kw)
                      for r in ("physical", "iiks"))
    else:
        t, ep = as_endpoints(process, times, intervals)
        system = build_pearcey_system(
            t, m=m, endpoint_scale=ep.max_abs_endpoint(), **kw)
        phys, iiks = (det(op(ep, t, system)) for op in (
            pearcey.physical_operator, pearcey.iiks_operator))
    return {
        "det_physical": phys.value,
        "det_iiks": iiks.value,
        "abs_difference": abs(phys.value - iiks.value),
        "diagnostics": {"physical": phys.diagnostics,
                        "iiks": iiks.diagnostics},
    }
