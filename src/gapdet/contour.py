"""Oriented contours in the complex plane and quadrature rules on them.

All integration contours used by the Airy and Pearcey pipelines are built
from two primitives: a pair of rays sharing an apex, and a (truncated)
vertical line.  Each component carries a composite Gauss-Legendre grid
whose complex weights include the local unit direction, so that a plain
weighted sum realizes the oriented line integral.  Both processes also
share the interval endpoints and the slot layout that pairs contour
nodes with the vector components of the integrable kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: decay weights smaller than this at the truncation point are neglected
DEFAULT_TAIL_EPS = 1e-16
#: the decay exponent at which a contour is truncated
TAIL_LOG = np.log(1.0 / DEFAULT_TAIL_EPS)

_RAY_PANELS = 5
_PANEL_RATIO = 2.0


class ContourError(ValueError):
    """Invalid contour geometry or parameters."""


def gauss_legendre_panels(breaks, n_nodes):
    """Composite Gauss-Legendre rule on the panels defined by ``breaks``.

    ``n_nodes`` nodes are distributed over the panels as evenly as an
    exact total allows.  Returns real nodes and positive weights.
    """
    breaks = np.asarray(breaks, dtype=float)
    n_panels = len(breaks) - 1
    if n_panels < 1:
        raise ContourError("need at least one panel")
    counts = np.full(n_panels, n_nodes // n_panels, dtype=int)
    counts[: n_nodes - counts.sum()] += 1
    xs, ws = [], []
    for (a, b), cnt in zip(zip(breaks[:-1], breaks[1:]), counts):
        if cnt == 0:
            continue
        x, w = np.polynomial.legendre.leggauss(cnt)
        xs.append(0.5 * (b - a) * x + 0.5 * (b + a))
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class ContourComponent:
    """One oriented contour component.

    The path runs from ``apex + inf*e^{i*angles[0]}`` through ``apex`` to
    ``apex + inf*e^{i*angles[1]}``, truncated at ``truncation_radius``.
    A vertical line is the special case ``angles = (-pi/2, pi/2)``.
    """

    kind: str  # "ray-pair" | "vertical-line"
    apex: complex
    angles: tuple  # (incoming angle, outgoing angle), radians
    truncation_radius: float
    label: str

    def __post_init__(self):
        if self.kind not in ("ray-pair", "vertical-line"):
            raise ContourError(f"unknown component kind {self.kind!r}")
        if not self.truncation_radius > 0:
            raise ContourError("truncation radius must be positive")


@dataclass(frozen=True)
class QuadratureGrid:
    """Complex nodes and direction-bearing weights for one component."""

    nodes: np.ndarray
    weights: np.ndarray
    component: ContourComponent

    def __len__(self):
        return len(self.nodes)


def build_grid(component, m):
    """Quadrature grid with exactly ``m`` nodes on ``component``.

    Each of the two legs receives m/2 nodes on geometrically graded
    panels (clustered toward the apex, where the integrands peak).
    """
    if m < 4:
        raise ContourError("need m >= 4 nodes per component")
    if m % 2:
        m += 1
    half = m // 2
    breaks = component.truncation_radius / _PANEL_RATIO ** np.arange(
        _RAY_PANELS, -1, -1, dtype=float)
    breaks[0] = 0.0
    r, w = gauss_legendre_panels(breaks, half)
    phi_in, phi_out = component.angles
    d_in, d_out = np.exp(1j * phi_in), np.exp(1j * phi_out)
    # incoming leg traversed from far to apex, outgoing from apex to far
    nodes = np.concatenate([component.apex + r[::-1] * d_in,
                            component.apex + r * d_out])
    weights = np.concatenate([-w[::-1] * d_in, w * d_out])
    return QuadratureGrid(nodes=nodes, weights=weights, component=component)


@dataclass(frozen=True)
class ContourSystem:
    """A family of pairwise disjoint contour components with grids."""

    grids: tuple  # of QuadratureGrid
    meta: dict = field(default_factory=dict)

    @property
    def labels(self):
        return tuple(g.component.label for g in self.grids)

    def grid(self, label):
        for g in self.grids:
            if g.component.label == label:
                return g
        raise KeyError(label)

    def min_pairwise_distance(self):
        """Smallest distance between nodes of distinct components."""
        best = np.inf
        for i, gi in enumerate(self.grids):
            for gj in self.grids[i + 1:]:
                d = np.abs(gi.nodes[:, None] - gj.nodes[None, :]).min()
                best = min(best, d)
        return best


def _check_disjoint(system):
    if len(system.grids) > 1 and not system.min_pairwise_distance() > 0:
        raise ContourError("contour components collide")
    return system


def solve_radius(exponent, target, r_max=200.0):
    """Smallest r with exponent(r) >= target, by bracketing + bisection.

    ``exponent`` is the decay exponent of the slowest weight on the
    component, i.e. the weight is exp(-exponent(r)).
    """
    lo, hi = 1e-3, 2.0
    while exponent(hi) < target:
        hi *= 2.0
        if hi > r_max:
            return r_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if exponent(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def validate_times(times):
    """Strictly increasing process times as a float array (n >= 1)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1 or len(t) < 1:
        raise ContourError("need at least one time")
    if len(t) > 1 and not np.all(np.diff(t) > 0):
        raise ContourError("times must be strictly increasing (no duplicates)")
    return t


class Endpoints:
    """Per-time sorted interval endpoints and their row layout.

    Row 0 of the integrable-kernel vectors belongs to the right
    contour; the endpoints of time i occupy the next ``counts[i]`` rows.
    A subclass states in ``_check`` which endpoint lists are valid.
    """

    def __init__(self, per_time):
        self.per_time = tuple(tuple(float(a) for a in e) for e in per_time)
        if not self.per_time:
            raise ValueError("need at least one time entry")
        for e in self.per_time:
            self._check(e)

    def _check(self, ends):
        """Raise ValueError when the endpoints of one time are invalid."""

    @property
    def n(self):
        return len(self.per_time)

    @property
    def counts(self):
        return tuple(len(e) for e in self.per_time)

    @property
    def p(self):
        return 1 + sum(self.counts)

    @property
    def offsets(self):
        offs, pos = [], 1
        for k in self.counts:
            offs.append(pos)
            pos += k
        return tuple(offs)

    def row_index(self, i, ell):
        """0-based row of endpoint ell (0-based) of time i in the p-space."""
        return self.offsets[i] + ell

    def max_abs_endpoint(self):
        vals = [abs(a) for e in self.per_time for a in e]
        return max(vals) if vals else 0.0

    def shifted(self, i, ell, h):
        """New endpoint set with endpoint (i, ell) moved by h."""
        pt = [list(e) for e in self.per_time]
        pt[i][ell] += h
        return type(self)(pt)


@dataclass(frozen=True)
class Slots:
    """Assembly slots, one per (quadrature node, carried vector component).

    ``f`` and ``g`` hold the bare integrable-kernel vectors, one column
    per slot.  The grids of a system never share a node, so two slots
    sit at the same point exactly when their nodes are equal.
    """

    f: np.ndarray
    g: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    comp_ids: np.ndarray
    vec_ids: np.ndarray

    def endpoint_terms(self, row, i, right, shift):
        """(f, g) terms of dK/da for the endpoint a at ``row``, of time i.

        In both processes a enters f as e^{a lam_i} on the left contours
        of time i, and g as e^{-a mu_i} on the right contour of time i
        and on the left contours of later times, where lam_i = lam -
        shift.  ``right`` flags the slots on the right contour.
        """
        d = self.nodes - shift
        df, dg = np.zeros_like(self.f), np.zeros_like(self.g)
        sel = ~right & (self.vec_ids == i)
        df[row, sel] = d[sel] * self.f[row, sel]
        sel = (right & (self.vec_ids == i)) | (~right & (self.vec_ids > i))
        dg[row, sel] = -d[sel] * self.g[row, sel]
        return [(df, self.g), (self.f, dg)]


def build_slots(system, active, f_columns, g_columns, *args):
    """Slots of ``system``: component by component, then vector component.

    ``active(label)`` lists the vector components a contour component
    carries; ``f_columns(nodes, label, b, *args)`` and ``g_columns``
    return the bare columns of vector component b there.
    """
    parts = []
    for cid, grid in enumerate(system.grids):
        label, k = grid.component.label, len(grid)
        for b in active(label):
            parts.append((f_columns(grid.nodes, label, b, *args),
                          g_columns(grid.nodes, label, b, *args), grid.nodes,
                          grid.weights, np.full(k, cid), np.full(k, b)))
    return Slots(*(np.concatenate(x, axis=-1) for x in zip(*parts)))


def build_airy_system(times, C=None, radius=None, m=80, endpoint_scale=0.0):
    """Contour system for the Airy integrable kernel.

    One right component gamma_R (rays from apex C at angles +-pi/3,
    traversed downward) plus one component per time: a left ray pair at
    apex tau_j with angles +-2pi/3, the vertical line through tau_j
    deformed so that every kernel factor decays cubically.
    ``endpoint_scale`` feeds the slowest linear growth (from interval
    endpoints) into the truncation rule; ``radius`` overrides the rule
    for every component.
    """
    t = validate_times(times)
    if C is None:
        C = float(t.max()) + 1.0
    if not C > t.max():
        raise ContourError(f"need C > max(times); got C={C}, max={t.max()}")
    a = abs(endpoint_scale)
    dt_min = np.diff(t).min() if len(t) > 1 else None

    r_right = radius or solve_radius(
        lambda r: r ** 3 / 6 - a * r / 2, TAIL_LOG)
    # cubic decay of the slowest row-1 factor, Gaussian from the
    # cross-time blocks when n >= 2
    r_left = solve_radius(lambda r: r ** 3 / 3 - a * r, TAIL_LOG)
    if dt_min is not None:
        r_left = max(r_left, solve_radius(
            lambda r: dt_min * r ** 2 / 2 - a * r, TAIL_LOG))
    grids = [build_grid(
        ContourComponent("ray-pair", complex(C), (np.pi / 3, -np.pi / 3),
                         r_right, "gamma_R"), m)]
    for j, tau in enumerate(t):
        grids.append(build_grid(
            ContourComponent("ray-pair", complex(tau),
                             (-2 * np.pi / 3, 2 * np.pi / 3),
                             radius or r_left, f"line_{j + 1}"), m))
    meta = {"C": C, "m": m, "eps": DEFAULT_TAIL_EPS,
            "radii": {g.component.label: g.component.truncation_radius
                      for g in grids}}
    return _check_disjoint(ContourSystem(grids=tuple(grids), meta=meta))


def build_pearcey_system(times, delta=0.5, radius=None, m=80,
                         endpoint_scale=0.0):
    """Contour system for the Pearcey kernel.

    gamma_R: rays at apex +delta, angles +-pi/4, traversed downward
    (incoming from the upper right, like the Airy right contour).
    gamma_L = -gamma_R: rays at apex -delta, angles +-3pi/4, traversed
    upward, so that gamma_L and gamma_R form the X-shaped Pearcey
    contour.  iR: the vertical line through 0, traversed upward.  No
    deformation is needed; every weight already decays.  This is the
    orientation for which determinants are probabilities in (0, 1] and
    the one-point density is positive.
    """
    t = validate_times(times)
    if not delta > 0:
        raise ContourError("need delta > 0")
    a = abs(endpoint_scale)
    tmax = abs(t).max()
    dt_min = np.diff(t).min() if len(t) > 1 else None

    r_x = radius or solve_radius(
        lambda r: r ** 4 / 8 - tmax * r ** 2 / 2 - a * r, TAIL_LOG)
    # quartic phase on iR, Gaussian heat factors across time pairs
    r_line = radius or solve_radius(
        lambda r: r ** 4 / 4 - tmax * r ** 2 / 2 - a * r, TAIL_LOG)
    if radius is None and dt_min is not None:
        r_line = max(r_line, solve_radius(
            lambda r: dt_min * r ** 2 / 2 - a * r, TAIL_LOG))

    comps = [
        ContourComponent("ray-pair", complex(delta),
                         (np.pi / 4, -np.pi / 4), r_x, "gamma_R"),
        ContourComponent("ray-pair", complex(-delta),
                         (-3 * np.pi / 4, 3 * np.pi / 4), r_x, "gamma_L"),
        ContourComponent("vertical-line", 0j,
                         (-np.pi / 2, np.pi / 2), r_line, "iR"),
    ]
    meta = {"delta": delta, "m": m, "eps": DEFAULT_TAIL_EPS,
            "radii": {c.label: c.truncation_radius for c in comps}}
    return _check_disjoint(
        ContourSystem(grids=tuple(build_grid(c, m) for c in comps), meta=meta))
