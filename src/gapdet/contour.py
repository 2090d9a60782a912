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
#: the 2 pi i of Cauchy integrals
TWO_PI_I = 2j * np.pi

#: the largest truncation radius ``solve_radius`` returns
RADIUS_CAP = 200.0

_RAY_PANELS = 5
_PANEL_RATIO = 2.0


class ContourError(ValueError):
    """Invalid contour geometry or parameters."""


def gauss_legendre_panels(breaks, n_nodes, rules=None):
    """Composite Gauss-Legendre rule on the panels defined by ``breaks``.

    ``n_nodes`` nodes are distributed over the panels as evenly as an
    exact total allows.  Returns real nodes and positive weights.
    ``rules`` maps a node count to its Gauss-Legendre rule; the rules
    built here are added to it, so one dict shared by several calls
    builds each rule once.
    """
    breaks = np.asarray(breaks, dtype=float)
    n_panels = len(breaks) - 1
    if n_panels < 1:
        raise ContourError("need at least one panel")
    counts = np.full(n_panels, n_nodes // n_panels, dtype=int)
    counts[: n_nodes - counts.sum()] += 1
    rules = {} if rules is None else rules
    for cnt in set(counts.tolist()) - {0} - set(rules):
        rules[cnt] = np.polynomial.legendre.leggauss(cnt)
    xs, ws = [], []
    for (a, b), cnt in zip(zip(breaks[:-1], breaks[1:]), counts):
        if cnt == 0:
            continue
        x, w = rules[cnt]
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

    apex: complex
    angles: tuple  # (incoming angle, outgoing angle), radians
    truncation_radius: float
    label: str

    def __post_init__(self):
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


def build_grids(components, m):
    """Quadrature grids with exactly ``m`` nodes on each of ``components``.

    Each of the two legs of a component receives m/2 nodes on
    geometrically graded panels (clustered toward the apex, where the
    integrands peak).  One unit-radius rule, scaled to each truncation
    radius, serves every component.
    """
    if m < 4:
        raise ContourError("need m >= 4 nodes per component")
    if m % 2:
        m += 1
    breaks = _PANEL_RATIO ** np.arange(-_RAY_PANELS, 1, dtype=float)
    breaks[0] = 0.0
    r_unit, w_unit = gauss_legendre_panels(breaks, m // 2)
    grids = []
    for c in components:
        r, w = c.truncation_radius * r_unit, c.truncation_radius * w_unit
        d_in, d_out = np.exp(1j * c.angles[0]), np.exp(1j * c.angles[1])
        # incoming leg traversed from far to apex, outgoing from apex to far
        nodes = np.concatenate([c.apex + r[::-1] * d_in, c.apex + r * d_out])
        weights = np.concatenate([-w[::-1] * d_in, w * d_out])
        grids.append(QuadratureGrid(nodes=nodes, weights=weights, component=c))
    return tuple(grids)


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


def _system(comps, m, radius, meta):
    """Disjoint system of ``comps`` with ``m`` nodes each.

    ``meta["radius_capped"]`` lists the components whose solved radius
    is ``RADIUS_CAP``; a ``radius`` given by the caller caps nothing.
    """
    radii = {c.label: c.truncation_radius for c in comps}
    capped = () if radius else tuple(
        label for label, r in radii.items() if r == RADIUS_CAP)
    system = ContourSystem(grids=build_grids(comps, m), meta={
        **meta, "m": m, "eps": DEFAULT_TAIL_EPS, "radii": radii,
        "radius_capped": capped})
    # one sort puts equal nodes next to each other: a collision is a
    # pair of neighbours that are equal and on distinct components
    nodes = np.concatenate([g.nodes for g in system.grids])
    comp = np.repeat(np.arange(len(comps)), [len(g) for g in system.grids])
    order = np.argsort(nodes, kind="stable")
    z, c = nodes[order], comp[order]
    if np.any((z[1:] == z[:-1]) & (c[1:] != c[:-1])):
        raise ContourError("contour components collide")
    return system


def solve_radius(exponent, target, r_max=RADIUS_CAP):
    """Smallest r with exponent(r) >= target, by bracketing + bisection.

    ``exponent`` is the decay exponent of the slowest weight on the
    component, i.e. the weight is exp(-exponent(r)).  Returns exactly
    ``r_max`` when no r up to it reaches the target.
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
    if not np.all(np.isfinite(t)):
        raise ContourError(f"times must be finite: {t.tolist()}")
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
        if not all(np.isfinite(a) for e in self.per_time for a in e):
            raise ValueError(f"endpoints must be finite: {self.per_time}")
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

    def check_times(self, times):
        """Raise ValueError unless there is one endpoint list per time."""
        if len(times) != self.n:
            raise ValueError(f"{len(times)} times but {self.n} endpoint "
                             "lists: need one endpoint list per time")

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
    ``mirror`` is the slot at the conjugate node of each slot: every
    component has a real apex and legs at +-theta, laid out by
    ``build_grids`` as mirror images.
    """

    f: np.ndarray
    g: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    vec_ids: np.ndarray
    mirror: np.ndarray

    def endpoint_terms(self, row, i, lead, shift):
        """(f, g) terms of dK/da for the endpoint a at ``row``, of time i.

        In both processes a enters f as e^{a lam_i} on the left contours
        of time i, and g as e^{-a mu_i} on the right contour of time i
        and on the left contours of later times, where lam_i = lam -
        shift.  The ``lead`` leading slots lie on the right contour.
        """
        d = self.nodes - shift
        df, dg = np.zeros_like(self.f), np.zeros_like(self.g)
        right = np.arange(len(d)) < lead
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
    parts, start = [], 0
    for grid in system.grids:
        label, k = grid.component.label, len(grid)
        for b in active(label):
            parts.append((f_columns(grid.nodes, label, b, *args),
                          g_columns(grid.nodes, label, b, *args), grid.nodes,
                          grid.weights, np.full(k, b),
                          start + np.arange(k)[::-1]))
            start += k
    return Slots(*(np.concatenate(x, axis=-1) for x in zip(*parts)))


def fg_matrices(f_columns, g_columns, lam, label, endpoints, times):
    """All n columns of f and g at one point: two (p, n) arrays."""
    n = endpoints.n
    f = np.hstack([f_columns(lam, label, i, endpoints, times)
                   for i in range(n)])
    g = np.hstack([g_columns(lam, label, j, endpoints, times)
                   for j in range(n)])
    return f, g


def build_airy_system(times, radius=None, m=80, endpoint_scale=0.0):
    """Contour system for the Airy integrable kernel.

    One right component gamma_R (rays from apex C = max(times) + 1 at
    angles +-pi/3, traversed downward) plus one component per time: a
    left ray pair at apex tau_j with angles +-2pi/3, the vertical line
    through tau_j deformed so that every kernel factor decays cubically.
    ``endpoint_scale`` feeds the slowest linear growth (from interval
    endpoints) into the truncation rule; ``radius`` overrides the rule
    for every component.
    """
    t = validate_times(times)
    C = float(t.max()) + 1.0
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
    comps = [ContourComponent(complex(C), (np.pi / 3, -np.pi / 3), r_right,
                              "gamma_R")]
    comps += [ContourComponent(complex(tau), (-2 * np.pi / 3, 2 * np.pi / 3),
                               radius or r_left, f"line_{j + 1}")
              for j, tau in enumerate(t)]
    return _system(comps, m, radius, {"C": C})


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
        ContourComponent(complex(delta), (np.pi / 4, -np.pi / 4), r_x,
                         "gamma_R"),
        ContourComponent(complex(-delta), (-3 * np.pi / 4, 3 * np.pi / 4),
                         r_x, "gamma_L"),
        ContourComponent(0j, (-np.pi / 2, np.pi / 2), r_line, "iR"),
    ]
    return _system(comps, m, radius, {"delta": delta})
