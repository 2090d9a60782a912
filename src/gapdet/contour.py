"""Oriented contours in the complex plane and quadrature rules on them.

All integration contours used by the Airy and Pearcey pipelines are built
from two primitives: a pair of rays sharing an apex, and a (truncated)
vertical line.  Each component carries a composite Gauss-Legendre grid
whose complex weights include the local unit direction, so that a plain
weighted sum realizes the oriented line integral.  Both processes also
share the interval endpoints and the slot layout that pairs contour
nodes with the vector components of the integrable kernel: a system
declares which components each contour carries, and builds from that,
on first use, the one ``CauchyGeometry`` every operator on it shares.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

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


def gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1], by Golub & Welsch.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    polynomials, whose off-diagonal is k / sqrt(4k^2 - 1); the weights
    are twice the squared first components of its eigenvectors.  Both
    are symmetrized about 0.
    """
    k = np.arange(1.0, n)
    x, v = sla.eigh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0),
                                check_finite=False)
    w = 2.0 * v[0] ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def gauss_legendre_panels(breaks, n_nodes, rules=None):
    """Composite Gauss-Legendre rule on the panels defined by ``breaks``.

    ``n_nodes`` nodes are distributed over the panels as evenly as an
    exact total allows.  Returns real nodes and positive weights.
    ``rules`` maps a node count to its ``gauss_legendre`` rule; the
    rules built here are added to it, so one dict shared by several
    calls builds each rule once.
    """
    breaks = np.asarray(breaks, dtype=float)
    n_panels = len(breaks) - 1
    if n_panels < 1:
        raise ContourError("need at least one panel")
    counts = np.full(n_panels, n_nodes // n_panels, dtype=int)
    counts[: n_nodes - counts.sum()] += 1
    rules = {} if rules is None else rules
    for cnt in set(counts.tolist()) - {0} - set(rules):
        rules[cnt] = gauss_legendre(cnt)
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


class NodeSet:
    """The distinct nodes of consecutive grids and the slots at them.

    The slots run grid by grid, then over the vector components a grid
    carries, each over all nodes of the grid.  ``values`` are the grids'
    nodes in order, ``ids`` the node of each slot, and ``ranks[j]`` the
    nodes with more than j slots with the j-th of those slots.
    """

    def __init__(self, nodes, counts):
        sizes = [len(z) for z in nodes]
        first = np.cumsum([0] + sizes[:-1])
        self.values = np.concatenate(nodes)
        self.ids = np.concatenate([np.tile(i + np.arange(k), c) for i, k, c
                                   in zip(first, sizes, counts)])
        rank = np.concatenate([np.repeat(np.arange(c), k)
                               for k, c in zip(sizes, counts)])
        self.ranks = [(self.ids[rank == j], np.flatnonzero(rank == j))
                      for j in range(max(counts))]

    def sum(self, a):
        """Rows of ``a``, one per slot, summed over the slots of each node."""
        out = a[self.ranks[0][1]]
        for nodes, slots in self.ranks[1:]:
            out[nodes] += a[slots]
        return out

    def pairs(self):
        """Slot pairs (r, c) at one node, the diagonal included, sorted."""
        group = np.full((len(self.values), len(self.ranks)), -1)
        for j, (nodes, slots) in enumerate(self.ranks):
            group[nodes, j] = slots
        cols = group[self.ids]
        rows = np.indices(cols.shape)[0]
        return rows[cols >= 0], cols[cols >= 0]


class CauchyGeometry:
    """The part of a contour operator that its slot layout fixes.

    The slots on the grid with nodes ``nodes[i]`` and weights
    ``weights[i]`` carry the vector components ``carries[i]``, grid by
    grid, then component by component; the first ``lead_grids`` grids
    hold the leading slots X, where the kernel vanishes.  Every grid is
    a half and its mirror image in reverse order (``build_grids``), so
    the mirror of a slot is the one at the conjugate node of its block;
    ValueError unless it pairs each slot with another at the exact
    conjugate, lead with lead.

    ``nodes``, ``weights`` and ``vec_ids`` give the node, weight and
    component of each slot, ``slot_mirror`` its mirror and ``lead`` the
    size of X.
    ``lead_nodes`` and ``rest_nodes`` are the ``NodeSet`` of X and of
    the rest L, ``cauchy`` = 1 / (zeta - xi) over their nodes, ``pairs``
    the coincident rest slots (indices into L, the diagonal included),
    and ``mirror`` lists L as [h, sigma h].  ``fill_at`` = (columns,
    rows, pairs) places the pairs that lie in the rows h in the
    transposed numerator of the real form.
    """

    def __init__(self, nodes, weights, carries, lead_grids):
        counts = [len(c) for c in carries]
        self.lead_nodes = NodeSet(nodes[:lead_grids], counts[:lead_grids])
        self.rest_nodes = NodeSet(nodes[lead_grids:], counts[lead_grids:])
        k = self.lead = len(self.lead_nodes.ids)
        self.nodes = z = np.concatenate(
            [s.values[s.ids] for s in (self.lead_nodes, self.rest_nodes)])
        self.weights = np.concatenate([np.tile(w, c)
                                       for w, c in zip(weights, counts)])
        self.vec_ids = np.concatenate([np.repeat(c, len(zg)) for zg, c
                                       in zip(nodes, carries)])
        ends = np.cumsum([len(zg) for zg, c in zip(nodes, counts)
                          for _ in range(c)])
        sigma = np.concatenate([np.arange(e - 1, s - 1, -1)
                                for s, e in zip([0, *ends[:-1]], ends)])
        idx = np.arange(len(z))
        if not (np.array_equal(sigma[sigma], idx) and np.all(sigma != idx)
                and np.array_equal(sigma < k, idx < k)
                and np.array_equal(z[sigma], z.conj())):
            raise ValueError("slots are not paired with their conjugate nodes")
        self.slot_mirror = sigma
        rest = sigma[k:] - k
        half = np.flatnonzero(rest > np.arange(len(rest)))  # h, in L
        self.mirror = np.concatenate([half, rest[half]])
        # the grids of a system never share a node
        self.cauchy = 1.0 / np.subtract.outer(self.rest_nodes.values,
                                              self.lead_nodes.values)
        self.pairs = self.rest_nodes.pairs()
        pos = np.empty_like(self.mirror)  # the place of each slot of L
        pos[self.mirror] = np.arange(len(pos))
        rows, cols = pos[self.pairs[0]], pos[self.pairs[1]]
        keep = np.flatnonzero(rows < len(half))
        self.fill_at = (cols[keep], rows[keep], keep)


@dataclass(frozen=True)
class ContourSystem:
    """A family of pairwise disjoint contour components with grids.

    The slots on grid i carry the vector components ``carries[i]``, and
    the first ``lead_grids`` grids form X (``CauchyGeometry``); a system
    with no ``carries`` carries no slots.
    """

    grids: tuple  # of QuadratureGrid
    meta: dict = field(default_factory=dict)
    carries: tuple | None = None
    lead_grids: int = 0

    @functools.cached_property
    def geometry(self):
        """The ``CauchyGeometry`` of the slots, built on first read and
        shared by every operator on the system; None with no slots."""
        if self.carries is None:
            return None
        return CauchyGeometry([g.nodes for g in self.grids],
                              [g.weights for g in self.grids], self.carries,
                              self.lead_grids)

    @property
    def labels(self):
        return tuple(g.component.label for g in self.grids)

    def grid(self, label):
        for g in self.grids:
            if g.component.label == label:
                return g
        raise KeyError(label)


def _system(comps, m, meta, carries=None, lead_grids=0):
    """Disjoint system of ``comps`` with ``m`` nodes each.

    ``meta["m"]`` is the node count ``build_grids`` lays down (an odd m
    is rounded up), and ``meta["radius_capped"]`` lists the components
    whose radius is at least ``RADIUS_CAP`` (a padded radius may exceed
    it).  ``carries`` lists the vector components the slots of each
    component carry, and the first ``lead_grids`` components form X (see
    ``ContourSystem``).
    """
    radii = {c.label: c.truncation_radius for c in comps}
    capped = tuple(label for label, r in radii.items() if r >= RADIUS_CAP)
    grids = build_grids(comps, m)
    # one sort puts equal nodes next to each other: no two may be equal
    z = np.sort(np.concatenate([g.nodes for g in grids]))
    if np.any(z[1:] == z[:-1]):
        raise ContourError("contour nodes collide")
    return ContourSystem(grids=grids, meta={
        **meta, "m": m + m % 2, "eps": DEFAULT_TAIL_EPS, "radii": radii,
        "radius_capped": capped}, carries=None if carries is None else
        tuple(tuple(c) for c in carries), lead_grids=lead_grids)


def solve_radius(exponent, target, r_max=RADIUS_CAP):
    """Smallest r with exponent(r) >= target, by bracketing + bisection.

    ``exponent`` is the decay exponent of the slowest weight on the
    component, i.e. the weight is exp(-exponent(r)).  Returns exactly
    ``r_max`` when no r up to it reaches the target.
    """
    lo, hi = 1e-3, 2.0
    while exponent(hi) < target:
        if hi >= r_max:
            return r_max
        hi = min(2.0 * hi, r_max)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # until no float lies between lo and hi
        if exponent(mid) >= target:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _radius(decay, a, times=()):
    """Smallest radius at which decay(r) - a*r reaches ``TAIL_LOG``.

    ``decay`` is the decay exponent of the slowest weight, ``a`` its
    linear growth.  Where two or more ``times`` cross the component,
    the Gaussian dt_min*r^2/2 - a*r of the smallest time gap must too.
    """
    rad = solve_radius(lambda r: decay(r) - a * r, TAIL_LOG)
    if len(times) > 1:
        dt_min = np.diff(times).min()
        rad = max(rad, solve_radius(lambda r: dt_min * r ** 2 / 2 - a * r,
                                    TAIL_LOG))
    return rad


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


def endpoint_terms(f, g, geometry, row, i, shift):
    """(f, g) terms of dK/da for the endpoint a at ``row``, of time i,
    from the bare columns ``f`` and ``g`` on the slots of ``geometry``.

    In both processes a enters f as e^{a lam_i} on the left contours of
    time i, and g as e^{-a mu_i} on the right contour of time i and on
    the left contours of later times, where lam_i = lam - shift.  The
    leading slots lie on the right contour.
    """
    d = geometry.nodes - shift
    df, dg = np.zeros_like(f), np.zeros_like(g)
    right = np.arange(len(d)) < geometry.lead
    vec_ids = geometry.vec_ids
    sel = ~right & (vec_ids == i)
    df[row, sel] = d[sel] * f[row, sel]
    sel = (right & (vec_ids == i)) | (~right & (vec_ids > i))
    dg[row, sel] = -d[sel] * g[row, sel]
    return [(df, g), (f, dg)]


def _columns(endpoint_sets, size, blocks, exponents, *args):
    """The bare columns (f, g) of ``endpoint_sets``: two (B, p, size)
    arrays, one (p, size) table per set, exact zeros but where
    ``exponents`` writes.

    The sets share one endpoint count per time, else ValueError.  A
    block (nodes, label, cols) puts the columns of vector component b at
    ``nodes`` of the contour component ``label`` at ``cols[b]``, and
    ``exponents(nodes, label, ends, *args)`` yields their entries that
    do not vanish as (side, i, b, e): of f (side 0) or g (side 1), in
    the rows of the endpoints of time i (row 0 when i is None), with
    exponent e, which broadcasts over the sets; ``ends[i]`` holds those
    endpoints, (B, count, 1).  Each e is exponentiated into its place,
    and in g the row of endpoint ell of a time carries the sign (-1)^ell.
    """
    counts = endpoint_sets[0].counts
    if any(ep.counts != counts for ep in endpoint_sets):
        raise ValueError("a batch of endpoint sets needs one endpoint "
                         "count per time")
    a = np.array([[v for e in ep.per_time for v in e]
                  for ep in endpoint_sets]).reshape(len(endpoint_sets), -1, 1)
    offs = np.cumsum([1, *counts])
    rows = [slice(lo, hi) for lo, hi in zip(offs[:-1], offs[1:])]
    ends = [a[:, r.start - 1:r.stop - 1] for r in rows]
    f = np.zeros((len(a), offs[-1], size), dtype=complex)
    g = np.zeros_like(f)
    for z, label, cols in blocks:
        for side, i, b, e in exponents(z, label, ends, *args):
            out = (f, g)[side][:, slice(0, 1) if i is None else rows[i],
                               cols[b]]
            np.exp(e, out=out)
            if side and i is not None:
                out[:, 1::2] *= -1.0
    return f, g


def build_slots(system, endpoint_sets, exponents, *args):
    """The bare columns (f, g) of ``system`` for a batch of endpoint
    sets, in the slot order of its ``CauchyGeometry``: those of every
    set, stacked (``_columns``), each contour component's exponents
    built once for all sets."""
    blocks, start = [], 0
    for grid, comps in zip(system.grids, system.carries):
        k = len(grid)
        blocks.append((grid.nodes, grid.component.label, {
            b: slice(start + j * k, start + (j + 1) * k)
            for j, b in enumerate(comps)}))
        start += k * len(comps)
    return _columns(endpoint_sets, start, blocks, exponents, *args)


def fg_matrices(exponents, lam, label, endpoints, times):
    """All n columns of f and g at one point: two (p, n) arrays."""
    z = np.atleast_1d(np.asarray(lam, dtype=complex))
    cols = [slice(b, b + 1) for b in range(endpoints.n)]
    f, g = _columns([endpoints], endpoints.n, [(z, label, cols)], exponents,
                    np.asarray(times, dtype=float))
    return f[0], g[0]


def build_airy_system(times, m=80, endpoint_scale=0.0):
    """Contour system for the Airy integrable kernel.

    One right component gamma_R (rays from apex C = max(times) + 1 at
    angles +-pi/3, traversed downward) plus one component per time: a
    left ray pair at apex tau_j with angles +-2pi/3, the vertical line
    through tau_j deformed so that every kernel factor decays cubically.
    ``endpoint_scale`` feeds the slowest linear growth (from interval
    endpoints) into the truncation rule.  gamma_R carries every time and
    forms X, and line j carries time j.
    """
    t = validate_times(times)
    C = float(t.max()) + 1.0
    a = abs(endpoint_scale)
    r_right = _radius(lambda r: r ** 3 / 6, a / 2)
    # cubic decay of the slowest row-1 factor, Gaussian from the
    # cross-time blocks when n >= 2
    r_left = _radius(lambda r: r ** 3 / 3, a, t)
    comps = [ContourComponent(complex(C), (np.pi / 3, -np.pi / 3), r_right,
                              "gamma_R")]
    comps += [ContourComponent(complex(tau), (-2 * np.pi / 3, 2 * np.pi / 3),
                               r_left, f"line_{j + 1}")
              for j, tau in enumerate(t)]
    carries = [range(len(t))] + [(j,) for j in range(len(t))]
    return _system(comps, m, {"C": C}, carries, 1)


def build_pearcey_system(times, delta=0.5, m=80, endpoint_scale=0.0):
    """Contour system for the Pearcey kernel.

    gamma_R: rays at apex +delta, angles +-pi/4, traversed downward
    (incoming from the upper right, like the Airy right contour).
    gamma_L = -gamma_R: rays at apex -delta, angles +-3pi/4, traversed
    upward, so that gamma_L and gamma_R form the X-shaped Pearcey
    contour.  iR: the vertical line through 0, traversed upward.  No
    deformation is needed; every weight already decays.  This is the
    orientation for which determinants are probabilities in (0, 1] and
    the one-point density is positive.  Every component carries every
    time, and gamma_R and gamma_L form X.
    """
    t = validate_times(times)
    if not delta > 0:
        raise ContourError("need delta > 0")
    a = abs(endpoint_scale)
    tmax = abs(t).max()
    r_x = _radius(lambda r: r ** 4 / 8 - tmax * r ** 2 / 2, a)
    # quartic phase on iR, Gaussian heat factors across time pairs
    r_line = _radius(lambda r: r ** 4 / 4 - tmax * r ** 2 / 2, a, t)
    comps = [
        ContourComponent(complex(delta), (np.pi / 4, -np.pi / 4), r_x,
                         "gamma_R"),
        ContourComponent(complex(-delta), (-3 * np.pi / 4, 3 * np.pi / 4),
                         r_x, "gamma_L"),
        ContourComponent(0j, (-np.pi / 2, np.pi / 2), r_line, "iR"),
    ]
    return _system(comps, m, {"delta": delta}, [range(len(t))] * 3, 2)
