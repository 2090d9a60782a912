"""Nystrom discretization and the Fredholm determinant engine.

A kernel sampled at quadrature nodes becomes a complex matrix M with
the weights folded in symmetrically, M[r,c] = sqrt(w_r) K(r,c)
sqrt(w_c), so that det(I - M) approximates the Fredholm determinant.
Both representations of a gap probability are assembled here: the
physical kernel on real interval grids (``interval_operator``, a dense
``DiscreteOperator``) and the integrable kernel f^T(lam) g(mu) /
(lam - mu) on contour slots (``cauchy_operator``, a ``CauchyOperator``).

A contour operator holds neither M nor a block of it.  M vanishes on
its ``lead`` leading slots X, M = [[0, B], [C, D]], and det(I - M) =
det(S) with S = I - D - C B.  With the folded generators f, g, X enters
S only through 1 / (z - xi) at its distinct nodes xi and through P_xi
= sum f_l g_l^T over the slots at xi: the operator keeps one matrix K
= 1 / (zeta - xi) over the distinct rest nodes zeta, in a
``CauchyGeometry`` that operators on the same nodes share.  With T =
K P, the partial fractions of 1 / ((z_r - xi)(xi - z_c)) give, for
z_r != z_c,

    (D + C B)_rc = ((f_r + u_r) . g_c + f_r . v_c) / (z_r - z_c),
    u_r = T_r f_r,  v_c = -T_c^T g_c,

a numerator of rank 2p, so S costs one such product and one division
per entry.  At coincident slots D keeps its stored value and the two
Cauchy factors merge: (C B)_rc = -g_c^T ((K o K) P)_r f_r.  C y and B x
are products of K and K^T with node sums of g y and g x, over the rows
of f and g that are non-zero on some lead slot.

S is factored as a real matrix.  The contours have real apexes and
mirrored legs, and the phases real coefficients, so S[sigma, sigma] =
conj(S) for the slot mirror sigma of ``contour.Slots``.  With h the
first slot of each mirrored pair, A11 = S[h, h], A12 = S[h, sigma h]
and Q = [[I, I], [-iI, iI]] / sqrt(2) on [h, sigma h], R = Q S Q^H =
[[Re(A11 + A12), -Im(A11 - A12)], [Im(A11 + A12), Re(A11 - A12)]] is
real with det R = det S, and only the rows h of S are formed.  Solves
are refined and checked on R y = Q (b_L + C b_X), the Jacobi trace
goes through Q as well, and a contour determinant is real, with
``max_abs_imag`` 0.

Where the finiteness checks stand: an interval operator checks every
sampled entry before folding.  A contour operator checks its f and g
columns, at O(pN) cost; an entry of S that overflows from finite
columns shows in the 1-norm of R, which ``_factor`` checks before
every factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .contour import TWO_PI_I, ContourError, Slots, gauss_legendre_panels

__all__ = [
    "CauchyGeometry",
    "CauchyOperator",
    "DiscreteOperator",
    "DetResult",
    "NearSingularOperatorError",
    "cauchy_operator",
    "double_contour_factors",
    "interval_grids",
    "interval_operator",
    "det",
    "det2",
    "solve_resolvent",
    "logdet_derivative",
]

#: truncation length of a semi-infinite interval [a, inf)
DEFAULT_TAIL_CUT = 12.0

# interval quadrature: nodes per unit length, nodes per interval at
# least, longest Gauss-Legendre panel
_NODES_PER_UNIT = 7.0
_MIN_NODES = 16
_MAX_PANEL = 3.0

# solves refuse I - M with a smaller reciprocal condition number
_RCOND_MIN = 1e-13


class NearSingularOperatorError(RuntimeError):
    """The discretized operator I - M is numerically singular."""


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense discretization of a sampled kernel.

    Row/column r corresponds to one quadrature node.  ``matrix``
    already contains the quadrature ``weights``, folded in
    symmetrically.  No block of it is known to vanish (``lead`` is 0),
    so the factorization reads all of I - M.
    """

    matrix: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    lead = 0

    @classmethod
    def from_kernel_matrix(cls, kmat, weights, meta=None):
        """Fold quadrature weights into a raw kernel sample matrix."""
        kmat = np.asarray(kmat, dtype=complex)
        if not np.all(np.isfinite(kmat)):
            raise ValueError("kernel sample contains non-finite entries")
        weights = np.asarray(weights, dtype=complex)
        s = np.sqrt(weights)
        m = s[:, None] * kmat * s[None, :]
        return cls(matrix=m, weights=weights, meta=dict(meta or {}))

    @property
    def n(self):
        return self.matrix.shape[0]

    def schur(self):
        """I - M in a fresh Fortran-ordered array."""
        # 0 - x, not -x: the off-diagonal zeros of I - M stay +0
        a = np.subtract(0.0, self.matrix, order="F")
        a[np.diag_indices(self.n)] += 1.0
        return a

    def schur_tangent(self, dop):
        """d(I - M) = -dM for the sampler ``dop``."""
        return np.subtract(0.0, dop.matrix)

    def trace(self):
        """tr M."""
        return complex(np.trace(self.matrix))


class _Nodes:
    """The distinct nodes of a slot set, from one exact sort: ``values``
    in sorted order, ``ids`` the node of each slot, and ``ranks[j]`` the
    nodes with more than j slots with the j-th of those slots."""

    def __init__(self, z):
        self.values, self.ids = np.unique(z, return_inverse=True)
        order = np.argsort(self.ids, kind="stable")
        sizes = np.bincount(self.ids)
        starts = np.cumsum(sizes) - sizes
        self.ranks = [(i, order[starts[i] + j])
                      for j in range(sizes.max(initial=0))
                      for i in [np.flatnonzero(sizes > j)]]

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


@dataclass(frozen=True)
class CauchyGeometry:
    """The part of a contour operator that depends on its slot nodes alone.

    ``nodes``, ``slot_mirror`` and ``lead`` are the slot nodes, the slot
    mirror and the number of leading slots X it was built from (see
    ``from_slots``).  ``lead_nodes`` and ``rest_nodes`` are the distinct
    nodes xi of X and zeta of the rest L, ``cauchy`` = 1 / (zeta - xi),
    ``pairs`` the coincident rest slots (indices into L, the diagonal
    included), and ``mirror`` lists L as [h, sigma h].  ``fill_at`` =
    (columns, rows, pairs) places the pairs that lie in the rows h in the
    transposed numerator of the real form.  Operators whose slots have
    these nodes can share one geometry.
    """

    nodes: np.ndarray
    slot_mirror: np.ndarray
    lead: int
    lead_nodes: _Nodes
    rest_nodes: _Nodes
    cauchy: np.ndarray
    pairs: tuple
    mirror: np.ndarray
    fill_at: tuple

    @classmethod
    def from_slots(cls, slots, lead):
        """Geometry of ``slots`` with ``lead`` leading slots; ValueError
        unless the slot mirror pairs each slot with another at the
        conjugate node, lead with lead."""
        z, sigma, k = slots.nodes, slots.mirror, lead
        idx = np.arange(len(z))
        if not (np.array_equal(sigma[sigma], idx) and np.all(sigma != idx)
                and np.array_equal(sigma < k, idx < k)
                and np.array_equal(z[sigma], z.conj())):
            raise ValueError("slots are not paired with their conjugate nodes")
        rest = sigma[k:] - k
        half = np.flatnonzero(rest > np.arange(len(rest)))  # h, in L
        mirror = np.concatenate([half, rest[half]])
        lead_nodes, rest_nodes = _Nodes(z[:k]), _Nodes(z[k:])
        # slots of distinct components never coincide
        cauchy = 1.0 / np.subtract.outer(rest_nodes.values, lead_nodes.values)
        pairs = rest_nodes.pairs()
        pos = np.argsort(mirror)  # the place of each slot of L in mirror
        rows, cols = pos[pairs[0]], pos[pairs[1]]
        keep = np.flatnonzero(rows < len(half))
        return cls(nodes=z, slot_mirror=sigma, lead=k, lead_nodes=lead_nodes,
                   rest_nodes=rest_nodes, cauchy=cauchy, pairs=pairs,
                   mirror=mirror, fill_at=(cols[keep], rows[keep], keep))

    def fits(self, slots, lead):
        """True when ``slots`` have this geometry's nodes and mirror."""
        return lead == self.lead and np.array_equal(slots.nodes, self.nodes) \
            and np.array_equal(slots.mirror, self.slot_mirror)


@dataclass(frozen=True)
class CauchyOperator:
    """Integrable-kernel operator: O(N) data and one node-level matrix.

    In slot order M = [[0, B], [C, D]], with the exact zero block on
    the ``lead`` leading slots X.  ``f`` and ``g`` are the folded
    generators, (q, N) arrays with M[r, c] = f_r . g_c / (z_r - z_c)
    wherever z_r != z_c.  No block is stored: the ``geometry`` holds
    the node-level Cauchy matrix between X and the rest L, and D is kept
    only as its values ``fill`` at the geometry's coincident rest pairs.
    ``f_rows`` and ``g_rows`` are the rows of f and g that are non-zero
    on the lead slots.  ``schur()`` is the real form R (module
    docstring).  The ``contour.Slots`` are kept for the resolvent
    moments.
    """

    f: np.ndarray
    g: np.ndarray
    f_rows: np.ndarray
    g_rows: np.ndarray
    fill: np.ndarray
    geometry: CauchyGeometry
    slots: Slots
    lead: int
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.slots.nodes)

    @property
    def weights(self):
        return self.slots.weights

    def schur(self):
        """R = Q (I - D - C B) Q^H, real, in a fresh Fortran-ordered array."""
        k = self.lead
        terms, cb = _product(self, self)
        r = self._real_form([(self.f[:, k:], self.g[:, k:])] + terms,
                            self.fill + cb)
        r[np.diag_indices(len(r))] += 1.0
        return r

    def schur_tangent(self, dop):
        """Q dS Q^H with dS = -(dD + dC B + C dB), for a tangent ``dop``
        on the same slots, whose lead block vanishes like that of M."""
        k = self.lead
        terms1, cb1 = _product(dop, self)  # dC B
        terms2, cb2 = _product(self, dop)  # C dB
        return self._real_form([(dop.f[:, k:], dop.g[:, k:])] + terms1
                               + terms2, dop.fill + cb1 + cb2)

    def _real_form(self, terms, fill):
        """Q A Q^H for A = -sum_t l_t^T r_t / (z_r - z_c) on L over the
        (l, r) generator ``terms``, with -``fill`` at the coincident
        pairs: Fortran-ordered, from the rows h of A alone."""
        order, z = self.geometry.mirror, self.slots.nodes[self.lead:]
        h = order[:len(order) // 2]
        left = np.concatenate([l[:, h] for l, _ in terms])
        right = np.concatenate([r[:, order] for _, r in terms])
        at = right.T @ left  # at[c, r] = l_r . r_c, c in mirror order
        den = np.subtract.outer(z[order], z[h])  # den[c, r] = z_c - z_r
        cols, rows, keep = self.geometry.fill_at
        den[cols, rows] = 1.0
        at /= den
        at[cols, rows] = -fill[keep]
        n = len(h)
        p, m = at[:n] + at[n:], at[:n] - at[n:]
        r = np.empty((2 * n, 2 * n), order="F")
        r[:n, :n], r[n:, :n], r[:n, n:], r[n:, n:] = \
            p.real.T, p.imag.T, -m.imag.T, m.real.T
        return r

    def fold(self, x):
        """sqrt(2) Q x for rest-slot rows ``x``, as real columns [Re | Im]."""
        h, t = np.split(self.geometry.mirror, 2)
        y = np.concatenate([x[h] + x[t], 1j * (x[t] - x[h])])
        return np.hstack([y.real, y.imag])

    def unfold(self, y):
        """The x with ``fold(x) = y``."""
        h, t = np.split(self.geometry.mirror, 2)
        re, im = np.hsplit(y, 2)
        a, b = np.split(re + 1j * im, 2)
        x = np.empty(re.shape, dtype=complex)
        x[h], x[t] = (a + 1j * b) / 2, (a - 1j * b) / 2
        return x

    def c_dot(self, y):
        """C y for ``y`` on the lead slots, one row per slot."""
        k, q, geo = self.lead, self.g_rows, self.geometry
        return _couple(self.f[q, k:], geo.rest_nodes.ids, geo.cauchy,
                       geo.lead_nodes, self.g[q, :k], y)

    def b_dot(self, x):
        """B x for ``x`` on the rest slots, one row per slot."""
        k, q, geo = self.lead, self.f_rows, self.geometry
        return -_couple(self.f[q, :k], geo.lead_nodes.ids, geo.cauchy.T,
                        geo.rest_nodes, self.g[q, k:], x)

    def trace(self):
        """tr M: the lead block is zero and the diagonal is coincident."""
        rows, cols = self.geometry.pairs
        return complex(np.sum(self.fill[rows == cols]))


def _couple(f, ids, kmat, nodes, g, y):
    """f_s . sum_t kmat[ids_s, node_t] g_t y_t over the slots t of ``y``
    (one row each): a product with a lead-rest block of M, summed over
    the slots at each node of ``nodes`` before the product with kmat."""
    y2 = y.reshape(len(y), -1)
    h = nodes.sum((g.T[:, :, None] * y2[:, None, :]).reshape(len(y2), -1))
    h = (kmat @ h).reshape(len(kmat), len(f), y2.shape[1])[ids]
    return np.einsum("is,sir->sr", f, h).reshape(f.shape[1:] + y.shape[1:])


@dataclass(frozen=True)
class DetResult:
    """Determinant value with diagnostics.

    ``exp(log_value) == value`` up to rounding, with the imaginary part
    of ``log_value`` in (-pi, pi]; overflow shows up only in
    ``log_value``.
    """

    value: complex
    log_value: complex
    diagnostics: dict = field(default_factory=dict)


def _product(a, b):
    """C_a B_b of two contour operators on the same slots: the generator
    terms [(u, g^b), (f^a, v)] of its Cauchy-like form (module
    docstring), with P_xi = sum f^b_l (g^a_l)^T over the lead slots at
    xi on the non-zero rows alone, and ``cb``, its values at the
    coincident pairs."""
    k, geo = a.lead, a.geometry
    ids, kc = geo.rest_nodes.ids, geo.cauchy
    fa, gb = a.f[a.g_rows, k:], b.g[b.f_rows, k:]
    fb, ga = b.f[b.f_rows, :k], a.g[a.g_rows, :k]
    p = geo.lead_nodes.sum(
        (fb.T[:, :, None] * ga.T[:, None, :]).reshape(k, -1))
    shape = (len(kc), len(fb), len(ga))
    t = (kc @ p).reshape(shape)[ids]
    u = np.einsum("sij,js->is", t, fa)
    v = -np.einsum("sij,is->js", t, gb)
    rows, cols = geo.pairs
    w = (kc * kc @ p).reshape(shape)[ids[rows]]
    cb = -np.einsum("ip,pij,jp->p", gb[:, cols], w, fa[:, rows])
    return [(u, gb), (fa, v)], cb


def cauchy_operator(terms, slots, lead, diag=None, meta=None, geometry=None):
    """Discretize K(lam, mu) = sum f^T(lam) g(mu) / (2 pi i (lam - mu)).

    ``terms`` lists the (f, g) pairs of the sum, (p, N) arrays with one
    column per slot.  K vanishes between the ``lead`` leading slots (one
    contour where the non-zero rows of f and g never meet, so f^T g = 0
    there exactly); at coincident slots past them ``diag(i, j, lam)``
    gives its removable value times 2 pi i (without it, f^T g there).

    The weights live in the generators: f carries sqrt(w) / (2 pi i)
    and g carries sqrt(w), so one product per entry gives the folded
    matrix.  Only D at coincident slots is written; the node-level
    Cauchy matrix is the ``geometry``'s, built from ``slots`` unless an
    operator on slots with the same nodes supplies it (see
    ``CauchyGeometry``).  The scaled columns must be finite and
    mirror-symmetric (``_check_mirror``), and a supplied geometry must
    fit the slots, else ValueError; an entry that overflows from finite
    columns is caught where ``_factor`` checks S.
    """
    s = np.sqrt(slots.weights)
    f = np.concatenate([f for f, _ in terms]) * (s / TWO_PI_I)
    g = np.concatenate([g for _, g in terms]) * s
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise ValueError("kernel vectors contain non-finite entries")
    z, k = slots.nodes, lead
    if geometry is None:
        geometry = CauchyGeometry.from_slots(slots, k)
    elif not geometry.fits(slots, k):
        raise ValueError("the geometry belongs to slots with other nodes")
    _check_mirror(f, g, slots.mirror, k)
    rows, cols = geometry.pairs
    rk, ck = rows + k, cols + k
    if diag is None:
        fill = np.einsum("qr,qr->r", f[:, rk], g[:, ck])
    else:
        fill = diag(slots.vec_ids[rk], slots.vec_ids[ck], z[rk]) \
            * (s[rk] * s[ck] / TWO_PI_I)
    nonzero = lambda a: np.flatnonzero(np.any(a != 0, axis=1))
    return CauchyOperator(f=f, g=g, f_rows=nonzero(f[:, :k]),
                          g_rows=nonzero(g[:, :k]), fill=fill,
                          geometry=geometry, slots=slots, lead=lead,
                          meta=dict(meta or {}))


def _check_mirror(f, g, mirror, lead):
    """Raise ValueError unless S[sigma, sigma] = conj(S) for the slot
    mirror sigma = ``mirror`` (its nodes checked by ``CauchyGeometry``):
    f[:, sigma] = e conj(f), g[:, sigma] = -e conj(g) within 1e-14 of
    their largest entry, with e = -i on the rest (the fold of weights
    with w[sigma] = -conj(w)) and e = +-i on each lead slot, which
    enters S only through f g^T."""
    rest, at_lead = True, True  # e = -i holds, e = +i holds on the lead
    for a, ie in (f, 1j), (g, -1j):
        a_sigma, tol = a[:, mirror], 1e-14 * abs(a).max()
        ia = ie * a.conj()
        rest = rest & np.all(abs(a_sigma + ia) <= tol, axis=0)
        at_lead = at_lead & np.all(abs(a_sigma[:, :lead] - ia[:, :lead])
                                   <= tol, axis=0)
    if not (np.all(rest[lead:]) and np.all(rest[:lead] | at_lead)):
        raise ValueError("kernel vectors are not mirror-symmetric")


def interval_grids(endpoints, t_cut=DEFAULT_TAIL_CUT):
    """Real quadrature nodes/weights on the intervals of every time.

    One (nodes, weights) pair per time of ``endpoints``; an odd endpoint
    count makes the last interval semi-infinite, truncated at ``t_cut``.
    The times share one dict of Gauss-Legendre rules, so each distinct
    rule is built once.
    """
    rules = {}
    grids = []
    for ends in endpoints.per_time:
        ends = list(ends) + ([ends[-1] + t_cut] if len(ends) % 2 else [])
        xs, ws = [np.empty(0)], [np.empty(0)]
        for a, b in zip(ends[0::2], ends[1::2]):
            length = b - a
            n_panels = max(1, int(np.ceil(length / _MAX_PANEL)))
            n_nodes = max(_MIN_NODES, int(np.ceil(_NODES_PER_UNIT * length)))
            x, w = gauss_legendre_panels(np.linspace(a, b, n_panels + 1),
                                         n_nodes, rules)
            xs.append(x)
            ws.append(w)
        grids.append((np.concatenate(xs), np.concatenate(ws)))
    return grids


def double_contour_factors(mu_grids, lam_grid, shifts, left_phase,
                           right_phase):
    """(left, right) with left(i, x)^T right(j, y) = (2 pi i)^-2 int int
    e^{left_phase(i, x, mu) - right_phase(j, y, lam)} / (lam + shifts[j]
    - mu) over mu on ``mu_grids`` and lam on ``lam_grid``.

    right(j, y) carries the Cauchy factor d_j = w_mu w_lam / ((2 pi i)^2
    (lam + shifts[j] - mu)), formed once per distinct shift; ContourError
    when the two contours collide in it.
    """
    mu = np.concatenate([g.nodes for g in mu_grids])
    w = np.concatenate([g.weights for g in mu_grids])[:, None] \
        * lam_grid.weights[None, :] / TWO_PI_I ** 2
    lam, cauchy = lam_grid.nodes, {}
    for s in dict.fromkeys(shifts):
        den = lam[None, :] + s - mu[:, None]
        if np.abs(den).min() < 1e-8:
            raise ContourError(
                "mu and lam contours collide in the denominator")
        cauchy[s] = np.divide(w, den, out=den)

    def left(i, xs):
        return np.exp(left_phase(i, xs[None, :], mu[:, None]))

    def right(j, ys):
        return cauchy[shifts[j]] @ np.exp(-right_phase(j, ys[None, :],
                                                       lam[:, None]))

    return left, right


def interval_operator(grids, left, right, bridge, meta):
    """Nystrom discretization of chi K chi on per-time interval grids.

    ``grids`` holds one (nodes, weights) pair per time, and the kernel
    block is K_ij(x, y) = left(i, x)^T right(j, y) - bridge(i, j, x, y):
    each time's factors are computed once, on its own nodes.
    """
    xs = [x for x, _ in grids]
    us = [left(i, x) for i, x in enumerate(xs)]
    vs = [right(j, x) for j, x in enumerate(xs)]
    starts = np.concatenate([[0], np.cumsum([len(x) for x in xs])])
    kmat = np.zeros((starts[-1], starts[-1]), dtype=complex)
    for i, j in np.ndindex(len(xs), len(xs)):
        if len(xs[i]) and len(xs[j]):
            kmat[starts[i]:starts[i + 1], starts[j]:starts[j + 1]] = \
                us[i].T @ vs[j] - bridge(i, j, xs[i][:, None], xs[j][None, :])
    return DiscreteOperator.from_kernel_matrix(
        kmat, np.concatenate([w for _, w in grids]), meta=meta)


def _factor(a, overwrite=True):
    """(lu, piv, log det, rcond) of the Fortran-ordered matrix ``a``.

    ``a`` is ``op.schur()``: I - M, or the real form R of the Schur
    complement S of a contour operator; with ``overwrite`` LAPACK
    factors it in place.  rcond is that of ``a`` in its own 1-norm; a
    non-finite ``a`` raises ValueError.
    """
    anorm = np.abs(a).sum(axis=0).max(initial=0.0)
    if not np.isfinite(anorm):
        raise ValueError("operator has non-finite or overflowing entries")
    lu, piv = sla.lu_factor(a, overwrite_a=overwrite, check_finite=False)
    d = np.diag(lu)
    if np.any(d == 0):
        return lu, piv, complex(-np.inf, 0.0), 0.0
    swaps = int(np.sum(piv != np.arange(len(piv)))) % 2
    phase = np.sum(np.angle(d)) + np.pi * swaps
    # into (-pi, pi]; a phase already there is returned unchanged
    phase -= 2.0 * np.pi * np.ceil((phase - np.pi) / (2.0 * np.pi))
    log_value = complex(np.sum(np.log(np.abs(d))), phase)
    if not len(d):
        return lu, piv, log_value, 1.0
    inv = _inv_norm1(lu, piv)
    rcond = 1.0 / (anorm * inv) if 0.0 < inv < np.inf else 0.0
    return lu, piv, log_value, float(rcond)


def _inv_norm1(lu, piv):
    """Hager-Higham estimate of ||A^{-1}||_1 (LAPACK's xlacn2) from the
    LU factors of A, with its sums in numpy: LAPACK's xgecon sums with
    BLAS, whose rounding follows the alignment of its work array, so its
    rcond does not repeat bit for bit."""
    getrs, n = sla.get_lapack_funcs(("getrs",), (lu,))[0], len(piv)
    x, est = np.full(n, 1.0 / n), 0.0
    for _ in range(5):
        y = getrs(lu, piv, x)[0]
        if not np.abs(y).sum() > est:
            break
        est = np.abs(y).sum()
        sign = np.divide(y, np.abs(y), out=np.ones_like(y), where=y != 0)
        z = getrs(lu, piv, sign, trans=2)[0]
        x = np.eye(1, n, np.argmax(np.abs(z)))[0]
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / max(n - 1, 1))
    return max(est, 2.0 * np.abs(getrs(lu, piv, alt)[0]).sum() / (3 * n))


def _solver(a, overwrite=True):
    """LU factors of S = ``a`` for solves; raises when S is near singular."""
    lu, piv, _, rcond = _factor(a, overwrite)
    if rcond < _RCOND_MIN:
        raise NearSingularOperatorError(
            f"operator nearly singular (rcond={rcond:.2e})")
    return lu, piv


def _schur_solve(op, a, factors, b):
    """(I - M)^{-1} b (one column each) and its relative residual, from
    the Schur system R y = c of ``a`` = R and its LU ``factors``.

    c = fold(b_L + C b_X); y gets one refinement step, and x_L =
    unfold(y), x_X = b_X + B x_L.  The X rows of b - (I - M) x then
    vanish, and fold is sqrt(2) times a unitary map, so the residual is
    ||c - R y|| / sqrt(2) / ||b||.  With no lead block R y = c is
    (I - M) x = b itself.
    """
    k = op.lead
    c, scale = (op.fold(b[k:] + op.c_dot(b[:k])), np.sqrt(2.0)) if k \
        else (b, 1.0)
    y = sla.lu_solve(factors, c, check_finite=False)
    y += sla.lu_solve(factors, c - a @ y, check_finite=False)
    resid = np.linalg.norm(c - a @ y) / scale \
        / max(np.linalg.norm(b), 1e-300)
    if not k:
        return y, resid
    x = np.empty_like(b)
    x[k:] = op.unfold(y)
    x[:k] = b[:k] + op.b_dot(x[k:])
    return x, resid


def det(op):
    """Fredholm determinant det(I - M) via pivoted LU of the Schur
    complement (see ``_factor``)."""
    a = op.schur()
    _, _, log_value, rcond = _factor(a)
    value = np.exp(log_value) if log_value.real < 700 else complex(np.inf)
    if np.isrealobj(a):  # drop the sin(pi) of a negative real determinant
        value = complex(value.real)
    diag = {"rcond": rcond, "n": op.n, "n_factored": op.n - op.lead,
            "max_abs_imag": abs(value.imag) if np.isfinite(value.real) else np.nan}
    diag.update(op.meta)
    return DetResult(complex(value), log_value, diag)


def det2(op):
    """Carleman regularized determinant det2(I - M) = det(I - M) e^{tr M}.

    For the diagonal-free contour kernels used here det2 coincides with
    det; the trace factor matters for kernels with a genuine diagonal.
    """
    base = det(op)
    tr = op.trace()
    log_value = base.log_value + tr
    value = np.exp(log_value) if log_value.real < 700 else complex(np.inf)
    diag = dict(base.diagnostics)
    diag["trace"] = tr
    return DetResult(complex(value), log_value, diag)


def solve_resolvent(op, rhs):
    """Solve (I - M) F = f for node values F.

    ``rhs`` holds plain kernel-side values at the slots (one column per
    right-hand side); the weight scaling is internal.  One refinement
    step on the Schur system (``_schur_solve``), then the residual must
    be below 1e-10.
    """
    rhs = np.asarray(rhs, dtype=complex)
    a = op.schur()
    factors = _solver(a, overwrite=False)
    s = np.sqrt(op.weights)[:, None]
    x, resid = _schur_solve(op, a, factors, rhs.reshape(len(rhs), -1) * s)
    if resid > 1e-10:
        raise NearSingularOperatorError(
            f"resolvent residual {resid:.2e} exceeds 1e-10")
    return (x / s).reshape(rhs.shape)


def logdet_derivative(op, dop):
    """Jacobi's formula: d log det(I - M) = tr(S^{-1} dS).

    ``dop`` samples dM like ``op`` samples M: a dense sampler for a
    dense operator, or a contour tangent on the same slots and weights
    (and with the same vanishing lead block) for a contour operator;
    ``op.schur_tangent`` assembles dS from both.
    """
    if type(dop) is not type(op) or dop.n != op.n or dop.lead != op.lead:
        raise ValueError("operator and derivative sampler are incompatible")
    x = sla.lu_solve(_solver(op.schur()), op.schur_tangent(dop),
                     check_finite=False)
    return complex(np.trace(x))
