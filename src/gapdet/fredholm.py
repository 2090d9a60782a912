"""Nystrom discretization and the Fredholm determinant engine.

A kernel sampled at quadrature nodes becomes a matrix M with the
weights folded in symmetrically, M[r,c] = sqrt(w_r) K(r,c) sqrt(w_c),
so that det(I - M) approximates the Fredholm determinant.  Both
representations of a gap probability are assembled here: the physical
kernel on real interval grids (``interval_operator``, a dense real
``DiscreteOperator``) and the integrable kernel f^T(lam) g(mu) /
(lam - mu) on contour slots (``cauchy_operator``, a ``CauchyOperator``).

A physical entry, a double contour integral over mirror-symmetric
contours, is summed over one mirror half in real arithmetic.

A contour operator holds neither M nor a block of it.  M vanishes on
its ``lead`` leading slots X, M = [[0, B], [C, D]], and det(I - M) =
det(S) with S = I - D - C B.  With the folded generators f, g, X enters
S only through 1 / (z - xi) at its distinct nodes xi and through P_xi
= sum f_l g_l^T over the slots at xi: the operator reads one matrix K
= 1 / (zeta - xi) over the distinct rest nodes zeta from the
``contour.CauchyGeometry`` of its contour system.  With T =
K P, the partial fractions of 1 / ((z_r - xi)(xi - z_c)) give, for
z_r != z_c,

    (D + C B)_rc = ((f_r + u_r) . g_c + f_r . v_c) / (z_r - z_c),
    u_r = T_r f_r,  v_c = -T_c^T g_c,

a numerator of rank 2p, so S costs one such product and one multiply
per entry, by the reciprocal of z_c - z_r formed once per call
(``_reciprocal``).  At coincident slots D keeps its stored value and the
two Cauchy factors merge: (C B)_rc = -g_c^T ((K o K) P)_r f_r.  C y and
B x are products of K and K^T with node sums of g y and g x, over the
rows of f and g that are non-zero on some lead slot.

S is factored as a real matrix.  The contours have real apexes and
mirrored legs, and the phases real coefficients, so S[sigma, sigma] =
conj(S) for the slot mirror sigma of the geometry.  With h the
first slot of each mirrored pair, A11 = S[h, h], A12 = S[h, sigma h]
and Q = [[I, I], [-iI, iI]] / sqrt(2) on [h, sigma h], R = Q S Q^H =
[[Re(A11 + A12), -Im(A11 - A12)], [Im(A11 + A12), Re(A11 - A12)]] is
real with det R = det S, and only the rows h of S are formed.  Solves
are refined and checked on R y = Q (b_L + C b_X), the Jacobi trace
goes through Q as well, and a contour determinant is real, with
``max_abs_imag`` 0.  Operators on one geometry form their real forms as
one batch (``dets``, ``resolvent_moments``; ``det`` is a batch of one).

Where the finiteness checks stand: an interval operator checks every
sampled entry before folding.  A contour operator checks its f and g
columns, at O(pN) cost; an entry of S that overflows from finite
columns shows in the 1-norm of R, which ``_factor`` checks before
every factorization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .contour import (TWO_PI_I, CauchyGeometry, ContourError, Slots,
                      gauss_legendre_panels)

__all__ = [
    "CauchyOperator",
    "DiscreteOperator",
    "DetResult",
    "NearSingularOperatorError",
    "cauchy_operator",
    "double_contour_factors",
    "interval_grids",
    "interval_operator",
    "det",
    "dets",
    "det2",
    "solve_resolvent",
    "resolvent_moments",
    "logdet_derivative",
]

# interval quadrature: truncation length of a semi-infinite interval
# [a, inf), nodes per unit length, nodes per interval at least, longest
# Gauss-Legendre panel
_TAIL_CUT = 12.0
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
    symmetrically, real for a real sample with non-negative weights.
    No block of it is known to vanish (``lead`` is 0), so the
    factorization reads all of I - M.
    """

    matrix: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    lead = 0

    @classmethod
    def from_kernel_matrix(cls, kmat, weights, meta=None):
        """Fold quadrature weights into a raw kernel sample matrix."""
        weights = np.asarray(weights)
        dtype = float if np.isrealobj(kmat) and np.isrealobj(weights) \
            and np.all(weights >= 0) else complex
        kmat, weights = np.asarray(kmat, dtype), weights.astype(dtype)
        if not np.all(np.isfinite(kmat)):
            raise ValueError("kernel sample contains non-finite entries")
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


@dataclass(frozen=True)
class CauchyOperator:
    """Integrable-kernel operator: O(N) data and one node-level matrix.

    In slot order M = [[0, B], [C, D]], with the exact zero block on
    the ``lead`` leading slots X.  ``f`` and ``g`` are the folded
    generators, (q, N) arrays with M[r, c] = f_r . g_c / (z_r - z_c)
    wherever z_r != z_c.  No block is stored: the ``geometry`` of the
    contour system holds the node-level Cauchy matrix between X and the
    rest L, and D is kept only as its values ``fill`` at the geometry's
    coincident rest pairs.
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
    meta: dict = field(default_factory=dict)

    @property
    def lead(self):
        return self.geometry.lead

    @property
    def n(self):
        return len(self.slots.nodes)

    @property
    def weights(self):
        return self.slots.weights

    def schur(self):
        """R = Q (I - D - C B) Q^H, real, in a fresh Fortran-ordered array."""
        return _forms([self])[2](0)

    def schur_tangent(self, dop):
        """Q dS Q^H with dS = -(dD + dC B + C dB), for a tangent ``dop``
        on the same slots, whose lead block vanishes like that of M."""
        k, geo = self.lead, self.geometry
        terms1, cb1 = _product(dop, self)  # dC B
        terms2, cb2 = _product(self, dop)  # C dB
        return _real_form(geo, [(dop.f[:, k:], dop.g[:, k:])] + terms1
                          + terms2, dop.fill + cb1 + cb2, _reciprocal(geo))

    def fold(self, x):
        """sqrt(2) Q x for rest-slot rows ``x``, as real columns [Re | Im]."""
        h, t = np.split(self.geometry.mirror, 2)
        a, b = x[..., h, :], x[..., t, :]
        y = np.concatenate([a + b, 1j * (b - a)], axis=-2)
        return np.concatenate([y.real, y.imag], axis=-1)

    def unfold(self, y):
        """The x with ``fold(x) = y``."""
        h, t = np.split(self.geometry.mirror, 2)
        re, im = np.split(y, 2, axis=-1)
        a, b = np.split(re + 1j * im, 2, axis=-2)
        x = np.empty(re.shape, dtype=complex)
        x[..., h, :], x[..., t, :] = (a + 1j * b) / 2, (a - 1j * b) / 2
        return x

    def c_dot(self, y):
        """C y for ``y`` on the lead slots, one row per slot."""
        k, q, geo = self.lead, self.g_rows, self.geometry
        return _couple(self.f[..., q, k:], geo.rest_nodes.ids, geo.cauchy,
                       geo.lead_nodes, self.g[..., q, :k], y)

    def b_dot(self, x):
        """B x for ``x`` on the rest slots, one row per slot."""
        k, q, geo = self.lead, self.f_rows, self.geometry
        return -_couple(self.f[..., q, :k], geo.lead_nodes.ids, geo.cauchy.T,
                        geo.rest_nodes, self.g[..., q, k:], x)

    def trace(self):
        """tr M: the lead block is zero and the diagonal is coincident."""
        rows, cols = self.geometry.pairs
        return complex(np.sum(self.fill[rows == cols]))


def _couple(f, ids, kmat, nodes, g, y):
    """f_s . sum_t kmat[ids_s, node_t] g_t y_t over the slots t of ``y``
    (one row each, columns last): a product with a lead-rest block of M,
    summed over the slots at each node of ``nodes`` before the product
    with kmat.  f, g and y may carry one leading axis over a batch."""
    h = nodes.sum(np.einsum("...it,...tr->t...ir", g, y)
                  .reshape(g.shape[-1], -1))
    h = (kmat @ h).reshape((len(kmat),) + g.shape[:-1] + y.shape[-1:])[ids]
    return np.einsum("...is,s...ir->...sr", f, h)


def _reciprocal(geo):
    """1 / (z_c - z_r) over the rest slots c in mirror order and r in
    its half h, 1 at the coincident pairs ``fill_at``."""
    order, z = geo.mirror, geo.nodes[geo.lead:]
    den = np.subtract.outer(z[order], z[order[:len(order) // 2]])
    cols, rows, _ = geo.fill_at
    den[cols, rows] = 1.0
    return np.divide(1.0, den, out=den)


def _real_form(geo, terms, fill, rec):
    """Q A Q^H for A = -sum_t l_t^T r_t / (z_r - z_c) on L over the
    (l, r) generator ``terms``, with -``fill`` at the coincident pairs:
    Fortran-ordered, from the rows h of A alone; ``rec`` is
    ``_reciprocal(geo)``."""
    order = geo.mirror
    h = order[:len(order) // 2]
    left = np.concatenate([l[:, h] for l, _ in terms])
    right = np.concatenate([r[:, order] for _, r in terms])
    at = right.T @ left  # at[c, r] = l_r . r_c, c in mirror order
    at *= rec
    cols, rows, keep = geo.fill_at
    at[cols, rows] = -fill[keep]
    n = len(h)
    p, m = at[:n] + at[n:], at[:n] - at[n:]
    del at  # before r: one fewer order-N/2 complex block at the peak
    r = np.empty((2 * n, 2 * n), order="F")
    r[:n, :n], r[n:, :n], r[:n, n:], r[n:, n:] = \
        p.real.T, p.imag.T, -m.imag.T, m.real.T
    return r


def _forms(ops):
    """(batch, metas, form) of ``ops``, read one at a time: ``form(i)``
    is the matrix to factor of the i-th and ``metas[i]`` its (n, lead,
    meta).  Contour operators, of one geometry and generator shape, are
    stacked as they are read into ``batch``, one CauchyOperator with f, g
    and fill on a leading axis, whose real forms share one pass of C B
    (``_product``) and one Cauchy reciprocal."""
    ops = iter(ops)
    first = next(ops, None)
    if not isinstance(first, CauchyOperator):  # dense operators, or none
        ops = [] if first is None else [first, *ops]
        return first, [(op.n, 0, op.meta) for op in ops], \
            lambda i: ops[i].schur()
    parts = []
    for op in itertools.chain([first], ops):
        if op.geometry is not first.geometry or op.f.shape != first.f.shape:
            raise ValueError("a batch needs one geometry and generator shape")
        parts.append((op.f, op.g, op.fill, op.f_rows, op.g_rows, op.meta))
    f, g, fill, f_rows, g_rows, metas = zip(*parts)
    batch = replace(first, f=np.stack(f), g=np.stack(g), fill=np.stack(fill),
                    f_rows=np.unique(np.concatenate(f_rows)),
                    g_rows=np.unique(np.concatenate(g_rows)))
    (terms, cb), geo, k = _product(batch, batch), batch.geometry, batch.lead
    rec = _reciprocal(geo)

    def form(i):
        r = _real_form(geo, [(batch.f[i, :, k:], batch.g[i, :, k:])]
                       + [(left[i], right[i]) for left, right in terms],
                       batch.fill[i] + cb[i], rec)
        r[np.diag_indices(len(r))] += 1.0
        return r
    return batch, [(batch.n, k, meta) for meta in metas], form


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
    coincident pairs.  Both may carry one leading axis over a batch
    (``_forms``), whose P then share one product with K."""
    k, geo = a.lead, a.geometry
    ids, kc = geo.rest_nodes.ids, geo.cauchy
    fa, gb = a.f[..., a.g_rows, k:], b.g[..., b.f_rows, k:]
    fb, ga = b.f[..., b.f_rows, :k], a.g[..., a.g_rows, :k]
    p = geo.lead_nodes.sum(
        np.einsum("...is,...js->s...ij", fb, ga).reshape(k, -1))
    shape = (len(kc),) + fb.shape[:-1] + ga.shape[-2:-1]
    t = (kc @ p).reshape(shape)[ids]
    u = np.einsum("s...ij,...js->...is", t, fa)
    v = -np.einsum("s...ij,...is->...js", t, gb)
    rows, cols = geo.pairs
    w = (kc * kc @ p).reshape(shape)[ids[rows]]
    cb = -np.einsum("...ip,p...ij,...jp->...p", gb[..., cols], w,
                    fa[..., rows])
    return [(u, gb), (fa, v)], cb


def cauchy_operator(terms, slots, geometry, diag=None, meta=None):
    """Discretize K(lam, mu) = sum f^T(lam) g(mu) / (2 pi i (lam - mu)).

    ``terms`` lists the (f, g) pairs of the sum, (p, N) arrays with one
    column per slot.  K vanishes between the leading slots X of the
    contour system's ``geometry`` (contours where the non-zero rows of f
    and g never meet, so f^T g = 0 there exactly); at coincident slots
    past them ``diag(i, j, lam)`` gives its removable value times 2 pi i
    (without it, f^T g there).

    The weights live in the generators: f carries sqrt(w) / (2 pi i)
    and g carries sqrt(w), so one product per entry gives the folded
    matrix.  Only D at coincident slots is written; the node-level
    Cauchy matrix is the geometry's.  The slots must lie on the
    geometry's nodes, and the scaled columns must be finite and
    mirror-symmetric (``_check_mirror``), else ValueError; an entry that
    overflows from finite columns is caught where ``_factor`` checks S.
    """
    s = np.sqrt(slots.weights)
    f = np.concatenate([f for f, _ in terms]) * (s / TWO_PI_I)
    g = np.concatenate([g for _, g in terms]) * s
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise ValueError("kernel vectors contain non-finite entries")
    if not np.array_equal(slots.nodes, geometry.nodes):
        raise ValueError("the slots do not lie on the geometry's nodes")
    z, k = slots.nodes, geometry.lead
    _check_mirror(f, g, geometry.slot_mirror, k)
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
                          geometry=geometry, slots=slots,
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


def interval_grids(endpoints):
    """Real quadrature nodes/weights on the intervals of every time.

    One (nodes, weights) pair per time of ``endpoints``; an odd endpoint
    count makes the last interval semi-infinite, cut ``_TAIL_CUT`` past
    its left end.  The times share one dict of Gauss-Legendre rules, so
    each distinct rule is built once.
    """
    rules = {}
    grids = []
    for ends in endpoints.per_time:
        ends = list(ends) + ([ends[-1] + _TAIL_CUT] if len(ends) % 2 else [])
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
    """Real (left, right) with left(i, x)^T right(j, y) = (2 pi i)^-2
    int int e^{left_phase(i, x, mu) - right_phase(j, y, lam)} / (lam +
    shifts[j] - mu) over mu on ``mu_grids`` and lam on ``lam_grid``.

    Each grid must be its own mirror image, z[::-1] = conj(z) and
    w[::-1] = -conj(w) exactly (else ContourError), and the phases are
    real at real x and mu, so the summand at (conj mu, conj lam) is
    the conjugate of that at (mu, lam): with mu on the first halves
    only, the integral is 2 Re(L^T R), and left = [Re L; Im L], right =
    [Re 2R; -Im 2R].  R carries the Cauchy factor d_j = w_mu w_lam /
    ((2 pi i)^2 (lam + shifts[j] - mu)), formed once per distinct shift;
    ContourError when the two contours collide in it.
    """
    for g in (*mu_grids, lam_grid):
        z, wg = g.nodes, g.weights
        if len(z) % 2 or not (np.array_equal(z[::-1], z.conj())
                              and np.array_equal(wg[::-1], -wg.conj())):
            raise ContourError(f"the {g.component.label} grid is not its "
                               "own mirror image")
    mu = np.concatenate([g.nodes[:len(g) // 2] for g in mu_grids])
    w = np.concatenate([g.weights[:len(g) // 2] for g in mu_grids])[:, None] \
        * (2.0 * lam_grid.weights[None, :]) / TWO_PI_I ** 2
    lam, cauchy = lam_grid.nodes, {}
    for s in dict.fromkeys(shifts):
        den = lam[None, :] + s - mu[:, None]
        if np.abs(den).min() < 1e-8:
            raise ContourError(
                "mu and lam contours collide in the denominator")
        cauchy[s] = np.divide(w, den, out=den)

    def left(i, xs):
        e = np.exp(left_phase(i, xs[None, :], mu[:, None]))
        return np.concatenate([e.real, e.imag])

    def right(j, ys):
        v = cauchy[shifts[j]] @ np.exp(-right_phase(j, ys[None, :],
                                                    lam[:, None]))
        return np.concatenate([v.real, -v.imag])

    return left, right


def interval_operator(grids, left, right, bridge, meta):
    """Nystrom discretization of chi K chi on per-time interval grids.

    ``grids`` holds one (nodes, weights) pair per time, and the kernel
    block is K_ij(x, y) = left(i, x)^T right(j, y) - bridge(i, j, x, y),
    real: each time's factors are computed once, on its own nodes.
    """
    xs = [x for x, _ in grids]
    us = [left(i, x) for i, x in enumerate(xs)]
    vs = [right(j, x) for j, x in enumerate(xs)]
    starts = np.concatenate([[0], np.cumsum([len(x) for x in xs])])
    kmat = np.zeros((starts[-1], starts[-1]))
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
    non-finite ``a`` raises ValueError.  LAPACK factors ``a`` with its
    subnormal entries set to zero, in a copy unless ``overwrite``: they
    slow the LU several fold and move the log det by less than rounding.
    """
    mag = np.abs(a)
    anorm = mag.sum(axis=0).max(initial=0.0)
    if not np.isfinite(anorm):
        raise ValueError("operator has non-finite or overflowing entries")
    small = mag < np.finfo(mag.dtype).tiny  # zero or subnormal
    if small.any():
        small &= mag > 0
        if small.any():
            a = a if overwrite else a.copy(order="F")
            a[small] = 0.0
    del mag, small  # before LAPACK's copy
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


def _schur_solve(batch, form, b):
    """(I - M)^{-1} b and its relative residual for each operator of a
    ``_forms`` batch, b stacked over them with one column per
    right-hand side; a residual above 1e-10 raises.

    c = fold(b_L + C b_X); y gets one refinement step, and x_L =
    unfold(y), x_X = b_X + B x_L.  The X rows of b - (I - M) x then
    vanish, and fold is sqrt(2) times a unitary map, so the residual is
    ||c - R y|| / sqrt(2) / ||b||.  With no lead block R y = c is
    (I - M) x = b itself.
    """
    k = batch.lead
    c, scale = (batch.fold(b[:, k:] + batch.c_dot(b[:, :k])), np.sqrt(2.0)) \
        if k else (b, 1.0)
    y, resid = np.empty_like(c), np.empty(len(c))
    for i in range(len(c)):
        a = form(i)
        factors = _solver(a, overwrite=False)
        y[i] = sla.lu_solve(factors, c[i], check_finite=False)
        y[i] += sla.lu_solve(factors, c[i] - a @ y[i], check_finite=False)
        resid[i] = np.linalg.norm(c[i] - a @ y[i]) / scale \
            / max(np.linalg.norm(b[i]), 1e-300)
        del a, factors  # before the next R is formed
    if resid.max() > 1e-10:
        raise NearSingularOperatorError(
            f"resolvent residual {resid.max():.2e} exceeds 1e-10")
    if not k:
        return y, resid
    x = np.empty_like(b)
    x[:, k:] = batch.unfold(y)
    x[:, :k] = b[:, :k] + batch.b_dot(x[:, k:])
    return x, resid


def dets(ops):
    """Fredholm determinants det(I - M) of ``ops``, read one at a time
    (``_forms``), via pivoted LU of their Schur complements."""
    _, metas, form = _forms(ops)
    out = []
    for i, (n, lead, meta) in enumerate(metas):
        a = form(i)
        _, _, log_value, rcond = _factor(a)
        value = np.exp(log_value) if log_value.real < 700 else complex(np.inf)
        if np.isrealobj(a):  # drop the sin(pi) of a negative real determinant
            value = complex(value.real)
        del a  # before the next R is formed
        out.append(DetResult(complex(value), log_value, {
            "rcond": rcond, "n": n, "n_factored": n - lead, "max_abs_imag":
            abs(value.imag) if np.isfinite(value.real) else np.nan, **meta}))
    return out


def det(op):
    """``dets`` of the one operator ``op``."""
    return dets([op])[0]


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
    s = np.sqrt(op.weights)[:, None]
    batch, _, form = _forms([op])
    [x], _ = _schur_solve(batch, form, rhs.reshape(1, len(rhs), -1) * s)
    return (x / s).reshape(rhs.shape)


def resolvent_moments(ops):
    """(Gamma_1, Gamma_2) of each IIKS operator of ``ops``, read one at
    a time (``_forms``), from one batch of solves: with F = (I - M)^{-1}
    f^T in the folded generators (the resolvent image of f / (2 pi i)
    times sqrt(w)), Gamma_k = sum over the slots of z^(k-1) F g^T."""
    batch, _, form = _forms(ops)
    x, _ = _schur_solve(batch, form, np.swapaxes(batch.f, 1, 2))
    return list(zip(*(np.einsum("s,bsp,bqs->bpq", batch.geometry.nodes
                                ** (k - 1), x, batch.g) for k in (1, 2))))


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
