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
= 1 / (zeta - xi) over the distinct rest nodes zeta.  With T = K P, the
partial fractions of 1 / ((z_r - xi)(xi - z_c)) give, for z_r != z_c,

    (D + C B)_rc = ((f_r + u_r) . g_c + f_r . v_c) / (z_r - z_c),
    u_r = T_r f_r,  v_c = -T_c^T g_c,

a numerator of rank 2p, so S costs one such product and one division
per entry.  At coincident slots D keeps its stored value and the two
Cauchy factors merge: (C B)_rc = -g_c^T ((K o K) P)_r f_r.  C y and B x
are products of K and K^T with node sums of g y and g x.

Where the finiteness checks stand: an interval operator checks every
sampled entry before folding.  A contour operator checks its f and g
columns, at O(pN) cost; an entry of S that overflows from finite
columns shows in the 1-norm of S, which ``_factor`` checks before
every factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .contour import TWO_PI_I, Slots, gauss_legendre_panels

__all__ = [
    "CauchyOperator",
    "DiscreteOperator",
    "DetResult",
    "NearSingularOperatorError",
    "cauchy_operator",
    "interval_grid",
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
class CauchyOperator:
    """Integrable-kernel operator: O(N) data and one node-level matrix.

    In slot order M = [[0, B], [C, D]], with the exact zero block on
    the ``lead`` leading slots X.  ``f`` and ``g`` are the folded
    generators, (q, N) arrays with M[r, c] = f_r . g_c / (z_r - z_c)
    wherever z_r != z_c.  No block is stored: ``lead_nodes`` and
    ``rest_nodes`` are the distinct nodes xi of X and zeta of the rest
    L, ``cauchy`` = 1 / (zeta - xi) is the one matrix held, and D is
    kept only as its values ``fill`` at the coincident rest slots
    ``pairs`` (indices into L, the diagonal included).  The
    ``contour.Slots`` are kept for the resolvent moments.
    """

    f: np.ndarray
    g: np.ndarray
    cauchy: np.ndarray
    lead_nodes: _Nodes
    rest_nodes: _Nodes
    pairs: tuple
    fill: np.ndarray
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
        """S = I - D - C B in a fresh Fortran-ordered array."""
        k = self.lead
        f, g = self.f[:, k:], self.g[:, k:]
        u, v, cb = _product(self, self)
        a = _neg_cauchy([(f + u, g), (f, v)], self.slots.nodes[k:],
                        self.pairs, self.fill + cb)
        a[np.diag_indices(self.n - k)] += 1.0
        return a

    def schur_tangent(self, dop):
        """dS = -(dD + dC B + C dB) for a tangent ``dop`` on the same
        slots, whose lead block vanishes like that of M."""
        k = self.lead
        u1, v1, cb1 = _product(dop, self)  # dC B
        u2, v2, cb2 = _product(self, dop)  # C dB
        phi, psi = dop.f[:, k:], dop.g[:, k:]
        f, g = self.f[:, k:], self.g[:, k:]
        return _neg_cauchy([(phi + u2, psi), (u1, g), (phi, v1), (f, v2)],
                           self.slots.nodes[k:], self.pairs,
                           dop.fill + cb1 + cb2)

    def c_dot(self, y):
        """C y for ``y`` on the lead slots, one row per slot."""
        k = self.lead
        return _couple(self.f[:, k:], self.rest_nodes.ids, self.cauchy,
                       self.lead_nodes, self.g[:, :k], y)

    def b_dot(self, x):
        """B x for ``x`` on the rest slots, one row per slot."""
        k = self.lead
        return -_couple(self.f[:, :k], self.lead_nodes.ids, self.cauchy.T,
                        self.rest_nodes, self.g[:, k:], x)

    def trace(self):
        """tr M: the lead block is zero and the diagonal is coincident."""
        rows, cols = self.pairs
        return complex(np.sum(self.fill[rows == cols]))


def _couple(f, ids, kmat, nodes, g, y):
    """f_s . sum_t kmat[ids_s, node_t] g_t y_t over the slots t of ``y``
    (one row each): a product with a lead-rest block of M, summed over
    the slots at each node of ``nodes`` before the product with kmat."""
    y2 = y.reshape(len(y), -1)
    h = nodes.sum((g.T[:, :, None] * y2[:, None, :]).reshape(len(y2), -1))
    h = (kmat @ h).reshape(len(kmat), len(f), -1)[ids]
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
    """C_a B_b of two contour operators on the same slots, as the (u, v,
    cb) of the module docstring with P_xi = sum f^b_l (g^a_l)^T over the
    lead slots at xi; ``cb`` holds the values at the coincident pairs."""
    k, ids, kc = a.lead, a.rest_nodes.ids, a.cauchy
    fa, gb, fb, ga = a.f[:, k:], b.g[:, k:], b.f[:, :k], a.g[:, :k]
    p = a.lead_nodes.sum((fb.T[:, :, None] * ga.T[:, None, :]).reshape(k, -1))
    t = (kc @ p).reshape(-1, len(fb), len(ga))[ids]
    u = np.einsum("sij,js->is", t, fa)
    v = -np.einsum("sij,is->js", t, gb)
    rows, cols = a.pairs
    w = (kc * kc @ p).reshape(-1, len(fb), len(ga))[ids[rows]]
    cb = -np.einsum("ip,pij,jp->p", gb[:, cols], w, fa[:, rows])
    return u, v, cb


def _neg_cauchy(terms, z, pairs, fill):
    """-sum_t l_t^T r_t / (z_r - z_c) over the (l, r) generator ``terms``,
    Fortran-ordered, with -``fill`` at the coincident ``pairs``."""
    left = np.concatenate([l for l, _ in terms])
    right = np.concatenate([r for _, r in terms])
    at = right.T @ left  # at[c, r] = l_r . r_c
    den = np.subtract.outer(z, z)  # den[c, r] = z_c - z_r
    rows, cols = pairs
    den[cols, rows] = 1.0
    at /= den
    a = at.T
    a[rows, cols] = -fill
    return a


def cauchy_operator(terms, slots, lead, diag=None, meta=None):
    """Discretize K(lam, mu) = sum f^T(lam) g(mu) / (2 pi i (lam - mu)).

    ``terms`` lists the (f, g) pairs of the sum, (p, N) arrays with one
    column per slot.  K vanishes between the ``lead`` leading slots (one
    contour where the non-zero rows of f and g never meet, so f^T g = 0
    there exactly); at coincident slots past them ``diag(i, j, lam)``
    gives its removable value times 2 pi i (without it, f^T g there).

    The weights live in the generators: f carries sqrt(w) / (2 pi i)
    and g carries sqrt(w), so one product per entry gives the folded
    matrix.  Only the node-level Cauchy matrix is written, and D at
    coincident slots (see ``CauchyOperator``).  The scaled columns must
    be finite, else ValueError; an entry that overflows from finite
    columns is caught where ``_factor`` checks S.
    """
    s = np.sqrt(slots.weights)
    f = np.concatenate([f for f, _ in terms]) * (s / TWO_PI_I)
    g = np.concatenate([g for _, g in terms]) * s
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise ValueError("kernel vectors contain non-finite entries")
    z, k = slots.nodes, lead
    lead_nodes, rest_nodes = _Nodes(z[:k]), _Nodes(z[k:])
    # slots of distinct components never coincide
    cauchy = 1.0 / np.subtract.outer(rest_nodes.values, lead_nodes.values)
    rows, cols = rest_nodes.pairs()
    rk, ck = rows + k, cols + k
    if diag is None:
        fill = np.einsum("qr,qr->r", f[:, rk], g[:, ck])
    else:
        fill = diag(slots.vec_ids[rk], slots.vec_ids[ck], z[rk]) \
            * (s[rk] * s[ck] / TWO_PI_I)
    return CauchyOperator(f=f, g=g, cauchy=cauchy, lead_nodes=lead_nodes,
                          rest_nodes=rest_nodes, pairs=(rows, cols),
                          fill=fill, slots=slots, lead=lead,
                          meta=dict(meta or {}))


def interval_grid(ends, t_cut=DEFAULT_TAIL_CUT, rules=None):
    """Real quadrature nodes/weights on a union of intervals.

    ``ends`` are the sorted endpoints of one time; an odd count makes
    the last interval semi-infinite, truncated at ``t_cut``.  ``rules``
    is passed to ``gauss_legendre_panels``: a physical operator shares
    one dict over its times, so each distinct rule is built once.
    """
    ends = list(ends)
    if not ends:
        return np.empty(0), np.empty(0)
    if len(ends) % 2 == 1:
        ends.append(ends[-1] + t_cut)
    xs, ws = [], []
    for a, b in zip(ends[0::2], ends[1::2]):
        length = b - a
        n_panels = max(1, int(np.ceil(length / _MAX_PANEL)))
        n_nodes = max(_MIN_NODES, int(np.ceil(_NODES_PER_UNIT * length)))
        x, w = gauss_legendre_panels(np.linspace(a, b, n_panels + 1),
                                     n_nodes, rules)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


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

    ``a`` is the Schur complement S of I - M (``op.schur()``); with
    ``overwrite`` LAPACK factors it in place.  rcond is that of S in its
    own 1-norm; a non-finite S raises ValueError.
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
    gecon = sla.get_lapack_funcs(("gecon",), (lu,))[0]
    rcond = gecon(lu, anorm)[0] if len(d) else 1.0
    return lu, piv, log_value, float(rcond)


def _solver(a, overwrite=True):
    """LU factors of S = ``a`` for solves; raises when S is near singular."""
    lu, piv, _, rcond = _factor(a, overwrite)
    if rcond < _RCOND_MIN:
        raise NearSingularOperatorError(
            f"operator nearly singular (rcond={rcond:.2e})")
    return lu, piv


def _solve(op, factors, b):
    """(I - M)^{-1} b by block elimination: S x_L = b_L + C b_X, then
    x_X = b_X + B x_L."""
    k = op.lead
    if not k:
        return sla.lu_solve(factors, b, check_finite=False)
    x = np.empty_like(b)
    x[k:] = sla.lu_solve(factors, b[k:] + op.c_dot(b[:k]), check_finite=False)
    x[:k] = b[:k] + op.b_dot(x[k:])
    return x


def _apply(op, a, x):
    """(I - M) x = [x_X - B x_L; S x_L - C (x_X - B x_L)], S = ``a``."""
    k = op.lead
    if not k:
        return a @ x
    y = np.empty_like(x)
    y[:k] = x[:k] - op.b_dot(x[k:])
    y[k:] = a @ x[k:] - op.c_dot(y[:k])
    return y


def det(op):
    """Fredholm determinant det(I - M) via pivoted LU of the Schur
    complement (see ``_factor``)."""
    _, _, log_value, rcond = _factor(op.schur())
    value = np.exp(log_value) if log_value.real < 700 else complex(np.inf)
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
    step, then the residual must be below 1e-10.
    """
    rhs = np.asarray(rhs, dtype=complex)
    a = op.schur()
    factors = _solver(a, overwrite=False)
    s = np.sqrt(op.weights)
    if rhs.ndim == 2:
        s = s[:, None]
    b = rhs * s
    x = _solve(op, factors, b)
    x += _solve(op, factors, b - _apply(op, a, x))
    resid = np.linalg.norm(b - _apply(op, a, x)) \
        / max(np.linalg.norm(b), 1e-300)
    if resid > 1e-10:
        raise NearSingularOperatorError(
            f"resolvent residual {resid:.2e} exceeds 1e-10")
    return x / s


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
