"""Nystrom discretization and the Fredholm determinant engine.

A kernel sampled at quadrature nodes becomes a dense complex matrix M
with the weights folded in symmetrically, M[r,c] = sqrt(w_r) K(r,c)
sqrt(w_c), so that det(I - M) approximates the Fredholm determinant.
Both representations of a gap probability are assembled here: the
physical kernel on real interval grids (``interval_operator``) and the
integrable kernel f^T(lam) g(mu) / (lam - mu) on contour slots
(``cauchy_operator``).

Where the finiteness checks stand: an interval operator checks every
sampled entry before folding.  A contour operator carries the weights
in its f and g columns and checks those columns, at O(pN) cost; it
never writes its vanishing ``lead`` x ``lead`` block, and an entry
that overflows from finite columns shows in the 1-norm of the Schur
complement, which ``_factor`` checks before every factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .contour import TWO_PI_I, Slots, gauss_legendre_panels

__all__ = [
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
    """Dense discretization of a matrix-valued kernel.

    Row/column r corresponds to one slot: a quadrature node together
    with one active vector component.  ``matrix`` already contains the
    quadrature ``weights`` of the slots, folded in symmetrically.  Its
    leading ``lead`` x ``lead`` block is exactly zero (the kernel
    vanishes between those slots), so the factorization eliminates them
    exactly and factors only an order ``n - lead`` Schur complement.
    A contour operator carries the ``contour.Slots`` it was assembled
    from; an interval operator has none.
    """

    matrix: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)
    lead: int = 0
    slots: Slots | None = None

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


def cauchy_operator(terms, slots, lead, diag=None, meta=None):
    """Discretize K(lam, mu) = sum f^T(lam) g(mu) / (2 pi i (lam - mu)).

    ``terms`` lists the (f, g) pairs of the sum, (p, N) arrays with one
    column per slot.  K vanishes between the ``lead`` leading slots (one
    contour where the non-zero rows of f and g never meet, so f^T g = 0
    there exactly); at coincident slots past them ``diag(i, j, lam)``
    gives its removable value times 2 pi i.

    The weights live in the columns: f carries sqrt(w) / (2 pi i) and g
    carries sqrt(w), so one product per entry gives the folded matrix.
    Only what the factorization reads is written: rows past ``lead``
    and the ``lead`` x rest block; the ``lead`` x ``lead`` block stays
    exactly zero.  The scaled columns must be finite, else ValueError;
    an entry that overflows from finite columns is caught where
    ``_factor`` forms the Schur complement.
    """
    s = np.sqrt(slots.weights)
    f = np.concatenate([f for f, _ in terms]) * (s / TWO_PI_I)
    g = np.concatenate([g for _, g in terms]) * s
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise ValueError("kernel vectors contain non-finite entries")
    z, k = slots.nodes, lead
    m = np.zeros((len(z), len(z)), dtype=complex)
    # slots of distinct components never coincide
    m[:k, k:] = f[:, :k].T @ g[:, k:]
    m[:k, k:] /= z[:k, None] - z[None, k:]
    den = z[k:, None] - z[None, :]
    coincident = den == 0
    den[coincident] = 1.0
    m[k:] = f[:, k:].T @ g
    m[k:] /= den
    if diag is not None:
        rows, cols = np.nonzero(coincident)
        rows += k
        m[rows, cols] = diag(slots.vec_ids[rows], slots.vec_ids[cols],
                             z[rows]) * (s[rows] * s[cols] / TWO_PI_I)
    return DiscreteOperator(matrix=m, weights=slots.weights,
                            meta=dict(meta or {}), lead=lead, slots=slots)


def interval_grid(ends, t_cut=DEFAULT_TAIL_CUT):
    """Real quadrature nodes/weights on a union of intervals.

    ``ends`` are the sorted endpoints of one time; an odd count makes
    the last interval semi-infinite, truncated at ``t_cut``.
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
                                     n_nodes)
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


def _factor(op):
    """(lu, piv, log det, rcond) of the Schur complement S of I - M.

    In slot order M = [[0, B], [C, D]] with the zero block on the
    ``op.lead`` leading slots, so I - M starts with an exact identity
    block and det(I - M) = det(S), S = I - D - C B of order
    ``n - lead``.  S is formed Fortran-ordered in one fresh array that
    LAPACK factors in place; rcond is that of S in its own 1-norm.
    ``op.matrix`` is left untouched.  With lead 0, S is I - M.
    """
    m, k = op.matrix, op.lead
    a = (m[:k, k:].T @ m[k:, :k].T).T  # C B = (B^T C^T)^T, Fortran-ordered
    a += m[k:, k:]
    # 0 - x, not -x: with lead 0 this keeps S bit-identical to I - M
    np.subtract(0.0, a, out=a)
    a[np.diag_indices(op.n - k)] += 1.0
    anorm = np.abs(a).sum(axis=0).max(initial=0.0)
    if not np.isfinite(anorm):
        raise ValueError("operator has non-finite or overflowing entries")
    lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
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


def _solver(op):
    """LU factors of S for solves; raises when S is near singular."""
    lu, piv, _, rcond = _factor(op)
    if rcond < _RCOND_MIN:
        raise NearSingularOperatorError(
            f"operator nearly singular (rcond={rcond:.2e})")
    return lu, piv


def _solve(op, factors, b):
    """(I - M)^{-1} b by block elimination: S x_L = b_L + C b_X, then
    x_X = b_X + B x_L."""
    m, k = op.matrix, op.lead
    x = np.empty_like(b)
    x[k:] = sla.lu_solve(factors, b[k:] + m[k:, :k] @ b[:k],
                         check_finite=False)
    x[:k] = b[:k] + m[:k, k:] @ x[k:]
    return x


def det(op):
    """Fredholm determinant det(I - M) via pivoted LU of the Schur
    complement (see ``_factor``)."""
    _, _, log_value, rcond = _factor(op)
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
    tr = complex(np.trace(op.matrix))
    log_value = base.log_value + tr
    value = np.exp(log_value) if log_value.real < 700 else complex(np.inf)
    diag = dict(base.diagnostics)
    diag["trace"] = tr
    return DetResult(complex(value), log_value, diag)


def solve_resolvent(op, rhs):
    """Solve (I - M) F = f for node values F.

    ``rhs`` holds plain kernel-side values at the slots (one column per
    right-hand side); the weight scaling is internal.
    """
    rhs = np.asarray(rhs, dtype=complex)
    factors = _solver(op)
    s = np.sqrt(op.weights)
    if rhs.ndim == 2:
        s = s[:, None]
    b = rhs * s
    m = op.matrix
    x = _solve(op, factors, b)
    x += _solve(op, factors, b - x + m @ x)
    resid = np.linalg.norm(b - x + m @ x) / max(np.linalg.norm(b), 1e-300)
    if resid > 1e-10:
        raise NearSingularOperatorError(
            f"resolvent residual {resid:.2e} exceeds 1e-10")
    return x / s


def logdet_derivative(op, dop):
    """Jacobi's formula: d log det(I - M) = -tr((I - M)^{-1} dM).

    Through S: tr((I - M)^{-1} dM) = tr(dM_XX)
    + tr(S^{-1} [(C dM_XX + dM_LX) B + C dM_XL + dM_LL]), with X the
    ``op.lead`` leading slots and L the rest; C dM_XX is skipped when
    ``dop`` has the same vanishing block.  ``dop`` must be assembled
    with the same slots and weights as ``op``.
    """
    if dop.n != op.n:
        raise ValueError("operator and derivative sampler are incompatible")
    m, dm, k = op.matrix, dop.matrix, op.lead
    b, c = m[:k, k:], m[k:, :k]
    lx = dm[k:, :k] if dop.lead >= k else c @ dm[:k, :k] + dm[k:, :k]
    rhs = lx @ b + c @ dm[:k, k:] + dm[k:, k:]
    x = sla.lu_solve(_solver(op), rhs, check_finite=False)
    return -complex(np.trace(dm[:k, :k]) + np.trace(x))
