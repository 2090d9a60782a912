"""Nystrom discretization and the Fredholm determinant engine.

A kernel sampled at quadrature nodes becomes a dense complex matrix M
with the weights folded in symmetrically, M[r,c] = sqrt(w_r) K(r,c)
sqrt(w_c), so that det(I - M) approximates the Fredholm determinant.
Both representations of a gap probability are assembled here: the
physical kernel on real interval grids (``interval_operator``) and the
integrable kernel f^T(lam) g(mu) / (lam - mu) on contour slots
(``cauchy_operator``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .contour import gauss_legendre_panels

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
    quadrature ``weights`` of the slots, folded in symmetrically.
    """

    matrix: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

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

    ``exp(log_value) == value`` up to rounding; overflow shows up only
    in ``log_value``.
    """

    value: complex
    log_value: complex
    diagnostics: dict = field(default_factory=dict)


def cauchy_operator(terms, slots, orth, diag=None, meta=None):
    """Discretize K(lam, mu) = sum f^T(lam) g(mu) / (2 pi i (lam - mu)).

    ``terms`` lists the (f, g) pairs of the sum, (p, N) arrays with one
    column per slot.  K vanishes between slots with equal non-negative
    ``orth`` ids (one contour where f^T g = 0); at other coincident
    slots ``diag(i, j, lam)`` gives its removable value times 2 pi i.
    """
    f, g = terms[0]
    kmat = f.T @ g
    for f, g in terms[1:]:
        kmat += f.T @ g
    den = slots.nodes[:, None] - slots.nodes[None, :]
    coincident = den == 0
    den[coincident] = 1.0
    np.divide(kmat, den, out=kmat)
    del den
    kmat /= 2j * np.pi
    zero = (orth[:, None] == orth[None, :]) & (orth >= 0)[:, None]
    kmat[zero] = 0.0
    if diag is not None:
        rows, cols = np.nonzero(coincident & ~zero)
        kmat[rows, cols] = diag(slots.vec_ids[rows], slots.vec_ids[cols],
                                slots.nodes[rows]) / (2j * np.pi)
    return DiscreteOperator.from_kernel_matrix(kmat, slots.weights, meta=meta)


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


def interval_operator(grids, block, meta):
    """Nystrom discretization of chi K chi on per-time interval grids.

    ``grids`` holds one (nodes, weights) pair per time, and
    ``block(i, j, xs, ys)`` returns the kernel block K_ij on xs x ys.
    """
    sizes = [len(x) for x, _ in grids]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    kmat = np.zeros((starts[-1], starts[-1]), dtype=complex)
    for i, (xi, _) in enumerate(grids):
        for j, (xj, _) in enumerate(grids):
            if len(xi) and len(xj):
                kmat[starts[i]:starts[i + 1], starts[j]:starts[j + 1]] = \
                    block(i, j, xi, xj)
    return DiscreteOperator.from_kernel_matrix(
        kmat, np.concatenate([w for _, w in grids]), meta=meta)


def _factor(m):
    """(lu, piv, log det, rcond) of I - M; ``m`` is left untouched.

    I - M is formed Fortran-ordered in one fresh array that LAPACK then
    factors in place, so at most two N x N arrays are held at once.
    """
    n = m.shape[0]
    ii = np.diag_indices(n)
    # the 1-norm of I - M for gecon, taken before I - M exists
    absa = np.abs(m)
    absa[ii] = np.abs(1.0 - m.diagonal())
    anorm = absa.sum(axis=0).max() if n else 0.0
    del absa
    a = np.empty((n, n), dtype=complex, order="F")
    np.subtract(0.0, m, out=a)
    a[ii] = 1.0 - m.diagonal()
    lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
    d = np.diag(lu)
    if np.any(d == 0):
        return lu, piv, complex(-np.inf, 0.0), 0.0
    swaps = int(np.sum(piv != np.arange(len(piv)))) % 2
    log_value = complex(np.sum(np.log(np.abs(d))),
                        np.sum(np.angle(d)) + np.pi * swaps)
    gecon = sla.get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, _ = gecon(lu, anorm)
    return lu, piv, log_value, float(rcond)


def _solver(op):
    """LU factors of I - M for solves; raises when I - M is near singular."""
    lu, piv, _, rcond = _factor(op.matrix)
    if rcond < _RCOND_MIN:
        raise NearSingularOperatorError(
            f"operator nearly singular (rcond={rcond:.2e})")
    return lu, piv


def det(op):
    """Fredholm determinant det(I - M) via pivoted LU."""
    if op.n == 0:
        return DetResult(1.0 + 0j, 0.0 + 0j, {"rcond": 1.0, "n": 0})
    _, _, log_value, rcond = _factor(op.matrix)
    value = np.exp(log_value) if log_value.real < 700 else complex(np.inf)
    diag = {"rcond": rcond, "n": op.n,
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
    lu, piv = _solver(op)
    s = np.sqrt(op.weights)
    if rhs.ndim == 2:
        s = s[:, None]
    b = rhs * s
    m = op.matrix
    x = sla.lu_solve((lu, piv), b, check_finite=False)
    x += sla.lu_solve((lu, piv), b - x + m @ x, check_finite=False)
    resid = np.linalg.norm(b - x + m @ x) / max(np.linalg.norm(b), 1e-300)
    if resid > 1e-10:
        raise NearSingularOperatorError(
            f"resolvent residual {resid:.2e} exceeds 1e-10")
    return x / s


def logdet_derivative(op, dop):
    """Jacobi's formula: d log det(I - M) = -tr((I - M)^{-1} dM).

    ``dop`` must be assembled with the same slots and weights as ``op``.
    """
    if dop.n != op.n:
        raise ValueError("operator and derivative sampler are incompatible")
    x = sla.lu_solve(_solver(op), dop.matrix, check_finite=False)
    return -complex(np.trace(x))
