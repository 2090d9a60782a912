"""Pointwise reference kernels that the tests check the assembled
operators and contour systems against.

Each function evaluates one entry straight from its formula, slowly and
without the slot machinery of ``gapdet``: the bare block formulas (F, G,
H) of both integrable kernels, the n x n kernel value at one node pair,
both physical kernels as full complex double sums over their contours,
the contour form of the Pearcey heat kernel, the smallest distance
between the nodes of distinct contour components, and the Cauchy
geometry of a slot set found by sorting its nodes.
"""

from types import SimpleNamespace

import numpy as np

from gapdet import airy, pearcey
from gapdet.contour import TWO_PI_I, NodeSet, fg_matrices, validate_times


def min_pairwise_distance(system):
    """Smallest distance between nodes of distinct components."""
    best = np.inf
    for i, gi in enumerate(system.grids):
        for gj in system.grids[i + 1:]:
            d = np.abs(gi.nodes[:, None] - gj.nodes[None, :]).min()
            best = min(best, d)
    return best


def _kernel_entry(mod, lam, mu, comp_lam, comp_mu, endpoints, t):
    f, _ = fg_matrices(mod.exponents, lam, comp_lam, endpoints, t)
    _, g = fg_matrices(mod.exponents, mu, comp_mu, endpoints, t)
    return (f.T @ g) / (lam - mu) / TWO_PI_I


def airy_kernel_entry(lam, mu, comp_lam, comp_mu, endpoints, times):
    """n x n matrix kernel value K(lam, mu); zero on a shared component."""
    if comp_lam == comp_mu:
        return np.zeros((endpoints.n, endpoints.n), dtype=complex)
    return _kernel_entry(airy, lam, mu, comp_lam, comp_mu, endpoints,
                         validate_times(times))


def airy_block_entry(block, i, j, z_out, z_in, endpoints, times):
    """Bare Airy block-kernel formulas (F, G, H).

    The full kernel equals block / (2 pi i) on the matching component
    pair; arguments are (output variable, input variable).
    """
    t, theta = validate_times(times), airy.theta
    if block == "F":
        return np.exp(0.5 * theta(0.0, z_out - t[i])
                      - theta(0.0, z_in - t[j])) / (z_out - z_in)
    if block == "G":
        if i != j:
            return 0.0
        mu_i = z_in - t[i]
        xi_i = z_out - t[i]
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(0.5 * theta(0.0, mu_i)
                                          - a * (mu_i - xi_i))
        return acc / (z_out - z_in)
    if block == "H":
        if t[i] >= t[j]:
            return 0.0
        lam_i, lam_j = z_in - t[i], z_in - t[j]
        xi_i = z_out - t[i]
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(theta(a, lam_i)
                                          - theta(0.0, lam_j) + a * xi_i)
        return acc / (z_out - z_in)
    raise ValueError(f"unknown block {block!r}")


def pearcey_kernel_entry(lam, mu, comp_lam, comp_mu, endpoints, times):
    """n x n kernel value K(lam, mu) with the removable diagonal filled."""
    n, t, x_labels = endpoints.n, validate_times(times), ("gamma_R",
                                                          "gamma_L")
    if comp_lam in x_labels and comp_mu in x_labels:
        return np.zeros((n, n), dtype=complex)
    if comp_lam == comp_mu == "iR" and lam == mu:
        i, j = np.indices((n, n))
        return pearcey._diag_limit(i, j, lam, t, pearcey._alternating_sums(
            endpoints)) / TWO_PI_I
    return _kernel_entry(pearcey, lam, mu, comp_lam, comp_mu, endpoints, t)


def pearcey_block_entry(block, i, j, z_out, z_in, endpoints, times):
    """Bare Pearcey block-kernel formulas (F, G, H); kernel = block /
    (2 pi i).

    H carries the sign pattern of the outer product f g^T (leading +),
    which is also what the determinant identity requires; its removable
    diagonal is evaluated by the analytic limit.
    """
    t, phase = validate_times(times), pearcey.phase
    if block == "F":
        return np.exp(0.5 * phase(i, 0.0, z_out, t)
                      - phase(j, 0.0, z_in, t)) / (z_out - z_in)
    if block == "G":
        if i != j:
            return 0.0
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(
                0.5 * phase(i, 0.0, z_in, t) - a * (z_in - z_out))
        return acc / (z_out - z_in)
    if block == "H":
        if t[i] >= t[j]:
            return 0.0
        if z_out == z_in:
            return complex(pearcey._diag_limit(
                i, j, z_in, t, pearcey._alternating_sums(endpoints)))
        dt = t[j] - t[i]
        acc = 0.0
        for ell, a in enumerate(endpoints.per_time[i]):
            acc += (-1.0) ** ell * np.exp(
                a * (z_out - z_in) + dt * z_in ** 2 / 2.0)
        return acc / (z_out - z_in)
    raise ValueError(f"unknown block {block!r}")


def heat_kernel_contour(dt, x, y, grid):
    """Contour form of the Pearcey heat kernel.

    (1/2 pi i) * int_{iR} e^{dt lam^2/2 + (y-x) lam} d lam on the given
    vertical-line grid.
    """
    vals = np.exp(dt * grid.nodes ** 2 / 2.0 + (y - x) * grid.nodes)
    return complex(np.sum(grid.weights * vals)) / TWO_PI_I


class SortedNodes(NodeSet):
    """The distinct nodes of a slot set from one exact sort: ``values``
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


def sorted_geometry(z, vec_ids, lead):
    """The Cauchy geometry of slots at nodes ``z`` carrying components
    ``vec_ids``, with ``lead`` leading slots, found by sorting: the
    mirror of a slot is the slot of its component at the conjugate node,
    and the distinct nodes of the lead and of the rest are sorted.  It
    has the attributes of ``contour.CauchyGeometry`` that an operator
    reads."""
    slot_at = {(b, x): i for i, (b, x) in enumerate(zip(vec_ids, z))}
    sigma = np.array([slot_at[b, x.conjugate()] for b, x in zip(vec_ids, z)])
    idx, k = np.arange(len(z)), lead
    if not (np.array_equal(sigma[sigma], idx) and np.all(sigma != idx)
            and np.array_equal(sigma < k, idx < k)):
        raise ValueError("slots are not paired with their conjugate nodes")
    rest = sigma[k:] - k
    half = np.flatnonzero(rest > np.arange(len(rest)))  # h, in L
    mirror = np.concatenate([half, rest[half]])
    lead_nodes, rest_nodes = SortedNodes(z[:k]), SortedNodes(z[k:])
    cauchy = 1.0 / np.subtract.outer(rest_nodes.values, lead_nodes.values)
    pairs = rest_nodes.pairs()
    pos = np.argsort(mirror)  # the place of each slot of L in mirror
    rows, cols = pos[pairs[0]], pos[pairs[1]]
    keep = np.flatnonzero(rows < len(half))
    return SimpleNamespace(nodes=z, slot_mirror=sigma, lead=k,
                           lead_nodes=lead_nodes, rest_nodes=rest_nodes,
                           cauchy=cauchy, pairs=pairs, mirror=mirror,
                           fill_at=(cols[keep], rows[keep], keep))


def _double_contour(mu_grids, lam_grid, shift, left, right):
    """(2 pi i)^-2 times the sum over every node pair (mu, lam) of the
    ``mu_grids`` and ``lam_grid`` of w_mu w_lam e^{left(mu) -
    right(lam)} / (lam + shift - mu), both mirror halves in complex
    arithmetic."""
    mu = np.concatenate([g.nodes for g in mu_grids])[:, None]
    w_mu = np.concatenate([g.weights for g in mu_grids])[:, None]
    lam, w_lam = lam_grid.nodes[None, :], lam_grid.weights[None, :]
    terms = w_mu * w_lam * np.exp(left(mu) - right(lam)) / (lam + shift - mu)
    return complex(terms.sum()) / TWO_PI_I ** 2


def airy_physical_entry(i, j, x, y, phys, times):
    """A_ij(x, y) = A_tilde - B on the contours of
    ``airy.physical_contours``: mu on gamma_R shifted by -tau_i, lam on
    the left line."""
    t = validate_times(times)
    gamma_r, left_line = phys.grids
    return _double_contour([gamma_r], left_line, t[j],
                           lambda mu: airy.theta(x, mu - t[i]),
                           lambda lam: airy.theta(y, lam)) \
        - airy.gaussian_bridge(i, j, x, y, t)


def pearcey_physical_entry(i, j, x, y, system, times):
    """P_ij(x, y) = P_tilde - Q: mu on the X contour, lam on iR."""
    t = validate_times(times)
    return _double_contour([system.grid(c) for c in ("gamma_R", "gamma_L")],
                           system.grid("iR"), 0.0,
                           lambda mu: pearcey.phase(i, x, mu, t),
                           lambda lam: pearcey.phase(j, y, lam, t)) \
        - pearcey.heat_kernel(i, j, x, y, t)
