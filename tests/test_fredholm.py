"""Determinant engine tests on small synthetic kernels."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from gapdet import airy, contour, fredholm, pearcey

from reference_kernels import (airy_kernel_entry, airy_physical_entry,
                               pearcey_kernel_entry, pearcey_physical_entry)

RNG = np.random.default_rng(20240817)


def _sampled(kernel, system):
    """Operator of ``kernel(lam, mu)`` on every node of ``system``."""
    nodes = np.concatenate([g.nodes for g in system.grids])
    weights = np.concatenate([g.weights for g in system.grids])
    n = len(nodes)
    return fredholm.DiscreteOperator.from_kernel_matrix(
        kernel(nodes[:, None], nodes[None, :]) * np.ones((n, n)), weights)


def _toy_system(m=24):
    return contour.build_airy_system([0.0], m=m)


def _random_operator(n=40, scale=0.3, seed=0):
    rng = np.random.default_rng(seed)
    k = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    return fredholm.DiscreteOperator.from_kernel_matrix(k, np.ones(n))


def test_assemble_zero_kernel_gives_identity_det():
    op = _sampled(lambda lam, mu: 0.0, _toy_system())
    assert fredholm.det(op).value == pytest.approx(1.0)


def test_assemble_rank_one_kernel():
    phi = lambda z: np.exp(-z ** 2 / 10.0)
    psi = lambda z: 1.0 / (1.0 + z ** 2 / 5.0)
    sys_ = _toy_system()
    op = _sampled(lambda lam, mu: phi(lam) * psi(mu), sys_)
    s = np.linalg.svd(op.matrix, compute_uv=False)
    assert s[1] < 1e-12 * s[0]
    inner = sum(np.sum(g.weights * phi(g.nodes) * psi(g.nodes))
                for g in sys_.grids)
    assert fredholm.det(op).value == pytest.approx(1.0 - inner, abs=1e-12)


def test_assemble_gauge_similarity_leaves_det_unchanged():
    sys_ = _toy_system()
    base = lambda lam, mu: \
        np.exp(-(abs(lam) ** 2 + abs(mu) ** 2) / 4.0) / (3.0 + lam + mu)
    d = lambda z: np.exp(0.3 * z / (1.0 + abs(z)))
    gauged = lambda lam, mu: d(lam) * base(lam, mu) / d(mu)
    d1 = fredholm.det(_sampled(base, sys_)).value
    d2 = fredholm.det(_sampled(gauged, sys_)).value
    assert abs(d1 - d2) < 1e-8


def _unfolded(m, weights):
    """Kernel samples K(r, c) with the quadrature weights divided out."""
    s = np.sqrt(weights)
    return m / s[:, None] / s[None, :]


def _matrix(op):
    """The full M a contour operator defines: the zero lead block, B, C
    and D from its generators and its coincident fill."""
    k, z = op.lead, op.geometry.nodes
    den = z[:, None] - z[None, :]
    m = op.f.T @ op.g / np.where(den == 0, 1.0, den)
    m[:k, :k] = 0.0
    rows, cols = op.geometry.pairs
    m[k + rows, k + cols] = op.fill
    return m


def _real_form(op, a, absolute=False):
    """Q a Q^H for a matrix ``a`` on the rest slots in slot order: the
    real form a contour operator factors, with Q = [[I, I], [-iI, iI]] /
    sqrt(2) on its mirror order [h, sigma h].  With ``absolute``, |Q| a
    |Q|^T: the bound that entrywise errors in ``a`` carry into it."""
    mirror = op.geometry.mirror
    eye = np.eye(len(mirror) // 2)
    q = np.block([[eye, eye], [-1j * eye, 1j * eye]])
    if absolute:
        q = np.abs(q)
    return q @ a[np.ix_(mirror, mirror)] @ q.conj().T / 2


def _contour_arrays(op):
    """Every array a contour operator stores, its geometry's and node
    sets' included."""
    geo = op.geometry
    nodes = [a for n in (geo.lead_nodes, geo.rest_nodes)
             for a in [n.values, n.ids] + [a for r in n.ranks for a in r]]
    return [v for obj in (op, geo) for v in vars(obj).values()
            if isinstance(v, np.ndarray)] + list(geo.pairs) \
        + list(geo.fill_at) + nodes


def _assert_couplings(op, b, c, seed=0):
    """The operator's C y and B x against the dense blocks ``b`` and
    ``c``, on random right-hand sides, entrywise within 1e-13 of |C| |y|
    and |B| |x|."""
    rng = np.random.default_rng(seed)
    k = op.lead
    y = rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))
    x = rng.standard_normal((op.n - k, 3)) \
        + 1j * rng.standard_normal((op.n - k, 3))
    for got, block, rhs in (op.c_dot(y), c, y), (op.b_dot(x), b, x):
        assert np.all(np.abs(got - block @ rhs)
                      <= 1e-13 * (np.abs(block) @ np.abs(rhs)))


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_assembled_operators_match_pointwise_entries(process):
    times = [0.0, 1.0]
    if process == "airy":
        ep = airy.AiryEndpoints([[-0.5, 0.7], [0.5]])
        sys_ = contour.build_airy_system(times, m=8)
        op = airy.iiks_operator(ep, times, sys_, gauge=False)
        s = op.geometry
        kernel_entry, physical_entry = airy_kernel_entry, airy_physical_entry
        vanishes = lambda a, b: a == b  # same-component blocks
    else:
        ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
        sys_ = contour.build_pearcey_system(times, m=8)
        op = pearcey.iiks_operator(ep, times, sys_)
        s = op.geometry
        kernel_entry = pearcey_kernel_entry
        physical_entry = pearcey_physical_entry
        vanishes = lambda a, b: "iR" not in (a, b)  # the X x X block
    assert op.weights is s.weights
    # the component of each slot, from the grid holding its node (the
    # grids of a system never share a node)
    label_at = {z: g.component.label for g in sys_.grids for z in g.nodes}
    labels = [label_at[z] for z in s.nodes]
    # every entry from the generators and the coincident fill; the
    # operator applies B and C through its node-level Cauchy matrix
    m = _matrix(op)
    kmat = _unfolded(m, op.weights)
    k = op.lead
    _assert_couplings(op, m[:k, k:], m[k:, :k])
    coincident = 0
    for r in range(op.n):
        for c in range(op.n):
            val = kernel_entry(s.nodes[r], s.nodes[c], labels[r], labels[c],
                               ep, times)[s.vec_ids[r], s.vec_ids[c]]
            if vanishes(labels[r], labels[c]):
                assert m[r, c] == 0 and val == 0
            coincident += labels[r] == labels[c] == "iR" and \
                s.nodes[r] == s.nodes[c] and val != 0
            assert abs(kmat[r, c] - val) <= 1e-12 * max(abs(val), 1.0)
    # the L'Hopital limit fills the coincident (tau_1, tau_2) iR slots
    assert coincident == (len(sys_.grid("iR")) if process == "pearcey" else 0)
    assert np.count_nonzero(op.fill) == coincident

    # physical operator against the full double sum, on sampled slot
    # pairs; slots run time by time over each time's interval grid
    grids = fredholm.interval_grids(ep)
    nodes = np.concatenate([x for x, _ in grids])
    times_of = np.repeat(np.arange(len(grids)), [len(x) for x, _ in grids])
    if process == "airy":
        phys_op = airy.physical_operator(ep, times, m=60)
        sys_ = airy.physical_contours(times, m=60, x_min=float(nodes.min()))
    else:
        sys_ = contour.build_pearcey_system(times, m=60, endpoint_scale=1.0)
        phys_op = pearcey.physical_operator(ep, times, system=sys_)
    assert np.array_equal(phys_op.weights,
                          np.concatenate([w for _, w in grids]))
    kmat = _unfolded(phys_op.matrix, phys_op.weights)
    rng = np.random.default_rng(29)
    for r, c in rng.integers(phys_op.n, size=(40, 2)):
        ref = physical_entry(times_of[r], times_of[c], nodes[r], nodes[c],
                             sys_, times)
        assert abs(kmat[r, c] - ref) <= 1e-13 * max(abs(ref), 1.0)


def _iiks_case(process, tangent, n=2, m=16):
    """(operator, its (f, g) terms, the bare columns (f, g), diag) at n
    times, small m."""
    times = [0.0, 1.0] if n == 2 else [0.0, 0.5, 1.0]
    if process == "airy":
        ep = airy.AiryEndpoints([[-0.5, 0.7], [0.5], [0.2]][:n])
        sys_ = contour.build_airy_system(times, m=m, endpoint_scale=0.7)
        [f], [g] = contour.build_slots(sys_, [ep], airy.exponents,
                                       np.array(times), True)
        if tangent:
            op = airy.iiks_tangent_operator(ep, times, sys_, 0, 1)
            terms = contour.endpoint_terms(f, g, op.geometry,
                                           ep.row_index(0, 1), 0, times[0])
        else:
            op, terms = airy.iiks_operator(ep, times, sys_), [(f, g)]
        return op, terms, (f, g), None
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5],
                                   [-0.3, 0.3]][:n])
    sys_ = contour.build_pearcey_system(times, m=m, endpoint_scale=1.0)
    [f], [g] = contour.build_slots(sys_, [ep], pearcey.exponents,
                                   np.array(times))
    if tangent:
        op = pearcey.iiks_tangent_operator(ep, times, sys_, 0, 1)
        terms = contour.endpoint_terms(f, g, op.geometry, ep.row_index(0, 1),
                                       0, 0.0)
        coef = np.zeros(n)
        coef[0] = -1.0
    else:
        op, terms = pearcey.iiks_operator(ep, times, sys_), [(f, g)]
        coef = pearcey._alternating_sums(ep)
    return op, terms, (f, g), \
        lambda i, j, lam: pearcey._diag_limit(i, j, lam, np.array(times),
                                             coef)


def _dense_reference(terms, geo, diag):
    """Every entry of sum f^T g / (2 pi i (lam - mu)) on the slots of
    ``geo``, weights folded after."""
    kmat = sum(f.T @ g for f, g in terms)
    den = geo.nodes[:, None] - geo.nodes[None, :]
    coincident = den == 0
    den[coincident] = 1.0
    kmat = kmat / den / contour.TWO_PI_I
    if diag is not None:
        coincident[:geo.lead] = False
        rows, cols = np.nonzero(coincident)
        kmat[rows, cols] = diag(geo.vec_ids[rows], geo.vec_ids[cols],
                                geo.nodes[rows]) / contour.TWO_PI_I
    s = np.sqrt(geo.weights)
    return s[:, None] * kmat * s[None, :]


@pytest.mark.parametrize("tangent", [False, True], ids=["base", "tangent"])
@pytest.mark.parametrize("process", ["airy", "pearcey", "airy-3",
                                     "pearcey-3"])
def test_cauchy_assembly_matches_dense_reference(process, tangent):
    process, n = (process.split("-") + ["2"])[:2]
    n = int(n)
    op, terms, _, diag = _iiks_case(process, tangent, n)
    geo = op.geometry
    ref = _dense_reference(terms, geo, diag)
    k = op.lead
    assert k > 0 and not np.any(ref[:k, :k])
    b, c, d = ref[:k, k:], ref[k:, :k], ref[k:, k:]
    _assert_couplings(op, b, c)
    # the coincident rest pairs, in the order of a full comparison
    rows, cols = op.geometry.pairs
    want = np.nonzero(geo.nodes[k:, None] == geo.nodes[None, k:])
    assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
    assert np.all(np.abs(op.fill - d[rows, cols])
                  <= 1e-13 * np.abs(d[rows, cols]) + 1e-300)
    if diag is not None:  # the L'Hopital fill is among the compared entries
        # one per iR node and pair of times tau_i < tau_j (the tangent
        # in an endpoint of time 0 keeps the pairs with i = 0)
        n_ir = (op.n - k) // n  # the rest slots: iR, n per node
        pairs = n - 1 if tangent else n * (n - 1) // 2
        assert np.count_nonzero(d[rows, cols]) == pairs * n_ir
    # the real form of the Schur complement from the generators against
    # that of the dense product; a tangent enters only through dS = -(dD
    # + dC B + C dB)
    if not tangent:
        got, want = op.schur(), np.eye(op.n - k) - d - c @ b
    else:
        base, base_terms, _, base_diag = _iiks_case(process, False, n)
        base_ref = _dense_reference(base_terms, geo, base_diag)
        got = base.schur_tangent(op)
        want = -(d + c @ base_ref[:k, k:] + base_ref[k:, :k] @ b)
    want = _real_form(op, want)
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _mirrored(half, sign=1):
    """A random half followed by ``sign`` times its conjugates in reverse
    order: the values of one block of slots."""
    return np.concatenate([half, sign * half.conj()[..., ::-1]], axis=-1)


def test_schur_product_identity_on_random_generators():
    # a lead grid of 30 nodes away from three rest grids of 32, 16 and 8
    # nodes that carry 1, 2 and 3 vector components: 88 rest slots, with
    # groups of two and three coincident slots and nodes 1e-6 apart
    rng = np.random.default_rng(47)
    cplx = lambda *shape: rng.standard_normal(shape) \
        + 1j * rng.standard_normal(shape)
    rest = cplx(28)
    rest[1::4] = rest[::4] + 1e-6 * np.exp(2j * np.pi * rng.random(7))
    halves = [4.0 + cplx(15), rest[np.r_[8, 9, 14:28]], rest[:8], rest[10:14]]
    carries = [(0,), (0,), (0, 1), (0, 1, 2)]
    # weights with w[sigma] = -conj(w), one per node; rest weights in the
    # upper half plane, so that the fold gives f[:, sigma] = -i conj(f)
    # there, lead weights of any phase
    phases = [np.exp(2j * np.pi * rng.random(15))] \
        + [np.exp(1j * rng.random(len(h))) for h in halves[1:]]
    weights = [_mirrored(ph, -1) * 0.1 * (_mirrored(rng.random(len(ph)))
                                          + 0.5) for ph in phases]
    geo = contour.CauchyGeometry([_mirrored(h) for h in halves], weights,
                                 carries, 1)
    k, p = geo.lead, 3
    n = len(geo.nodes)
    assert (k, n) == (30, 118)
    # bare columns with f(conj z) = conj f(z)
    gens = lambda: np.concatenate([_mirrored(cplx(p, len(h)))
                                   for h, c in zip(halves, carries)
                                   for _ in c], axis=-1)
    terms, dterms = [(gens(), gens())], [(gens(), gens())]
    op = fredholm.cauchy_operator(terms, geo)
    dop = fredholm.cauchy_operator(dterms, geo)
    assert len(op.geometry.pairs[0]) == 2 * (16 + 8 * 2 ** 2 + 4 * 3 ** 2)
    want = np.nonzero(geo.nodes[k:, None] == geo.nodes[None, k:])
    for got in op.geometry.pairs, dop.geometry.pairs:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # dense references: every entry of M and dM, the products as GEMMs
    m = _dense_reference(terms, geo, None)
    dm = _dense_reference(dterms, geo, None)
    m[:k, :k] = dm[:k, :k] = 0.0
    for got, want in (_matrix(op), m), (_matrix(dop), dm):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    b, c, d = m[:k, k:], m[k:, :k], m[k:, k:]
    db, dc, dd = dm[:k, k:], dm[k:, :k], dm[k:, k:]
    _assert_couplings(op, b, c)
    _assert_couplings(dop, db, dc)
    # the real forms, entrywise against the scale of the dense sums, |D| +
    # |C| |B|, carried through Q
    for got, want, scale in (
            (op.schur(), np.eye(n - k) - d - c @ b,
             1.0 + np.abs(d) + np.abs(c) @ np.abs(b)),
            (op.schur_tangent(dop), -(dd + dc @ b + c @ db),
             np.abs(dd) + np.abs(dc) @ np.abs(b) + np.abs(c) @ np.abs(db))):
        assert np.all(np.abs(got - _real_form(op, want))
                      <= 1e-13 * _real_form(op, scale, absolute=True))


def test_schur_cancellation_at_close_rest_nodes_stays_bounded():
    # single-time Airy at s = -4: rest nodes close together compared with
    # their distance to the lead contour, where the partial fractions of
    # C B cancel; S against I - D - C B summed in long double from the
    # same folded generators, and R against its real form
    ep = airy.AiryEndpoints([[-4.0]])
    sys_ = contour.build_airy_system([0.0], m=80,
                                     endpoint_scale=ep.max_abs_endpoint())
    op = airy.iiks_operator(ep, [0.0], sys_)
    k, z = op.lead, op.geometry.nodes.astype(np.clongdouble)
    f, g = op.f.astype(np.clongdouble), op.g.astype(np.clongdouble)
    den = z[:, None] - z[None, :]
    den[den == 0] = 1.0
    m = f.T @ g / den  # D at a coincident slot (the diagonal) is f . g
    b, c, d = m[:k, k:], m[k:, :k], m[k:, k:]
    want = np.eye(op.n - k, dtype=np.clongdouble) - d - c @ b
    real = _real_form(op, want)
    assert np.abs(op.schur() - real).max() <= 2e-14 * np.abs(real).max()
    sign, logabs = np.linalg.slogdet(want.astype(complex))
    assert abs(fredholm.det(op).log_value - (np.log(sign) + logabs)) <= 5e-13


@pytest.mark.parametrize("process", ["airy", "pearcey"])
@pytest.mark.parametrize("tangent", [False, True], ids=["base", "tangent"])
def test_contour_operator_stores_no_order_n_square_array(process, tangent):
    op, _, _, _ = _iiks_case(process, tangent, 3, m=48)
    sizes = [a.size for a in _contour_arrays(op)]
    assert op.n == len(op.geometry.nodes) and op.lead > 0
    # all of them together hold fewer entries than the block B alone
    assert sum(sizes) < op.lead * (op.n - op.lead)


@pytest.mark.parametrize("side", ["f", "g"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, -1], ids=["lead-slot", "last-slot"])
def test_cauchy_operator_rejects_non_finite_columns(side, bad, slot):
    op, _, fg, _ = _iiks_case("airy", False)
    f, g = (a.copy() for a in fg)
    {"f": f, "g": g}[side][:, slot] = bad
    with pytest.raises(ValueError):
        fredholm.cauchy_operator([(f, g)], op.geometry)


@pytest.mark.parametrize("process", ["airy", "pearcey"])
@pytest.mark.parametrize("side", ["f", "g"])
@pytest.mark.parametrize("block", ["lead", "rest"])
def test_cauchy_operator_rejects_a_scaled_generator_column(process, side,
                                                           block):
    op, _, fg, diag = _iiks_case(process, False)
    # the column of the block with the largest folded entry
    lo, hi = (0, op.lead) if block == "lead" else (op.lead, op.n)
    slot = lo + np.argmax(np.abs(getattr(op, side)[:, lo:hi]).max(axis=0))
    f, g = (a.copy() for a in fg)
    {"f": f, "g": g}[side][:, slot] *= 1.5
    with pytest.raises(ValueError):
        fredholm.cauchy_operator([(f, g)], op.geometry, diag=diag)


@pytest.mark.parametrize("case", ["airy-odd-m", "airy-no-gauge",
                                  "pearcey", "pearcey-delta"])
def test_slot_mirror_is_exact_for_both_processes(case):
    # the geometry pairs each slot with the one at the conjugate node
    # (no sort), and the folded generators are exact mirror images:
    # f[:, sigma] = -i conj(f) and g[:, sigma] = i conj(g) on the rest
    times = [0.0, 1.0]
    if case.startswith("airy"):
        ep = airy.AiryEndpoints([[-0.5, 0.7], [0.5]])
        m = 17 if case == "airy-odd-m" else 20
        sys_ = contour.build_airy_system(times, m=m, endpoint_scale=0.7)
        op = airy.iiks_operator(ep, times, sys_,
                                gauge=case != "airy-no-gauge")
    else:
        ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
        delta = 0.25 if case == "pearcey-delta" else 0.5
        sys_ = contour.build_pearcey_system(times, delta=delta, m=20,
                                            endpoint_scale=1.0)
        op = pearcey.iiks_operator(ep, times, sys_)
    sigma, k = op.geometry.slot_mirror, op.lead
    # an odd m is bumped to even, so no slot is its own mirror
    assert all(len(g) == (18 if case == "airy-odd-m" else 20)
               for g in sys_.grids)
    assert np.all(np.sort(sigma) == np.arange(op.n))
    assert np.all(sigma != np.arange(op.n))
    z = op.geometry.nodes
    assert np.array_equal(z[sigma], z.conj())
    assert np.array_equal(op.f[:, sigma][:, k:], -1j * op.f.conj()[:, k:])
    assert np.array_equal(op.g[:, sigma][:, k:], 1j * op.g.conj()[:, k:])
    h, t = np.split(op.geometry.mirror, 2)
    assert np.array_equal(sigma[k + h], k + t) and np.all(h < t)


@pytest.mark.parametrize("process", ["airy", "pearcey"])
@pytest.mark.parametrize("call", [
    fredholm.det,
    lambda op: fredholm.solve_resolvent(op, np.ones(op.n)),
    lambda op: fredholm.logdet_derivative(op, op),
], ids=["det", "solve_resolvent", "logdet_derivative"])
def test_overflowing_cauchy_entries_are_rejected(process, call):
    # finite columns, but f^T g / (lam - mu) exceeds the double range
    op, _, (f, g), diag = _iiks_case(process, False)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
    with np.errstate(over="ignore", invalid="ignore"):
        op = fredholm.cauchy_operator([(1e160 * f, 1e160 * g)], op.geometry,
                                      diag=diag)
        before = [a.copy() for a in _contour_arrays(op)]
        with pytest.raises(ValueError):
            call(op)
    for a, b in zip(_contour_arrays(op), before):
        assert np.array_equal(a, b, equal_nan=True)


def _physical_case(process):
    """(operator, its contour system, interval grids, times, the full
    double-sum entry) at n = 3 with a different interval count at every
    time: a time index swapped between the per-time factors shows in
    some (i, j) block."""
    times = [0.0, 0.5, 1.0]
    if process == "airy":
        ep = airy.AiryEndpoints([[-1.0], [-0.5, 0.7], [0.2]])
        op = airy.physical_operator(ep, times, m=40)
        grids = fredholm.interval_grids(ep)
        x_min = min(x.min() for x, _ in grids)
        sys_ = airy.physical_contours(times, m=40, x_min=float(x_min))
        return op, sys_, grids, times, airy_physical_entry
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5, 0.8, 1.2],
                                   [-0.3, 0.3]])
    sys_ = contour.build_pearcey_system(times, m=40, endpoint_scale=1.2)
    op = pearcey.physical_operator(ep, times, sys_)
    return op, sys_, fredholm.interval_grids(ep), times, \
        pearcey_physical_entry


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_physical_operator_matches_entries_in_every_block(process):
    # the half sum against the full complex double sum in every block
    # kind, i < j, i = j and i > j, within 1e-13 of the block's largest
    # sampled entry; the operator is real and so is its determinant
    op, sys_, grids, times, full_sum = _physical_case(process)
    mod = airy if process == "airy" else pearcey
    assert op.matrix.dtype == np.float64
    assert fredholm.det(op).diagnostics["max_abs_imag"] == 0.0
    starts = np.cumsum([0] + [len(x) for x, _ in grids])
    kmat = _unfolded(op.matrix, op.weights)
    rng = np.random.default_rng(41)
    for i, j in np.ndindex(3, 3):
        rows = rng.choice(len(grids[i][0]), 4, replace=False)
        cols = rng.choice(len(grids[j][0]), 4, replace=False)
        ref = np.array([[full_sum(i, j, grids[i][0][a], grids[j][0][b],
                                  sys_, times) for b in cols] for a in rows])
        got = kmat[np.ix_(starts[i] + rows, starts[j] + cols)]
        one = np.array([[mod.physical_entry(i, j, grids[i][0][a],
                                            grids[j][0][b], sys_, times)
                         for b in cols] for a in rows])
        scale = 1e-13 * np.abs(ref).max()
        assert np.abs(got - ref).max() <= scale
        assert np.abs(one - ref).max() <= scale


def _perturbed(grid, nodes=None, weights=None):
    """``grid`` with its nodes or weights replaced."""
    return contour.QuadratureGrid(
        grid.nodes if nodes is None else nodes,
        grid.weights if weights is None else weights, grid.component)


@pytest.mark.parametrize("process", ["airy", "pearcey"])
@pytest.mark.parametrize("change", ["mu node", "lam weight"])
def test_physical_entries_need_mirror_grids(process, change):
    # the half sum holds only on grids that are their own mirror
    # images: a mu node moved by 1e-12, or a lam weight scaled by 1.5,
    # raises before any entry is formed
    _, sys_, grids, times, _ = _physical_case(process)
    mod = airy if process == "airy" else pearcey
    label = {"mu node": "gamma_R",
             "lam weight": "left_line" if process == "airy" else "iR"}[change]
    bad = []
    for g in sys_.grids:
        if g.component.label == label and change == "mu node":
            nodes = g.nodes.copy()
            nodes[3] += 1e-12
            g = _perturbed(g, nodes=nodes)
        elif g.component.label == label:
            weights = g.weights.copy()
            weights[5] *= 1.5
            g = _perturbed(g, weights=weights)
        bad.append(g)
    bad = replace(sys_, grids=tuple(bad))
    x = grids[0][0][0]
    mod.physical_entry(0, 1, x, x, sys_, times)
    with pytest.raises(contour.ContourError, match="mirror"):
        mod.physical_entry(0, 1, x, x, bad, times)


def test_from_kernel_matrix_keeps_a_real_sample_real():
    k = RNG.standard_normal((6, 6))
    w = np.full(6, 0.5)
    assert fredholm.DiscreteOperator.from_kernel_matrix(
        k, w).matrix.dtype == np.float64
    for kmat, weights in (k + 0j, w), (k, w + 0j), (k, -w):
        op = fredholm.DiscreteOperator.from_kernel_matrix(kmat, weights)
        assert op.matrix.dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_kernel_matrix_rejects_a_non_finite_sample(bad):
    k = np.ones((4, 4))
    k[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fredholm.DiscreteOperator.from_kernel_matrix(k, np.ones(4))


def test_physical_operator_builds_each_gauss_legendre_rule_once(monkeypatch):
    # three intervals over two times, each of 16 nodes on one panel
    calls = []
    rule = contour.gauss_legendre
    monkeypatch.setattr(contour, "gauss_legendre",
                        lambda n: (calls.append(n), rule(n))[1])
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5, 0.8, 1.2]])
    sys_ = contour.build_pearcey_system([0.0, 1.0], m=40, endpoint_scale=1.2)
    calls.clear()
    pearcey.physical_operator(ep, [0.0, 1.0], sys_)
    assert calls == [16]


def test_det_log_value_consistency():
    op = _random_operator(seed=3)
    res = fredholm.det(op)
    assert np.exp(res.log_value) == pytest.approx(res.value, rel=1e-12)
    assert res.diagnostics["rcond"] > 0
    direct = np.linalg.det(np.eye(op.n) - op.matrix)
    assert res.value == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("n, phase", [(8, 0.0), (3, np.pi)],
                         ids=["even", "odd"])
def test_det_log_value_phase_in_principal_range(n, phase):
    # I - M = -I: every LU pivot has angle pi, det = (-1)^n
    res = fredholm.det(fredholm.DiscreteOperator.from_kernel_matrix(
        2 * np.eye(n), np.ones(n)))
    assert res.log_value.real == 0.0
    assert res.log_value.imag == pytest.approx(phase, abs=1e-15)
    assert res.value == pytest.approx((-1) ** n, abs=1e-15)


def test_det2_equals_det_for_diagonal_free_matrix():
    op = _random_operator(seed=5)
    m = op.matrix.copy()
    np.fill_diagonal(m, 0.0)
    op0 = fredholm.DiscreteOperator.from_kernel_matrix(m, np.ones(op.n))
    assert fredholm.det2(op0).value == pytest.approx(
        fredholm.det(op0).value, rel=1e-12)


def test_det2_trace_identity_against_expm():
    # det2(I-M) = det(I-M) e^{tr M}; the independent route goes through expm
    for seed in range(4):
        op = _random_operator(n=30, seed=seed)
        d2 = fredholm.det2(op).value
        a = np.eye(op.n) - op.matrix
        independent = np.linalg.det(a @ sla.expm(op.matrix))
        assert abs(d2 - independent) < 1e-10


def test_det2_product_formula_for_two_factors():
    # det2(I-G1) det2(I-G2) = det2(I-G1-G2+G1G2) e^{tr(G1 G2)}
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        n = 25
        g1 = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
        g2 = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
        mk = lambda g: fredholm.DiscreteOperator.from_kernel_matrix(
            g, np.ones(n))
        lhs = fredholm.det2(mk(g1)).value * fredholm.det2(mk(g2)).value
        rhs = fredholm.det2(mk(g1 + g2 - g1 @ g2)).value * \
            np.exp(np.trace(g1 @ g2))
        assert abs(lhs - rhs) < 1e-10


def test_solve_resolvent_identity_kernel():
    op = fredholm.DiscreteOperator.from_kernel_matrix(
        np.zeros((12, 12), complex), np.ones(12))
    f = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
    assert np.allclose(fredholm.solve_resolvent(op, f), f)


def test_solve_resolvent_rank_one_neumann_series():
    n = 30
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(n)
    psi = rng.standard_normal(n)
    w = np.full(n, 1.0 / n)
    op = fredholm.DiscreteOperator.from_kernel_matrix(np.outer(phi, psi), w)
    f = rng.standard_normal(n) + 0j
    sol = fredholm.solve_resolvent(op, f)
    inner = np.sum(w * psi * phi)
    expected = f + phi * np.sum(w * psi * f) / (1.0 - inner)
    assert np.allclose(sol, expected, atol=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solve_resolvent_raises_on_singular():
    n = 10
    k = np.eye(n)  # I - M = 0
    op = fredholm.DiscreteOperator.from_kernel_matrix(k, np.ones(n))
    with pytest.raises(fredholm.NearSingularOperatorError):
        fredholm.solve_resolvent(op, np.ones(n))


def test_logdet_derivative_zero_sampler():
    op = _random_operator(seed=11)
    zero = fredholm.DiscreteOperator.from_kernel_matrix(
        np.zeros_like(op.matrix), np.ones(op.n))
    assert fredholm.logdet_derivative(op, zero) == 0


def test_logdet_derivative_matches_parameter_fd():
    n = 20
    rng = np.random.default_rng(23)
    base = 0.4 * rng.standard_normal((n, n)) / n
    direction = rng.standard_normal((n, n)) / n

    def op_at(eps):
        return fredholm.DiscreteOperator.from_kernel_matrix(
            base + eps * direction, np.ones(n))

    dop = fredholm.DiscreteOperator.from_kernel_matrix(direction, np.ones(n))
    val = fredholm.logdet_derivative(op_at(0.0), dop)
    h = 1e-6
    fd = (fredholm.det(op_at(h)).log_value.real
          - fredholm.det(op_at(-h)).log_value.real) / (2 * h)
    assert val.real == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("call", [
    lambda op: fredholm.det(op),
    lambda op: fredholm.det2(op),
    lambda op: fredholm.solve_resolvent(op, np.ones((op.n, 2))),
    lambda op: fredholm.logdet_derivative(op, op),
], ids=["det", "det2", "solve_resolvent", "logdet_derivative"])
def test_one_lu_per_call_and_matrix_untouched(call, monkeypatch):
    calls = []
    lu_factor = sla.lu_factor

    def counting(*args, **kwargs):
        calls.append((args[0].shape, args[0].dtype))
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(sla, "lu_factor", counting)
    op = _random_operator(seed=13)
    before = op.matrix.copy()
    call(op)
    assert calls == [((op.n, op.n), np.complex128)]
    assert np.array_equal(op.matrix, before)
    # a contour operator factors the real form of S alone and keeps its
    # arrays too
    op = _iiks_case("pearcey", False)[0]
    before = [a.copy() for a in _contour_arrays(op)]
    calls.clear()
    call(op)
    assert calls == [((op.n - op.lead, op.n - op.lead), np.float64)]
    assert all(np.array_equal(a, b)
               for a, b in zip(_contour_arrays(op), before))


@pytest.mark.parametrize("call, batch_call", [
    (fredholm.det, "dets"),
    (fredholm.det2, "dets"),
    (lambda op: fredholm.solve_resolvent(op, np.ones(op.n)),
     "resolvent_moments"),
    (lambda op: op.schur(), "member(i)"),
    (lambda op: op.trace(), "member(i)"),
    (lambda op: fredholm.logdet_derivative(op, op), "member(i)"),
], ids=["det", "det2", "solve_resolvent", "schur", "trace",
        "logdet_derivative"])
def test_single_operator_calls_refuse_a_stacked_batch(call, batch_call,
                                                      monkeypatch):
    # a stack of three must not come back as its member 0: ValueError
    # naming the batch call, before any real form or LU
    times = [0.0, 1.0]
    eps = [airy.AiryEndpoints(e) for e in ([[-1.0], [0.5]], [[0.3], [-0.7]],
                                           [[0.0], [0.0]])]
    system = contour.build_airy_system(times, m=16, endpoint_scale=1.0)
    batch = airy.iiks_operators(eps, times, system)
    calls = []
    monkeypatch.setattr(sla, "lu_factor", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(fredholm, "_forms", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="stacked operator .*: use "
                       + re.escape(batch_call)):
        call(batch)
    assert calls == []


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_logdet_derivative_raises_on_singular():
    n = 10
    op = fredholm.DiscreteOperator.from_kernel_matrix(np.eye(n), np.ones(n))
    with pytest.raises(fredholm.NearSingularOperatorError):
        fredholm.logdet_derivative(op, op)


def _schur_case(case):
    """(operator, its dense M, tangent sampler or None, expected lead)."""
    if case == "physical":
        ep = airy.AiryEndpoints([[0.0], [0.5]])
        op = airy.physical_operator(ep, [0.0, 1.0], m=40)
        return op, op.matrix, None, 0
    process, n = case.split("-")
    n = int(n)
    times = [0.0, 0.5, 1.0][:n]
    if process == "airy":
        # n = 2 at m = 120 is the pde-grid operator: order 480
        m = 120 if n == 2 else 24
        ep = airy.AiryEndpoints([[0.3], [0.1], [0.0]][:n])
        sys_ = contour.build_airy_system(times, m=m,
                                         endpoint_scale=ep.max_abs_endpoint())
        op = airy.iiks_operator(ep, times, sys_)
        dop = airy.iiks_tangent_operator(ep, times, sys_, 0, 0)
        return op, _matrix(op), dop, n * m  # gamma_R carries all n
    m = 24
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0]] * n)
    sys_ = contour.build_pearcey_system(times, m=m,
                                        endpoint_scale=ep.max_abs_endpoint())
    op = pearcey.iiks_operator(ep, times, sys_)
    dop = pearcey.iiks_tangent_operator(ep, times, sys_, 0, 1)
    return op, _matrix(op), dop, 2 * n * m  # gamma_R and gamma_L


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_schur_solve_checks_the_full_residual(process, n):
    # the residual a solve checks, ||c - R y|| / sqrt(2) / ||b|| on the
    # Schur system, is that of the solution on all of I - M
    op = _iiks_case(process, False, n)[0]
    a = np.eye(op.n) - _matrix(op)
    rng = np.random.default_rng(37)
    b = rng.standard_normal((op.n, 3)) + 1j * rng.standard_normal((op.n, 3))
    batch, _, form = fredholm._forms(op)
    [x], [resid] = fredholm._schur_solve(batch, form, b[None])
    norm_b = np.linalg.norm(b)
    dense = np.linalg.norm(b - a @ x)
    assert abs(resid * norm_b - dense) <= 1e-13 * norm_b
    assert resid <= 1e-13


@pytest.mark.parametrize("case", ["airy-2", "pearcey-3"])
def test_real_form_rcond_is_the_exact_one_norm_rcond(case):
    # the estimate of ||R^{-1}||_1 a real factorization makes, against
    # the inverse itself
    op = _schur_case(case)[0]
    r = op.schur()
    exact = 1.0 / (np.linalg.norm(r, 1) * np.linalg.norm(np.linalg.inv(r), 1))
    assert fredholm.det(op).diagnostics["rcond"] == pytest.approx(exact,
                                                                  rel=1e-12)


def _rcond_case(case):
    """I - M of a physical operator (real), or a seeded random complex
    matrix."""
    if case == "physical-airy":
        return _schur_case("physical")[0].schur()
    if case == "physical-pearcey":
        times = [0.0, 1.0]
        ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
        sys_ = contour.build_pearcey_system(times, m=40, endpoint_scale=1.0)
        return pearcey.physical_operator(ep, times, sys_).schur()
    seed = int(case.split("-")[1])
    n = (5, 60, 200)[seed]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.asfortranarray(a)


_PHYSICAL_CASES = ["physical-airy", "physical-pearcey"]
_COMPLEX_CASES = ["random-0", "random-1", "random-2"]


def _assert_rcond_matches_gecon(case, complex_lu):
    # the numpy estimate serves every LU; LAPACK's on the same factors
    a = _rcond_case(case)
    anorm = np.abs(a).sum(axis=0).max()
    lu, piv, _, rcond = fredholm._factor(a.copy(order="F"))
    assert np.iscomplexobj(lu) == complex_lu
    gecon = sla.get_lapack_funcs(("gecon",), (lu,))[0]
    assert rcond == pytest.approx(gecon(lu, anorm)[0], rel=1e-13)


@pytest.mark.parametrize("case", _PHYSICAL_CASES)
def test_rcond_estimate_matches_dgecon(case):
    _assert_rcond_matches_gecon(case, complex_lu=False)


@pytest.mark.parametrize("case", _COMPLEX_CASES)
def test_rcond_estimate_matches_zgecon(case):
    _assert_rcond_matches_gecon(case, complex_lu=True)


@pytest.mark.parametrize("case", _PHYSICAL_CASES + _COMPLEX_CASES)
def test_rcond_repeats_bit_for_bit(case):
    a = _rcond_case(case)
    assert len({repr(fredholm._factor(a.copy(order="F"))[3])
                for _ in range(20)}) == 1


def test_subnormal_entries_are_flushed_before_the_lu():
    # row 0 leads column 0, so it is the first row of U unchanged: the
    # subnormal entry, and the one just above the subnormal range whose
    # products in the elimination would be subnormal, would stay in the
    # factors unless they are flushed
    rng = np.random.default_rng(41)
    a = np.asfortranarray(rng.standard_normal((40, 40)))
    a[0, 0] = 100.0
    a[0, 5] = 5e-310
    a[0, 6] = 1e-200
    zeroed = a.copy(order="F")
    zeroed[0, 5:7] = 0.0
    lu, _, log_value, rcond = fredholm._factor(a.copy(order="F"))
    ref = fredholm._factor(zeroed)
    assert lu[0, 5] == lu[0, 6] == 0.0 and np.array_equal(lu, ref[0])
    assert repr((log_value, rcond)) == repr(ref[2:])
    # without overwrite the caller's matrix keeps its entries
    fredholm._factor(a, overwrite=False)
    assert a[0, 5] == 5e-310 and a[0, 6] == 1e-200


def _neumann_case(case):
    """An operator whose factored matrix R has ||R - I||_1 < 1 (the
    ``small`` cases) or >= 1."""
    if case.startswith("dense"):
        op = _random_operator(seed=17)
        if case == "dense-large":  # I - M = -0.5 I - (a small part)
            op = replace(op, matrix=op.matrix + 1.5 * np.eye(op.n))
        return op
    return _iiks_case(case.split("-")[0], False, m=48)[0]


@pytest.mark.parametrize("case", ["dense-small", "dense-large",
                                  "airy-small", "pearcey-large"])
def test_solves_estimate_rcond_only_where_the_neumann_bound_leaves_it_open(
        case, monkeypatch):
    # ||R^{-1}||_1 <= 1 / (1 - ||R - I||_1) decides rcond >= 1e-13 for a
    # solve without Hager's estimate; a determinant still reports it
    op = _neumann_case(case)
    a = op.schur()
    dev = np.abs(a - np.eye(len(a))).sum(axis=0).max()
    assert (dev < 1) == case.endswith("small")
    calls = []
    inv_norm1 = fredholm._inv_norm1
    monkeypatch.setattr(fredholm, "_inv_norm1", lambda *args: (
        calls.append(args), inv_norm1(*args))[1])
    fredholm.solve_resolvent(op, np.ones(op.n))
    fredholm.logdet_derivative(op, op)
    assert len(calls) == (0 if dev < 1 else 2)
    calls.clear()
    hager = fredholm.det(op).diagnostics["rcond"]
    assert len(calls) == 1 and hager == fredholm._factor(a.copy("F"))[3]
    # the bound a solve reads in its place is below the estimate
    lower = fredholm._factor(a.copy("F"), floor=fredholm._RCOND_MIN)[3]
    if dev < 1:
        assert 2 * fredholm._RCOND_MIN <= lower <= hager
    else:
        assert lower == hager


@pytest.mark.parametrize("case", ["airy-1", "airy-2", "airy-3", "pearcey-1",
                                  "pearcey-2", "pearcey-3", "physical"])
def test_schur_path_matches_dense_linear_algebra(case, monkeypatch):
    op, m, tangent, lead = _schur_case(case)
    assert op.lead == lead
    assert not np.any(m[:lead, :lead])
    a = np.eye(op.n) - m
    rng = np.random.default_rng(31)

    orders = []
    lu_factor = sla.lu_factor

    def counting(*args, **kwargs):
        orders.append(args[0].shape)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(sla, "lu_factor", counting)

    res = fredholm.det(op)
    assert abs(res.log_value.real - np.linalg.slogdet(a)[1]) <= 1e-12
    assert res.diagnostics["n"] == op.n
    assert res.diagnostics["n_factored"] == op.n - lead

    rhs = rng.standard_normal((op.n, 3)) + 1j * rng.standard_normal((op.n, 3))
    s = np.sqrt(op.weights)[:, None]
    ref = np.linalg.solve(a, rhs * s) / s
    # the solve refines on the Schur system alone, so no step on the
    # full system repairs a wrong B or C coupling
    x = fredholm.solve_resolvent(op, rhs)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    # a dense sampler goes with a dense operator, a contour tangent with
    # a contour operator; dS never needs the lead x lead block of dM
    dense = fredholm.DiscreteOperator.from_kernel_matrix(
        rng.standard_normal((op.n, op.n)) / op.n, np.ones(op.n))
    if tangent is None:
        dop, dm = dense, dense.matrix
    else:
        dop, dm = tangent, _matrix(tangent)
        with pytest.raises(ValueError):
            fredholm.logdet_derivative(op, dense)
    ref = -np.trace(np.linalg.solve(a, dm))
    val = fredholm.logdet_derivative(op, dop)
    assert abs(val - ref) <= 1e-10 * abs(ref)
    assert orders == [(op.n - lead, op.n - lead)] * 3
    if case == "airy-2":
        assert orders[0] == (240, 240)
