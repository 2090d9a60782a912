"""Determinant engine tests on small synthetic kernels."""

import numpy as np
import pytest
import scipy.linalg as sla

from gapdet import airy, contour, fredholm, pearcey

RNG = np.random.default_rng(20240817)


def _sampled(kernel, system):
    """Operator of ``kernel(lam, mu)`` on every node of ``system``."""
    nodes = np.concatenate([g.nodes for g in system.grids])
    weights = np.concatenate([g.weights for g in system.grids])
    n = len(nodes)
    return fredholm.DiscreteOperator.from_kernel_matrix(
        kernel(nodes[:, None], nodes[None, :]) * np.ones((n, n)), weights)


def _toy_system(m=24):
    return contour.build_airy_system([0.0], C=1.0, m=m)


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


def _unfolded(op):
    """Kernel samples K(r, c) with the quadrature weights divided out."""
    s = np.sqrt(op.weights)
    return op.matrix / s[:, None] / s[None, :]


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_assembled_operators_match_pointwise_entries(process):
    times = [0.0, 1.0]
    if process == "airy":
        mod, ep = airy, airy.AiryEndpoints([[-0.5, 0.7], [0.5]])
        sys_ = contour.build_airy_system(times, m=8)
        op = airy.iiks_operator(ep, times, sys_, gauge=False)
        s = airy.iiks_slots(ep, times, sys_, gauge=False)
        vanishes = lambda a, b: a == b  # same-component blocks
    else:
        mod, ep = pearcey, pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
        sys_ = contour.build_pearcey_system(times, m=8)
        op = pearcey.iiks_operator(ep, times, sys_)
        s = pearcey.iiks_slots(ep, times, sys_)
        vanishes = lambda a, b: "iR" not in (a, b)  # the X x X block
    assert np.array_equal(op.weights, s.weights)
    labels = [sys_.labels[c] for c in s.comp_ids]
    kmat = _unfolded(op)
    coincident = 0
    for r in range(op.n):
        for c in range(op.n):
            ref = mod.iiks_kernel_entry(s.nodes[r], s.nodes[c], labels[r],
                                        labels[c], ep, times)
            ref = ref[s.vec_ids[r], s.vec_ids[c]]
            if vanishes(labels[r], labels[c]):
                assert op.matrix[r, c] == 0 and ref == 0
            coincident += labels[r] == labels[c] == "iR" and \
                s.nodes[r] == s.nodes[c] and ref != 0
            assert abs(kmat[r, c] - ref) <= 1e-12 * max(abs(ref), 1.0)
    # the L'Hopital limit fills the coincident (tau_1, tau_2) iR slots
    assert coincident == (len(sys_.grid("iR")) if process == "pearcey" else 0)

    # physical operator against single entries, on sampled slot pairs;
    # slots run time by time over each time's interval grid
    grids = [fredholm.interval_grid(e) for e in ep.per_time]
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
    kmat = _unfolded(phys_op)
    rng = np.random.default_rng(29)
    for r, c in rng.integers(phys_op.n, size=(40, 2)):
        ref = mod.physical_entry(times_of[r], times_of[c], nodes[r],
                                 nodes[c], sys_, times)
        assert abs(kmat[r, c] - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_det_log_value_consistency():
    op = _random_operator(seed=3)
    res = fredholm.det(op)
    assert np.exp(res.log_value) == pytest.approx(res.value, rel=1e-12)
    assert res.diagnostics["rcond"] > 0
    direct = np.linalg.det(np.eye(op.n) - op.matrix)
    assert res.value == pytest.approx(direct, rel=1e-10)


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
        calls.append(args[0].shape)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(sla, "lu_factor", counting)
    op = _random_operator(seed=13)
    before = op.matrix.copy()
    call(op)
    assert calls == [(op.n, op.n)]
    assert np.array_equal(op.matrix, before)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_logdet_derivative_raises_on_singular():
    n = 10
    op = fredholm.DiscreteOperator.from_kernel_matrix(np.eye(n), np.ones(n))
    with pytest.raises(fredholm.NearSingularOperatorError):
        fredholm.logdet_derivative(op, op)
