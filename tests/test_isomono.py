"""Jump algebra, moments and derivative-identity tests."""

import numpy as np
import pytest

from gapdet import airy, contour, fredholm, gap, isomono, pearcey
from gapdet.gap import airy_gap_probability


AIRY_EP = airy.AiryEndpoints([[0.0], [0.5]])
AIRY_T = [0.0, 1.0]
PEARCEY_EP = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]])
PEARCEY_T = [0.0, 1.0]


def _sample_nodes(process, per_component=20):
    if process == "airy":
        sys_ = contour.build_airy_system(AIRY_T, m=40)
        ep, t = AIRY_EP, AIRY_T
    else:
        sys_ = contour.build_pearcey_system(PEARCEY_T, m=40)
        ep, t = PEARCEY_EP, PEARCEY_T
    for grid in sys_.grids:
        # nearest-to-apex nodes stay clear of double-precision tails
        order = np.argsort(np.abs(grid.nodes - grid.component.apex))
        for lam in grid.nodes[order[:per_component]]:
            yield lam, grid.component.label, ep, t


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_jump_nilpotency(process):
    for lam, label, ep, t in _sample_nodes(process):
        g = isomono.jump_matrix(process, lam, label, ep, t)
        n1 = np.linalg.norm(g)
        if n1 == 0:
            continue
        assert np.linalg.norm(g @ g) < 1e-12 * n1 ** 2


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_jump_inverse_is_one_plus_jump(process):
    # (I - G)(I + G) = I follows from nilpotency
    for lam, label, ep, t in _sample_nodes(process):
        g = isomono.jump_matrix(process, lam, label, ep, t)
        prod = (np.eye(ep.p) - g) @ (np.eye(ep.p) + g)
        assert np.abs(prod - np.eye(ep.p)).max() < 1e-12 * max(
            1.0, np.linalg.norm(g) ** 2)


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_conjugated_jump_is_constant_with_integer_entries(process):
    ref = {}
    for lam, label, ep, t in _sample_nodes(process):
        g0 = isomono.conjugated_jump(process, lam, label, ep, t)
        if label not in ref:
            ints = np.round(g0.real)
            assert np.abs(g0 - ints).max() < 1e-10
            assert set(np.unique(ints)) <= {-1.0, 0.0, 1.0}
            ref[label] = g0
        else:
            assert np.abs(g0 - ref[label]).max() < 1e-10


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_jump_data_takes_interval_lists(process):
    # one endpoint list per time gives what the endpoint object gives
    ep, t = (AIRY_EP, AIRY_T) if process == "airy" else (PEARCEY_EP, PEARCEY_T)
    lam, label = 0.3 + 0.5j, "line_1" if process == "airy" else "iR"
    for fn in isomono.jump_matrix, isomono.conjugated_jump:
        want = fn(process, lam, label, ep, t)
        assert np.array_equal(fn(process, lam, label, ep.per_time, t), want)
    want = isomono.exponent_diagonal(process, lam, ep, t)
    assert np.array_equal(
        isomono.exponent_diagonal(process, lam, ep.per_time, t), want)
    g1 = np.arange(ep.p ** 2, dtype=float).reshape(ep.p, ep.p)
    assert isomono.moment_log_derivatives(process, ep.per_time, t, (g1, g1)) \
        == isomono.moment_log_derivatives(process, ep, t, (g1, g1))


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_exponent_matrix_traceless(process):
    ep = AIRY_EP if process == "airy" else PEARCEY_EP
    t = AIRY_T if process == "airy" else PEARCEY_T
    rng = np.random.default_rng(2)
    for _ in range(5):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        d = isomono.exponent_diagonal(process, lam, ep, t)
        assert abs(d.sum()) < 1e-12 * max(1.0, np.abs(d).max())


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_gamma_moments_assembles_through_iiks_operator(process, monkeypatch):
    # one assembly per call, through the function the benchmark traces
    mod, ep, t = (airy, AIRY_EP, AIRY_T) if process == "airy" \
        else (pearcey, PEARCEY_EP, PEARCEY_T)
    ops = []
    iiks_operator = mod.iiks_operator

    def counting(*args, **kwargs):
        ops.append(iiks_operator(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(mod, "iiks_operator", counting)
    isomono.gamma_moments(process, ep, t, m=24)
    assert len(ops) == 1
    assert ops[0].f.shape[1] == ops[0].n


@pytest.mark.parametrize("process, ep, t, report", [
    ("airy", AIRY_EP, AIRY_T, isomono.airy_derivative_report),
    ("pearcey", PEARCEY_EP, PEARCEY_T, isomono.pearcey_derivative_report)])
def test_interval_lists_and_endpoint_objects_give_the_same_numbers(
        process, ep, t, report):
    lists = [list(ends) for ends in ep.per_time]
    by_list, by_object = (isomono.gamma_moments(process, e, t, m=24)
                          for e in (lists, ep))
    assert repr([g.tolist() for g in by_list]) \
        == repr([g.tolist() for g in by_object])
    assert repr(report(lists, t, m=24)) == repr(report(ep, t, m=24))


def test_gamma_moments_empty_intervals_vanish():
    ep = airy.AiryEndpoints([[], []])
    g1, g2 = isomono.gamma_moments("airy", ep, AIRY_T, m=24)
    assert np.all(g1 == 0) and np.all(g2 == 0)


def test_gamma_moments_single_time_airy_endpoint_derivative():
    ep = airy.AiryEndpoints([[0.0]])
    g1, _ = isomono.gamma_moments("airy", ep, [0.0], m=120)
    h = 1e-3
    fd = (airy_gap_probability([0.0], [[h]], m=120).log_value.real
          - airy_gap_probability([0.0], [[-h]], m=120).log_value.real) / (2 * h)
    assert abs(fd + g1[1, 1].real) < 1e-5 * abs(fd)


def test_gamma_moments_automatic_trace_identities():
    g1, g2 = isomono.gamma_moments("airy", AIRY_EP, AIRY_T, m=100)
    assert abs(np.trace(g1)) < 1e-10
    assert abs(np.trace(g1 @ g1 - 2.0 * g2)) < 1e-10


def test_gamma_moments_stable_under_node_doubling():
    ep = airy.AiryEndpoints([[0.0]])
    g1a, g2a = isomono.gamma_moments("airy", ep, [0.0], m=80)
    g1b, g2b = isomono.gamma_moments("airy", ep, [0.0], m=160)
    assert np.abs(g1a - g1b).max() < 1e-6
    assert np.abs(g2a - g2b).max() < 1e-6


def test_airy_derivative_identities_two_times():
    ep = airy.AiryEndpoints([[0.0], [0.0]])
    rep = isomono.airy_derivative_report(ep, [0.0, 1.0], m=160)
    assert rep["max_rel_mismatch"] < 1e-4
    # stationarity: the two time derivatives balance
    assert rep["tau"][0]["fd"] == pytest.approx(-rep["tau"][1]["fd"],
                                                rel=1e-6)


def test_airy_logdet_derivative_via_kernel_tangent():
    # Jacobi's formula with the analytic dK/da sampler; in the two-time
    # case the moved endpoint also enters g on the later time's line
    for t, ends in (([0.0], [[0.0]]), ([0.0, 1.0], [[0.0], [0.5]])):
        ep = airy.AiryEndpoints(ends)
        sys_ = contour.build_airy_system(
            t, m=120, endpoint_scale=ep.max_abs_endpoint())
        op = airy.iiks_operator(ep, t, sys_)
        dop = airy.iiks_tangent_operator(ep, t, sys_, 0, 0)
        val = fredholm.logdet_derivative(op, dop)
        h = 1e-4
        fd = (airy_gap_probability(t, ep.shifted(0, 0, h),
                                   m=120).log_value.real
              - airy_gap_probability(t, ep.shifted(0, 0, -h),
                                     m=120).log_value.real) / (2 * h)
        assert val.real == pytest.approx(fd, rel=1e-5)
        assert abs(val.imag) < 1e-10


def test_pearcey_logdet_derivative_via_kernel_tangent():
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0]])
    t = [0.0]
    sys_ = contour.build_pearcey_system(t, m=120)
    op = pearcey.iiks_operator(ep, t, sys_)
    dop = pearcey.iiks_tangent_operator(ep, t, sys_, 0, 0)
    val = fredholm.logdet_derivative(op, dop)
    h = 1e-4
    from gapdet.gap import pearcey_gap_probability
    fd = (pearcey_gap_probability(t, [[-1.0 + h, 1.0]], m=120).log_value.real
          - pearcey_gap_probability(t, [[-1.0 - h, 1.0]], m=120).log_value.real
          ) / (2 * h)
    assert val.real == pytest.approx(fd, rel=1e-5)


def test_pearcey_derivative_identities_single_time():
    ep = pearcey.PearceyEndpoints([[-1.0, 1.0]])
    rep = isomono.pearcey_derivative_report(ep, [0.0], m=120)
    assert rep["max_rel_mismatch"] < 1e-4


def _report_from_gap_calls(process, intervals, times, m):
    """The derivative report with the moments from ``gamma_moments`` and
    every determinant from its own ``gap.*_gap_probability`` call."""
    t, ep = gap.as_endpoints(process, times, intervals)
    fn = gap.airy_gap_probability if process == "airy" \
        else gap.pearcey_gap_probability
    h = isomono._FD_STEP
    fd = lambda log_det: (log_det(h) - log_det(-h)) / (2.0 * h)
    formulas = isomono.moment_log_derivatives(
        process, ep, t, isomono.gamma_moments(process, ep, t, m=m))
    report = {
        "a": {(i, ell): isomono._entry(fd(lambda s: fn(
            t, ep.shifted(i, ell, s), m=m).log_value.real), f)
              for (i, ell), f in formulas["a"].items()},
        "tau": {i: isomono._entry(fd(lambda s: fn(
            t + s * (np.arange(len(t)) == i), ep, m=m).log_value.real), f)
                for i, f in formulas["tau"].items()}}
    report["max_rel_mismatch"] = max(
        v["rel_mismatch"] for part in report.values() for v in part.values())
    return report


@pytest.mark.parametrize("process, intervals, times, m, builds", [
    ("airy", [[0.0], [0.0]], [0.0, 1.0], 160, 6),
    ("pearcey", [[-1.0, 1.0]], [0.0], 120, 4),
    ("pearcey", [[-1.0, 1.0], [-1.0, 1.0]], [0.0, 1.0], 120, 6),
], ids=["airy-n2", "pearcey-n1", "pearcey-n2"])
def test_derivative_report_builds_one_system_per_discretization(
        process, intervals, times, m, builds, monkeypatch):
    # the moments and every step that keeps the times and the largest
    # |endpoint| share one contour system; one gap call per determinant
    # built 9, 7 and 13.  The moments match them bit for bit.  The
    # determinants on one system form one batch, whose stacked products
    # sum in another order: each log det within 1e-14 of its own call's,
    # so each difference within 1e-14 / h
    want = _report_from_gap_calls(process, intervals, times, m)
    calls = []
    for name in ("build_airy_system", "build_pearcey_system"):
        build = getattr(contour, name)
        counting = lambda *a, build=build, **kw: (calls.append(a),
                                                  build(*a, **kw))[1]
        for mod in (contour, gap, isomono):
            monkeypatch.setattr(mod, name, counting)
    report = isomono.airy_derivative_report if process == "airy" \
        else isomono.pearcey_derivative_report
    got = report(intervals, times, m=m)
    assert len(calls) == builds
    for part in ("a", "tau"):
        assert got[part].keys() == want[part].keys()
        for key, entry in want[part].items():
            assert repr(got[part][key]["formula"]) == repr(entry["formula"])
            assert abs(got[part][key]["fd"] - entry["fd"]) \
                <= 1e-14 / isomono._FD_STEP


def test_pearcey_degenerate_interval():
    # zero-measure interval: det = 1 exactly; the endpoint gradients of
    # log det do not vanish, they hit the one-point density with
    # opposite signs (d/da1 log det = +rho(a), d/da2 = -rho(a))
    ep = pearcey.PearceyEndpoints([[0.3, 0.3]])
    sys_ = contour.build_pearcey_system(
        [0.0], m=100, endpoint_scale=ep.max_abs_endpoint())
    res = fredholm.det(pearcey.iiks_operator(ep, [0.0], sys_))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    g1, _ = isomono.gamma_moments("pearcey", ep, [0.0], m=100)
    assert g1[1, 1] == pytest.approx(-g1[2, 2], rel=1e-10)
    sys_ = contour.build_pearcey_system([0.0], m=100)
    rho = pearcey.physical_entry(0, 0, 0.3, 0.3, sys_, [0.0]).real
    assert -g1[1, 1].real == pytest.approx(rho, rel=1e-8)


def test_translation_invariance_of_two_time_airy():
    base = airy_gap_probability([0.0, 1.0], [[0.0], [0.5]], m=100).value
    shifted = airy_gap_probability([0.25, 1.25], [[0.0], [0.5]], m=100).value
    assert abs(base - shifted) < 1e-8
