"""Contour geometry and quadrature tests."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from gapdet import airy, contour, fredholm, gap, isomono, pdecheck, pearcey
from gapdet.airy import theta
from gapdet.tracy_widom import airy_ai

from reference_kernels import min_pairwise_distance, sorted_geometry


def test_airy_system_single_time_geometry():
    sys_ = contour.build_airy_system([0.0], m=40)
    assert sys_.labels == ("gamma_R", "line_1")
    apexes = sorted(g.component.apex.real for g in sys_.grids)
    assert apexes == [0.0, 1.0]
    line = sys_.grid("line_1").component
    assert np.allclose(sorted(np.abs(line.angles)), [2 * np.pi / 3] * 2)


def test_airy_system_two_time_gap_and_disjoint():
    sys_ = contour.build_airy_system([0.0, 0.5], m=40)
    right = sys_.grid("gamma_R").component.apex.real
    nearest = max(g.component.apex.real for g in sys_.grids
                  if g.component.label != "gamma_R")
    assert right - nearest == pytest.approx(1.0)
    assert min_pairwise_distance(sys_) > 0


@pytest.mark.parametrize("dt, capped", [(1e-3, ("line_1", "line_2")),
                                        (1.0, ())])
def test_capped_radius_is_reported(dt, capped):
    # the Gaussian rule asks for r = sqrt(2 TAIL_LOG / dt), 272 at dt=1e-3
    sys_ = contour.build_airy_system([0.0, dt], m=8)
    assert sys_.meta["radius_capped"] == capped
    assert all(sys_.meta["radii"][c] == contour.RADIUS_CAP for c in capped)
    res = gap.airy_gap_probability([0.0, dt], [[0.0], [0.0]], m=8)
    assert res.diagnostics["radius_capped"] == capped


def test_capped_physical_radius_is_reported():
    assert airy.physical_contours([0.0], m=8).meta["radius_capped"] == ()
    # the linear slowdown from x = -3e4 outgrows the cubic decay up to 200
    assert airy.physical_contours([0.0], m=8, x_min=-3e4).meta[
        "radius_capped"] == ("gamma_R", "left_line")
    op = airy.physical_operator(airy.AiryEndpoints([[0.0]]), [0.0], m=8)
    assert fredholm.det(op).diagnostics["radius_capped"] == ()
    sys_ = contour.build_pearcey_system([0.0, 1.0], m=8)
    op = pearcey.physical_operator(
        pearcey.PearceyEndpoints([[-1.0, 1.0]] * 2), [0.0, 1.0], sys_)
    assert op.meta["radius_capped"] == ()


@pytest.mark.parametrize("fn", [
    gap.airy_gap_probability, gap.pearcey_gap_probability,
    contour.build_airy_system, contour.build_pearcey_system,
    airy.physical_contours, airy.physical_operator, contour._system])
def test_no_route_takes_a_contour_radius(fn):
    # every radius comes from the truncation rule, so every cap is seen
    assert not any("radius" in p for p in inspect.signature(fn).parameters)


@pytest.mark.parametrize("build, label, radius", [
    # the Gaussian of two close times
    (lambda: contour.build_airy_system([0.0, 0.01], m=8,
                                       endpoint_scale=0.7),
     "line_1", 180.7622331735007),
    # the linear growth of far endpoints
    (lambda: contour.build_pearcey_system([-0.3, 0.4], m=8,
                                          endpoint_scale=50.0),
     "iR", 143.5902083913588),
    # the linear slowdown of a far physical argument, plus the pad of 1
    (lambda: airy.physical_contours([0.0], m=8, x_min=-1.2e4),
     "left_line", 135.16714865806978),
], ids=["airy-gaussian", "pearcey-linear", "physical"])
def test_radius_between_128_and_the_cap_is_not_capped(build, label, radius):
    meta = build().meta
    assert meta["radii"][label] == pytest.approx(radius, rel=1e-12)
    assert meta["radius_capped"] == ()


@pytest.mark.parametrize("fn, intervals", [
    (gap.airy_gap_probability, [[-1.0], [0.5]]),
    (gap.pearcey_gap_probability, [[-1.0, 1.0]] * 2)])
@pytest.mark.parametrize("representation", ["physical", "iiks"])
def test_every_route_reports_the_radii_of_its_system(
        monkeypatch, fn, intervals, representation):
    built, build = [], contour._system

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(contour, "_system", spy)
    monkeypatch.setattr(airy, "_system", spy)
    diag = fn([0.0, 1.0], intervals, representation=representation,
              m=20).diagnostics
    [system] = built
    assert diag["radii"] == {g.component.label: g.component.truncation_radius
                             for g in system.grids}
    assert diag["radius_capped"] == system.meta["radius_capped"]
    assert (diag["m"], diag["eps"]) == (20, contour.DEFAULT_TAIL_EPS)


@pytest.mark.parametrize("fn, intervals", [
    (gap.airy_gap_probability, [[0.0]]),
    (gap.pearcey_gap_probability, [[-1.0, 1.0]])])
@pytest.mark.parametrize("representation", ["physical", "iiks"])
def test_odd_m_reports_the_nodes_it_lays_down(fn, intervals, representation):
    # build_grids rounds an odd m up to the next even count
    odd, even = (fn([0.0], intervals, representation=representation, m=m)
                 for m in (81, 82))
    assert odd.diagnostics["m"] == even.diagnostics["m"] == 82
    assert odd.value == even.value


def test_physical_contours_meta_is_the_system_meta_plus_apex():
    phys = airy.physical_contours([0.0, 1.0], m=8, x_min=-2.0)
    own = contour._system([g.component for g in phys.grids], 8, {})
    assert set(phys.meta) == set(own.meta) | {"C"}
    assert phys.meta["radii"] == own.meta["radii"]
    assert set(phys.meta["radii"]) == {"gamma_R", "left_line"}


def test_airy_system_rejects_bad_parameters():
    with pytest.raises(contour.ContourError):
        contour.build_airy_system([0.0, 0.0])


@pytest.mark.parametrize("angles, collide", [
    ((-np.pi / 2, np.pi / 2), True),    # the same nodes in the same order
    ((np.pi / 2, -np.pi / 2), True),    # and in reverse order
    ((-np.pi / 3, np.pi / 3), False),   # only the apex, which is no node
])
def test_system_rejects_components_that_share_a_node(angles, collide):
    line = contour.ContourComponent(0j, (-np.pi / 2, np.pi / 2), 5.0, "a")
    other = contour.ContourComponent(0j, angles, 5.0, "b")
    system = contour.ContourSystem(grids=contour.build_grids([line, other],
                                                             16))
    # the distance check is the reference
    assert (min_pairwise_distance(system) == 0) == collide
    if collide:
        with pytest.raises(contour.ContourError, match="collide"):
            contour._system([line, other], 16, {})
    else:
        assert contour._system([line, other], 16, {}).labels == \
            ("a", "b")


def test_pearcey_system_geometry():
    sys_ = contour.build_pearcey_system([0.0], delta=0.5, m=40)
    gr, gl, ir = (sys_.grid(k) for k in ("gamma_R", "gamma_L", "iR"))
    assert np.all(gr.nodes.real >= 0.5 - 1e-14)
    assert np.all(gl.nodes.real <= -0.5 + 1e-14)
    assert np.allclose(ir.nodes.real, 0.0)
    # quartic decay: Re(mu^4) < 0 away from the apexes
    for g in (gr, gl):
        far = g.nodes[np.abs(g.nodes - g.component.apex) > 1.5]
        assert np.all((far ** 4).real < 0)
    assert min_pairwise_distance(sys_) > 0
    with pytest.raises(contour.ContourError):
        contour.build_pearcey_system([0.0], delta=0.0)


def test_slot_columns_zero_only_the_empty_entries():
    # an entry no exponent is written to is an exact +0; an exponent that
    # overflowed or is nan must stay non-finite, so that cauchy_operator
    # rejects it; in g the second endpoint row of a time carries -1
    ep = airy.AiryEndpoints([[0.0, 1.0]])
    live = np.array([0.5j, 800.0, np.nan])

    def exponents(z, label, ends):
        assert ends[0].shape == (1, 2, 1) and label == "x"
        yield 0, None, 0, live
        yield 1, 0, 0, np.stack([np.zeros(3), live])
    with np.errstate(over="ignore", invalid="ignore"):
        [f], [g] = contour._columns([ep], 3, [(np.zeros(3), "x",
                                               [slice(0, 3)])], exponents)
    assert f[0, 0] == np.exp(0.5j) and g[2, 0] == -np.exp(0.5j)
    assert np.all(g[1] == 1.0)
    assert np.isinf(f[0, 1]) and np.isinf(g[2, 1])
    assert np.isnan(f[0, 2]) and np.isnan(g[2, 2])
    zeros = np.concatenate([f[1:].ravel(), g[:1].ravel()])
    assert not np.any(zeros) and not np.any(np.signbit(zeros.real)) \
        and not np.any(np.signbit(zeros.imag))


# the nodes per panel of the contour grids (m = 80 to 200), of the
# interval grids (10 to 21) and of the Tracy-Widom oracle (50 and 60)
_RULE_COUNTS = list(range(1, 22)) + [50, 60]


@pytest.mark.parametrize("n", _RULE_COUNTS)
def test_gauss_legendre_rule_matches_leggauss(n):
    x, w = contour.gauss_legendre(n)
    k = np.arange(2 * n)
    moments = (x[None, :] ** k[:, None]) @ w
    assert np.all(np.abs(moments - np.where(k % 2, 0.0, 2.0 / (k + 1)))
                  <= 5e-15)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    # eigenvalues to a few ulp; leggauss polishes its nodes by Newton
    assert np.all(np.abs(x - x_ref) <= 1e-15)
    # against a 40-digit rule, leggauss's weights are off by up to 8.4e-14
    # (at 18 and 20 nodes) and 1.8e-12 (at 60), this rule's by 1.5e-14
    # and 2.3e-14
    assert np.all(np.abs(w - w_ref) <= (1e-13 if n <= 21 else 5e-12) * w_ref)


@pytest.mark.parametrize("process, m, rule", [("airy", 120, 12),
                                              ("pearcey", 100, 10)])
def test_one_iiks_determinant_checks_times_per_entry(process, m, rule,
                                                     monkeypatch):
    # one check in each public entry on the way (as_endpoints, the
    # builder, the operator), not one in every column and phase
    # function, and one unit rule for the whole system
    checks, rules = [], []
    check, build_rule = contour.validate_times, contour.gauss_legendre
    for mod in (airy, contour, gap, pearcey):
        if getattr(mod, "validate_times", None) is check:
            monkeypatch.setattr(mod, "validate_times",
                                lambda t: (checks.append(1), check(t))[1])
    monkeypatch.setattr(contour, "gauss_legendre",
                        lambda n: (rules.append(n), build_rule(n))[1])
    if process == "airy":
        gap.airy_gap_probability([0.0, 1.0], [[0.0], [0.5]], m=m)
    else:
        gap.pearcey_gap_probability([0.0, 1.0], [[-1.0, 1.0]] * 2, m=m)
    assert len(checks) == 3
    assert rules == [rule]


def test_grid_node_count_and_conjugation_symmetry():
    sys_ = contour.build_airy_system([0.0], m=48)
    for g in sys_.grids:
        assert len(g) == 48
        swapped = np.sort_complex(np.conj(g.nodes))
        assert np.allclose(np.sort_complex(g.nodes), swapped)


def test_integrate_constant_gives_length_times_direction():
    sys_ = contour.build_airy_system([0.0], m=60)
    for g in sys_.grids:
        r = g.component.truncation_radius
        phi_in, phi_out = g.component.angles
        legs = len(g) // 2
        # per straight segment: sum of weights = length * unit direction
        total_in = g.weights[:legs].sum()
        total_out = g.weights[legs:].sum()
        assert total_in == pytest.approx(-r * np.exp(1j * phi_in), rel=1e-13)
        assert total_out == pytest.approx(r * np.exp(1j * phi_out), rel=1e-13)


def test_integrate_zero_function():
    g = contour.build_airy_system([0.0], m=24).grid("gamma_R")
    assert np.sum(g.weights * (0.0 * g.nodes)) == 0


def test_integrate_airy_contour_against_series_oracle():
    g = contour.build_airy_system([0.0], m=160).grid("gamma_R")
    val = np.sum(g.weights * np.exp(theta(0.0, g.nodes))) / (2j * np.pi)
    exact = -(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0))
    assert val.real == pytest.approx(exact, abs=1e-12)
    assert abs(val.imag) < 1e-14
    assert airy_ai(0.0) == pytest.approx(-exact, abs=1e-14)


def test_integrate_gaussian_on_vertical_line():
    [g] = contour.build_grids([contour.ContourComponent(
        0j, (-np.pi / 2, np.pi / 2), 9.0, "iR")], 100)
    z = g.nodes
    val = np.sum(g.weights * np.exp(z ** 2 / 2.0 + 0.3 * z)) / (2j * np.pi)
    exact = np.exp(-0.3 ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert val.real == pytest.approx(exact, abs=1e-12)
    assert abs(val.imag) < 1e-13


def test_integrate_converges_under_node_doubling():
    # super-algebraic convergence: once resolved, doubling m moves the
    # value by no more than a small multiple of the 1e-16 tail cut
    exact_checks = []
    for m in (160, 320):
        sys_ = contour.build_airy_system([0.0], m=m)
        g = sys_.grid("gamma_R")
        exact_checks.append(
            np.sum(g.weights * np.exp(theta(0.0, g.nodes))))
    assert abs(exact_checks[1] - exact_checks[0]) < 1e-11


def test_integrate_conjugation_reversal_relation():
    g = contour.build_airy_system([0.0], m=80).grid("gamma_R")
    val = np.sum(g.weights * np.exp(theta(0.0, g.nodes)))
    reversed_grid = contour.QuadratureGrid(
        nodes=g.nodes, weights=-g.weights, component=g.component)
    rev = np.sum(reversed_grid.weights
                 * np.exp(theta(0.0, reversed_grid.nodes)))
    assert np.conj(val) == pytest.approx(rev, abs=1e-15)


def test_pearcey_weights_decay_at_truncation():
    times = [0.0, 1.0]
    sys_ = contour.build_pearcey_system(times, m=40)
    for g in sys_.grids:
        comp = g.component
        r = comp.truncation_radius
        if comp.label == "iR":
            end = 1j * r
            slowest = min(abs(np.exp(-(end ** 4 / 4 - t / 2 * end ** 2)))
                          for t in times)
            slowest = max(slowest, abs(np.exp(np.diff(times).min()
                                              * end ** 2 / 2.0)))
        else:
            end = comp.apex + r * np.exp(1j * comp.angles[1])
            slowest = abs(np.exp(0.5 * (end ** 4 / 4)))
        assert slowest < 1e-12


# (process, number of times, m, keywords of the system, of the operator)
_LAYOUT_CASES = {
    "airy-n1": ("airy", 1, 24, {}, {}),
    "airy-n2": ("airy", 2, 24, {}, {}),
    "airy-n3": ("airy", 3, 24, {}, {}),
    "airy-odd-m": ("airy", 2, 81, {}, {}),
    "airy-no-gauge": ("airy", 2, 24, {}, {"gauge": False}),
    "pearcey-n1": ("pearcey", 1, 24, {}, {}),
    "pearcey-n2": ("pearcey", 2, 24, {}, {}),
    "pearcey-n3": ("pearcey", 3, 24, {}, {}),
    "pearcey-delta": ("pearcey", 2, 24, {"delta": 0.25}, {}),
}


def _layout_case(process, n, m, system_kw, op_kw):
    """(system, IIKS operator on it, endpoints, times) at n times."""
    times = [[0.0], [0.0, 1.0], [0.0, 0.5, 1.0]][n - 1]
    if process == "airy":
        mod, build = airy, contour.build_airy_system
        ep = airy.AiryEndpoints([[-0.5, 0.7], [0.5], [0.2]][:n])
    else:
        mod, build = pearcey, contour.build_pearcey_system
        ep = pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5],
                                       [-0.3, 0.3]][:n])
    system = build(times, m=m, endpoint_scale=ep.max_abs_endpoint(),
                   **system_kw)
    return system, mod.iiks_operator(ep, times, system, **op_kw), ep, times


@pytest.mark.parametrize("case", list(_LAYOUT_CASES))
def test_layout_geometry_matches_the_sorted_reference(case):
    # the geometry a system builds from its slot layout against the one
    # an exact sort of the slot nodes finds
    system, op, _, _ = _layout_case(*_LAYOUT_CASES[case])
    geo = system.geometry
    assert op.geometry is geo
    ref = sorted_geometry(geo.nodes, geo.vec_ids, geo.lead)
    # the distinct nodes of X and of L, and the node of every slot
    for got, want in (geo.lead_nodes, ref.lead_nodes), \
            (geo.rest_nodes, ref.rest_nodes):
        assert np.array_equal(np.sort(got.values), want.values)
        assert np.array_equal(got.values[got.ids], want.values[want.ids])
    # the coincident rest pairs as slot-index pairs, and the mirror
    for got, want in [*zip(geo.pairs, ref.pairs), *zip(geo.fill_at,
                                                       ref.fill_at),
                      (geo.slot_mirror, ref.slot_mirror),
                      (geo.mirror, ref.mirror)]:
        assert np.array_equal(got, want)
    # K entrywise, with the layout's nodes put in sorted order
    rows, cols = (np.argsort(s.values) for s in (geo.rest_nodes,
                                                  geo.lead_nodes))
    assert np.array_equal(geo.cauchy[np.ix_(rows, cols)], ref.cauchy)
    # the operator read through either: the same real form up to the
    # rounding of the reordered node sums
    r, want = op.schur(), replace(op, geometry=ref).schur()
    assert np.abs(r - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_every_operator_on_a_system_reads_its_one_geometry(monkeypatch,
                                                           process):
    system, op, ep, times = _layout_case(process, 2, 24, {}, {})
    mod = airy if process == "airy" else pearcey
    ops = [op] + [mod.iiks_tangent_operator(ep, times, system, i, ell)
                  for i, ends in enumerate(ep.per_time)
                  for ell in range(len(ends))]
    assert all(o.geometry is system.geometry for o in ops)
    # gamma_moments solves with an operator on the system it builds
    built, solved = [], []
    build = f"build_{process}_system"
    monkeypatch.setattr(isomono, build, lambda *a, **k: (
        built.append(getattr(contour, build)(*a, **k)), built[-1])[1])
    moments = isomono.resolvent_moments
    monkeypatch.setattr(isomono, "resolvent_moments", lambda op: (
        solved.append(op), moments(op))[1])
    isomono.gamma_moments(process, ep, times, m=24)
    [own], [o] = built, solved
    assert o.geometry is own.geometry and o.f.ndim == 2
    if process == "pearcey":
        return
    # and the nine points of a PDE stencil, one stacked operator on the
    # system they share
    built.clear()
    monkeypatch.setattr(pdecheck, build, lambda *a, **k: (
        built.append(contour.build_airy_system(*a, **k)), built[-1])[1])
    monkeypatch.setattr(pdecheck, "resolvent_moments", lambda op: (
        solved.append(op), [None] * len(op.f))[1])
    monkeypatch.setattr(pdecheck, "_gradient", lambda mo, e, t: (0.0,) * 3)
    solved.clear()
    pdecheck.build_grid((1.0, 0.2, 0.1), step=0.04, m=24)
    [own], [batch] = built, solved
    assert batch.f.shape[0] == batch.g.shape[0] == batch.fill.shape[0] == 9
    assert batch.geometry is own.geometry


# (process, times, endpoint sets of one count per time, operator keywords)
_BATCH_CASES = {
    "airy-1-1": ("airy", [0.0, 1.0], [[[-1.0], [0.5]], [[0.3], [-0.7]],
                                      [[0.0], [0.0]]], {}),
    "airy-1-1-no-gauge": ("airy", [0.0, 1.0], [[[-1.0], [0.5]],
                                               [[0.3], [-0.7]]],
                          {"gauge": False}),
    "airy-2-1": ("airy", [0.0, 1.0], [[[-1.0, 0.5], [0.2]],
                                      [[-0.3, 0.7], [-0.4]]], {}),
    "airy-2-1-no-gauge": ("airy", [0.0, 1.0], [[[-1.0, 0.5], [0.2]],
                                               [[-0.3, 0.7], [-0.4]]],
                          {"gauge": False}),
    "airy-1-2": ("airy", [0.0, 1.0], [[[0.2], [-1.0, 0.5]],
                                      [[-0.4], [-0.3, 0.7]]], {}),
    "airy-3-times": ("airy", [0.0, 0.5, 1.0], [[[0.3], [0.1], [0.0]],
                                               [[-0.2], [0.4], [-0.6]]], {}),
    "pearcey-1": ("pearcey", [0.0], [[[-1.0, 1.0]], [[-0.5, 0.2]]], {}),
    "pearcey-2": ("pearcey", [0.0, 1.0], [[[-1.0, 1.0], [-0.5, 0.5]],
                                          [[-0.8, 0.2], [-1.2, 1.0]]], {}),
    "pearcey-3": ("pearcey", [0.0, 0.5, 1.0],
                  [[[-1.0, 1.0], [-0.5, 0.5], [-0.3, 0.3]],
                   [[-0.8, 0.2], [0.0, 0.3], [-1.2, 1.0]]], {}),
}


@pytest.mark.parametrize("case", list(_BATCH_CASES))
def test_each_stacked_operator_is_its_own_batch_of_one(case):
    # one pass builds the columns of every set of a batch: each member's
    # folded generators and coincident fill are bit for bit those of its
    # set alone, signed zeros included, and so are the bare columns
    process, times, sets, kw = _BATCH_CASES[case]
    mod, build = (airy, contour.build_airy_system) if process == "airy" \
        else (pearcey, contour.build_pearcey_system)
    eps = [gap.as_endpoints(process, times, iv)[1] for iv in sets]
    system = build(times, m=24, endpoint_scale=max(
        ep.max_abs_endpoint() for ep in eps))
    batch = mod.iiks_operators(eps, times, system, **kw)
    assert batch.f.shape[0] == len(eps) and batch.geometry is system.geometry
    # the bare columns, the gauge as the operators take it
    args = (np.array(times),) + ((kw.get("gauge", True),)
                                 if process == "airy" else ())
    f, g = contour.build_slots(system, eps, mod.exponents, *args)
    for i, ep in enumerate(eps):
        got, want = batch.member(i), mod.iiks_operator(ep, times, system,
                                                       **kw)
        [f1], [g1] = contour.build_slots(system, [ep], mod.exponents, *args)
        for a, b in [(got.f, want.f), (got.g, want.g), (got.fill, want.fill),
                     (f[i], f1), (g[i], g1)]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # the batch reads the lead rows non-zero in any of its members
        assert set(want.f_rows) <= set(batch.f_rows)
        assert set(want.g_rows) <= set(batch.g_rows)


@pytest.mark.parametrize("process", ["airy", "pearcey"])
def test_a_batch_needs_one_endpoint_count_per_time(process):
    times = [0.0, 1.0]
    if process == "airy":
        mod, build, sets = airy, contour.build_airy_system, \
            [[[0.1], [0.2]], [[0.1, 0.3], [0.2]]]
    else:
        mod, build, sets = pearcey, contour.build_pearcey_system, \
            [[[-1.0, 1.0], [-0.5, 0.5]], [[-1.0, 1.0], [-0.5, 0.0, 0.2, 0.5]]]
    eps = [gap.as_endpoints(process, times, iv)[1] for iv in sets]
    system = build(times, m=16, endpoint_scale=1.0)
    with pytest.raises(ValueError, match="one endpoint count per time"):
        mod.iiks_operators(eps, times, system)


@pytest.mark.parametrize("build", [contour.build_airy_system,
                                   contour.build_pearcey_system])
@pytest.mark.parametrize("grid", [0, -1], ids=["lead", "rest"])
@pytest.mark.parametrize("move, error", [
    (lambda z: z[3] + 1e-9, "conjugate"),  # off the conjugate of its mirror
    (lambda z: z[2], "collide"),           # onto another node of its grid
])
def test_system_rejects_a_node_off_its_layout(monkeypatch, build, grid, move,
                                              error):
    grids_of = contour.build_grids

    def moved(comps, m):
        grids = list(grids_of(comps, m))
        nodes = grids[grid].nodes.copy()
        nodes[3] = move(nodes)
        grids[grid] = replace(grids[grid], nodes=nodes)
        return tuple(grids)

    monkeypatch.setattr(contour, "build_grids", moved)
    # a collision raises in the build, a broken mirror when the layout's
    # geometry is first read
    with pytest.raises(ValueError, match=error):
        build([0.0, 1.0], m=16).geometry
