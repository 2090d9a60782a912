"""High-level driver tests: probability properties, determinism."""

import numpy as np
import pytest

from gapdet import (airy, contour, fredholm, gap, isomono, pdecheck, pearcey,
                    tracy_widom)
from gapdet.gap import (
    airy_gap_probability,
    as_endpoints,
    equivalence_report,
    pearcey_gap_probability,
)


def test_empty_intervals_give_unit_determinant():
    res = airy_gap_probability([0.0, 1.0], [[], []], m=40)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    resp = pearcey_gap_probability([0.0], [[]], m=40)
    assert resp.value == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("representation", ["iiks", "physical"])
@pytest.mark.parametrize("fn, times, intervals", [
    (airy_gap_probability, [0.0], [[0.0, np.inf]]),
    (airy_gap_probability, [0.0], [[np.nan]]),
    (airy_gap_probability, [0.0, np.nan], [[0.0], [0.0]]),
    (airy_gap_probability, [0.0, np.inf], [[0.0], [0.0]]),
    (pearcey_gap_probability, [0.0], [[-np.inf, 1.0]]),
    (pearcey_gap_probability, [np.nan], [[-1.0, 1.0]]),
])
def test_non_finite_inputs_raise(fn, times, intervals, representation):
    # [0, inf) is the odd count [[0.0]]; written with an infinite endpoint
    # it must raise, not return a plausible probability
    with pytest.raises(ValueError, match="finite"):
        fn(times, intervals, representation=representation, m=40)


_MISMATCHED = [
    (airy_gap_probability, [0.0, 1.0], [[0.0]]),
    (airy_gap_probability, [0.0], [[0.0], [0.5]]),
    (pearcey_gap_probability, [0.0, 1.0], [[-1.0, 1.0]]),
    (pearcey_gap_probability, [0.0], [[-1.0, 1.0], [-1.0, 1.0]]),
]


@pytest.mark.parametrize("call", [
    *(lambda fn=fn, t=t, iv=iv, rep=rep: fn(t, iv, rep, m=24)
      for fn, t, iv in _MISMATCHED for rep in ("iiks", "physical")),
    lambda: isomono.gamma_moments(
        "airy", airy.AiryEndpoints([[0.0]]), [0.0, 1.0], m=24),
    lambda: isomono.gamma_moments(
        "pearcey", pearcey.PearceyEndpoints([[-1.0, 1.0]] * 2), [0.0], m=24),
    lambda: isomono.gamma_moments("airy", [[0.0]], [0.0, 1.0], m=24),
    lambda: isomono.airy_derivative_report([[0.0]], [0.0, 1.0], m=24),
    lambda: isomono.pearcey_derivative_report([[-1.0, 1.0]] * 2, [0.0],
                                              m=24),
    lambda: isomono.jump_matrix("airy", 0.5j, "line_1", [[0.0]], [0.0, 1.0]),
    lambda: isomono.jump_matrix("pearcey", 0.5j, "iR",
                                pearcey.PearceyEndpoints([[-1.0, 1.0]] * 2),
                                [0.0]),
    lambda: isomono.exponent_diagonal("airy", 0.5j, [[0.0]], [0.0, 1.0]),
    lambda: isomono.exponent_diagonal("pearcey", 0.5j, [[-1.0, 1.0]] * 2,
                                      [0.0]),
    lambda: isomono.conjugated_jump("airy", 0.5j, "line_1",
                                    airy.AiryEndpoints([[0.0]]), [0.0, 1.0]),
    lambda: isomono.moment_log_derivatives(
        "airy", [[0.0]], [0.0, 1.0], (np.zeros((2, 2)),) * 2),
    lambda: isomono.moment_log_derivatives(
        "pearcey", pearcey.PearceyEndpoints([[-1.0, 1.0]] * 2), [0.0],
        (np.zeros((5, 5)),) * 2),
], ids=[f"{fn.__name__.split('_')[0]}-{len(t)}-{len(iv)}-{rep}"
        for fn, t, iv in _MISMATCHED for rep in ("iiks", "physical")]
    + ["moments-airy-2-1", "moments-pearcey-1-2", "moments-list-airy-2-1",
       "report-list-airy-2-1", "report-list-pearcey-1-2",
       "jump-list-airy-2-1", "jump-pearcey-1-2", "diagonal-list-airy-2-1",
       "diagonal-list-pearcey-1-2", "conjugated-airy-2-1",
       "log-derivatives-list-airy-2-1", "log-derivatives-pearcey-1-2"])
def test_times_and_intervals_counts_must_match(call):
    # a one-time answer to a two-time question must not come back
    with pytest.raises(ValueError, match="one endpoint list per time"):
        call()


_PEARCEY_EP = pearcey.PearceyEndpoints([[-1.0, 1.0]])


@pytest.mark.parametrize("call", [
    lambda: equivalence_report("Airy", [0.0], [[-1.0, 1.0]], m=20),
    lambda: isomono.jump_matrix("Airy", 0.5j, "iR", _PEARCEY_EP, [0.0]),
    lambda: isomono.exponent_diagonal("Airy", 0.5j, _PEARCEY_EP, [0.0]),
    lambda: isomono.gamma_moments("Airy", _PEARCEY_EP, [0.0], m=20),
    lambda: isomono.moment_log_derivatives(
        "Airy", _PEARCEY_EP, [0.0], (np.zeros((3, 3)),) * 2),
    lambda: isomono._derivative_report("Airy", _PEARCEY_EP, [0.0], 20),
    lambda: isomono.gamma_moments("Airy", [[-1.0, 1.0]], [0.0], m=20),
    lambda: isomono._derivative_report("Airy", [[-1.0, 1.0]], [0.0], 20),
    lambda: as_endpoints("Airy", [0.0], [[-1.0, 1.0]]),
    lambda: gap.gap_probabilities("Airy", [0.0], [[[-1.0, 1.0]]], m=20),
    lambda: gap.gap_probabilities("foo", [0.0], []),
], ids=["equivalence_report", "jump_matrix", "exponent_diagonal",
        "gamma_moments", "moment_log_derivatives", "derivative_report",
        "gamma_moments-list", "derivative_report-list", "as_endpoints",
        "gap_probabilities", "gap_probabilities-empty"])
def test_unknown_process_raises(call):
    # a misspelt process must not run the Pearcey kernel
    with pytest.raises(ValueError, match="process"):
        call()


_AIRY_EP2 = airy.AiryEndpoints([[0.0], [0.5]])
_PEARCEY_EP2 = pearcey.PearceyEndpoints([[-1.0, 1.0]] * 2)
_AIRY_SYS2 = contour.build_airy_system([0.0, 1.0], m=16)
_PEARCEY_SYS2 = contour.build_pearcey_system([0.0, 1.0], m=16)
_TIMED = {
    "airy_gap_probability": lambda t: airy_gap_probability(
        t, [[0.0], [0.5]], m=16),
    "pearcey_gap_probability": lambda t: pearcey_gap_probability(
        t, [[-1.0, 1.0]] * 2, m=16),
    "equivalence_report": lambda t: equivalence_report(
        "airy", t, [[0.0], [0.5]], m=16),
    "equivalence_report-pearcey": lambda t: equivalence_report(
        "pearcey", t, [[-1.0, 1.0]] * 2, m=16),
    "gamma_moments": lambda t: isomono.gamma_moments(
        "pearcey", [[-1.0, 1.0]] * 2, t, m=16),
    "jump_matrix": lambda t: isomono.jump_matrix(
        "airy", 0.3 + 0.5j, "line_1", _AIRY_EP2, t),
    "exponent_diagonal": lambda t: isomono.exponent_diagonal(
        "pearcey", 0.5j, _PEARCEY_EP2, t),
    "conjugated_jump": lambda t: isomono.conjugated_jump(
        "pearcey", 0.5j, "iR", _PEARCEY_EP2, t),
    "airy.iiks_operator": lambda t: airy.iiks_operator(
        _AIRY_EP2, t, _AIRY_SYS2),
    "airy.iiks_tangent_operator": lambda t: airy.iiks_tangent_operator(
        _AIRY_EP2, t, _AIRY_SYS2, 0, 0),
    "airy.physical_operator": lambda t: airy.physical_operator(
        _AIRY_EP2, t, m=16),
    "pearcey.iiks_operator": lambda t: pearcey.iiks_operator(
        _PEARCEY_EP2, t, _PEARCEY_SYS2),
    "pearcey.iiks_tangent_operator": lambda t: pearcey.iiks_tangent_operator(
        _PEARCEY_EP2, t, _PEARCEY_SYS2, 0, 1),
    "pearcey.physical_operator": lambda t: pearcey.physical_operator(
        _PEARCEY_EP2, t, _PEARCEY_SYS2),
    "build_airy_system": lambda t: contour.build_airy_system(t, m=16),
    "build_pearcey_system": lambda t: contour.build_pearcey_system(t, m=16),
    "two_time_logdet": lambda t: pdecheck.two_time_logdet(t[1], 0.2, 0.1,
                                                          m=16),
    "gap_probabilities": lambda t: gap.gap_probabilities(
        "airy", t, [[[0.0], [0.5]]], m=16),
}
_BAD_TIMES = {"decreasing": [1.0, 0.0], "nan": [0.0, np.nan], "empty": [],
              "inf": [0.0, np.inf]}


@pytest.mark.parametrize("name, times", [
    pytest.param(name, times, id=f"{name}-{kind}")
    for name in sorted(_TIMED) for kind, times in _BAD_TIMES.items()
    # the times of two_time_logdet are [0, tau]
    if name != "two_time_logdet" or kind in ("nan", "inf")])
def test_every_entry_rejects_bad_times(name, times):
    # the column and phase functions take the times their caller
    # checked, so every public entry must check them itself
    with pytest.raises(contour.ContourError):
        _TIMED[name](times)


def test_airy_single_time_against_physical():
    rep = equivalence_report("airy", [0.0], [[0.0]], m=100)
    assert rep["abs_difference"] < 1e-7


def test_pearcey_equivalence_builds_one_system(monkeypatch):
    # both representations read one contour system, and return what the
    # two drivers return, bit for bit
    built, build = [], gap.build_pearcey_system
    monkeypatch.setattr(gap, "build_pearcey_system", lambda *a, **k: (
        built.append(a), build(*a, **k))[1])
    times, intervals = [0.0, 1.0], [[-1.0, 1.0], [-0.5, 0.5]]
    rep = equivalence_report("pearcey", times, intervals, m=40, delta=0.25)
    assert len(built) == 1
    for r in ("physical", "iiks"):
        res = pearcey_gap_probability(times, intervals, representation=r,
                                      m=40, delta=0.25)
        assert repr(rep[f"det_{r}"]) == repr(res.value)
        assert repr(rep["diagnostics"][r]) == repr(res.diagnostics)


def test_determinant_is_probability():
    res = airy_gap_probability([0.0, 1.0], [[-0.5], [0.0]], m=80)
    assert abs(res.value.imag) < 1e-8
    assert 0.0 < res.value.real <= 1.0 + 1e-8


def test_nested_intervals_monotone():
    # shrinking the interval raises the gap probability toward 1
    vals = []
    for c in (1.0, 0.6, 0.3, 0.1):
        vals.append(pearcey_gap_probability([0.0], [[-c, c]], m=80).value.real)
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0 + 1e-10


def test_rerun_is_bit_stable():
    a = airy_gap_probability([0.0, 1.0], [[0.2], [0.4]], m=60).value
    b = airy_gap_probability([0.0, 1.0], [[0.2], [0.4]], m=60).value
    assert a == b
    c = pearcey_gap_probability([0.0], [[-1.0, 1.0]], m=60).value
    d = pearcey_gap_probability([0.0], [[-1.0, 1.0]], m=60).value
    assert c == d


def test_airy_semi_infinite_interval_is_cut_at_twelve():
    # the physical route cuts [a, inf) at a + 12; the weight of the Airy
    # kernel past that cut is below rounding, so a longer cut moves the
    # value by rounding only
    def phys(ends):
        return airy_gap_probability([0.0], [ends], m=100,
                                    representation="physical").value
    assert phys([0.0]) == phys([0.0, 12.0])
    assert abs(phys([0.0]) - phys([0.0, 16.0])) < 1e-12


def test_no_option_moves_the_tail_cut_or_the_difference_steps():
    with pytest.raises(TypeError):
        airy_gap_probability([0.0], [[0.0]], representation="physical",
                             m=120, t_cut=12.0)
    with pytest.raises(TypeError):
        isomono.airy_derivative_report(airy.AiryEndpoints([[0.0]]), [0.0],
                                       m=40, step=1e-3)
    with pytest.raises(TypeError):
        isomono.pearcey_derivative_report(
            pearcey.PearceyEndpoints([[-1.0, 1.0]]), [0.0], m=40,
            tau_step=1e-3)


def test_multi_interval_airy_runs():
    res = airy_gap_probability([0.0], [[-1.0, 0.0, 1.0]], m=100)
    assert 0.0 < res.value.real <= 1.0
    assert abs(res.value.imag) < 1e-8


def test_carleman_bookkeeping_chain_on_physical_operator():
    # det" (Fredholm expansion) = det2 * e^{-tr}: the bridge part is
    # diagonal-free so the trace is carried by the double-integral part
    ep = airy.AiryEndpoints([[0.0], [0.5]])
    t = [0.0, 1.0]
    op = airy.physical_operator(ep, t, m=80)
    plain = fredholm.det(op)
    reg = fredholm.det2(op)
    tr = np.trace(op.matrix)
    assert plain.value == pytest.approx(
        reg.value * np.exp(-tr), rel=1e-10)
    # the diagonal of the sampled kernel carries no bridge term
    bridge_diag = [airy.gaussian_bridge(i, i, 0.1, 0.1, t) for i in range(2)]
    assert bridge_diag == [0.0, 0.0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("dt, m", [(0.01, 120), (0.01, 200), (2.0, 120)])
def test_two_time_airy_iiks_lies_within_the_frechet_bounds(dt, m):
    # P(A(0) <= 0, A(dt) <= 0) lies in [2 F2(0) - 1, F2(0)]; at these
    # gaps the IIKS value falls below the lower bound (0.906, 0.924 and
    # 0.921 against 0.939) with an rcond that passes as well-conditioned
    f2 = tracy_widom.gap_probability(0.0)
    value = airy_gap_probability([0.0, dt], [[0.0], [0.0]], m=m).value
    assert 2.0 * f2 - 1.0 <= value.real <= f2


@pytest.mark.parametrize("process, bad", [
    ("airy", [[0.0]]),                   # one endpoint list for two times
    ("airy", [[0.5, 0.0], [0.5]]),       # not increasing
    ("pearcey", [[-1.0, 1.0], [-1.0]]),  # a Pearcey interval is finite
    ("pearcey", [[-1.0, 1.0]] * 3),      # three lists for two times
], ids=["airy-count", "airy-order", "pearcey-parity", "pearcey-count"])
def test_gap_probabilities_rejects_what_as_endpoints_rejects(process, bad):
    # every interval set passes through as_endpoints, good ones around
    # the bad one included, so the batch raises its error
    times = [0.0, 1.0]
    good = [[0.0], [0.5]] if process == "airy" else [[-1.0, 1.0]] * 2
    with pytest.raises(ValueError) as want:
        as_endpoints(process, times, bad)
    with pytest.raises(ValueError) as got:
        gap.gap_probabilities(process, times, [good, bad, good], m=16)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("process, sets", [
    ("airy", [[[a], [b]] for a, b in
              [(-1.0, 0.5), (0.0, 0.0), (0.3, -0.7), (-1.5, 1.0)]]),
    ("pearcey", [[[-1.0, 1.0], [-0.5, 0.5]], [[-0.8, 0.2], [-1.2, 1.0]],
                 [[0.0, 0.3], [-0.2, 0.9]]]),
])
def test_batch_matches_one_by_one_calls_on_its_system(process, sets):
    # one system at the largest |endpoint| of the batch, reported in
    # every result; one stacked operator whose members are bit for bit
    # the one-by-one operators on a system built with the same
    # endpoint_scale, and determinants and moments within 1e-14 of
    # one-by-one calls (the stacked products sum in another order)
    times, m = [0.0, 1.0], 40
    mod, build = (airy, contour.build_airy_system) if process == "airy" \
        else (pearcey, contour.build_pearcey_system)
    batch = gap.gap_probabilities(process, times, sets, m=m)
    scale = max(abs(a) for ends in sets for e in ends for a in e)
    system = build(times, m=m, endpoint_scale=scale)
    eps = [as_endpoints(process, times, iv)[1] for iv in sets]
    stacked = mod.iiks_operators(eps, times, system)
    ops = [mod.iiks_operator(ep, times, system) for ep in eps]
    assert stacked.f.shape[0] == len(batch) == len(ops)
    for i, (res, op) in enumerate(zip(batch, ops)):
        member = stacked.member(i)
        assert all(np.array_equal(getattr(member, a), getattr(op, a))
                   for a in ("f", "g", "fill"))
        one = fredholm.det(op)
        assert abs(res.value - one.value) <= 1e-14 * abs(one.value)
        assert res.diagnostics["endpoint_scale"] == scale
        assert res.diagnostics["radii"] == system.meta["radii"]
    for moments, op in zip(isomono.resolvent_moments(stacked), ops):
        for got, want in zip(moments, isomono.resolvent_moments(op)[0]):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_pearcey_physical_route_builds_no_geometry(monkeypatch):
    # the physical operator reads only the grids: its own call builds no
    # Cauchy geometry, and equivalence_report one, for both routes, with
    # the same physical value bit for bit
    built, geometry = [], contour.CauchyGeometry
    monkeypatch.setattr(contour, "CauchyGeometry", lambda *a: (
        built.append(a), geometry(*a))[1])
    times, intervals, m = [0.0, 1.0], [[-1.0, 1.0], [-0.5, 0.5]], 40
    phys = pearcey_gap_probability(times, intervals,
                                   representation="physical", m=m)
    assert built == []
    rep = equivalence_report("pearcey", times, intervals, m=m)
    assert len(built) == 1
    assert repr(rep["det_physical"]) == repr(phys.value)
    assert repr(rep["diagnostics"]["physical"]) == repr(phys.diagnostics)
