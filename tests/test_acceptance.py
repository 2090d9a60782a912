"""Acceptance suite: one test per criterion, one printed line each.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion report lines.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from gapdet import airy, contour, fredholm, isomono, pdecheck, pearcey
from gapdet.gap import (
    airy_gap_probability,
    equivalence_report,
    pearcey_gap_probability,
)
from gapdet.tracy_widom import gap_probability as tw_oracle


def _report(num, desc, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {flag}: {desc} ({detail})")
    assert passed, f"criterion {num}: {desc}: {detail}"


def test_criterion_1_airy_dual_representation():
    t0 = time.time()
    rep = equivalence_report("airy", [0.0, 1.0], [[0.0], [0.5]], m=120)
    wall = time.time() - t0
    diff = rep["abs_difference"]
    _report(1, "Airy dual representation, n=2",
            diff < 1e-6 and wall < 120.0,
            f"|d_phys - d_iiks| = {diff:.3e}, wall = {wall:.1f}s")


def test_criterion_2_pearcey_dual_representation():
    t0 = time.time()
    rep = equivalence_report("pearcey", [0.0, 1.0],
                             [[-1.0, 1.0], [-1.0, 1.0]], m=100)
    wall = time.time() - t0
    diff = rep["abs_difference"]
    _report(2, "Pearcey dual representation, n=2",
            diff < 1e-6 and wall < 180.0,
            f"|d_phys - d_iiks| = {diff:.3e}, wall = {wall:.1f}s")


def test_criterion_3_single_time_tracy_widom_reduction():
    worst = 0.0
    for s in (-2.0, -1.0, 0.0, 1.0):
        mine = airy_gap_probability([0.0], [[s]], m=140).value
        oracle = tw_oracle(s)
        worst = max(worst, abs(mine.real - oracle), abs(mine.imag))
        if s == 0.0:
            published = 0.9694  # 4-decimal table value of F2(0)
            assert abs(mine.real - published) < 5e-5
    _report(3, "single-time reduction matches the TW oracle",
            worst < 1e-8, f"worst |difference| = {worst:.3e}")


def _random_airy_config(rng):
    n = int(rng.integers(1, 3))
    t0 = float(rng.uniform(-0.5, 0.5))
    times = [t0] if n == 1 else [t0, t0 + float(rng.uniform(0.5, 1.2))]
    intervals = []
    for _ in range(n):
        k = int(rng.integers(1, 3))
        start = float(rng.uniform(-2.0, 0.5))
        ends = start + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 1.2, k - 1))])
        intervals.append([float(e) for e in ends])
    return times, intervals


def _random_pearcey_config(rng):
    n = int(rng.integers(1, 3))
    times = [0.0] if n == 1 else [0.0, float(rng.uniform(0.5, 1.2))]
    intervals = []
    for _ in range(n):
        k = 2 * int(rng.integers(1, 3))
        start = float(rng.uniform(-2.0, 0.0))
        ends = start + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 1.0, k - 1))])
        intervals.append([float(e) for e in ends])
    return times, intervals


def test_criterion_4_probability_sanity():
    rng = np.random.default_rng(1357)
    worst_im, out_of_range = 0.0, 0
    for _ in range(20):
        times, intervals = _random_airy_config(rng)
        val = airy_gap_probability(times, intervals, m=100).value
        worst_im = max(worst_im, abs(val.imag))
        out_of_range += not (0.0 < val.real <= 1.0 + 1e-8)
    for _ in range(20):
        times, intervals = _random_pearcey_config(rng)
        val = pearcey_gap_probability(times, intervals, m=80).value
        worst_im = max(worst_im, abs(val.imag))
        out_of_range += not (0.0 < val.real <= 1.0 + 1e-8)
    # interval shrinkage: dets increase monotonically toward 1
    airy_family = [airy_gap_probability([0.0], [[s]], m=100).value.real
                   for s in (-1.0, 0.0, 1.0, 2.0)]
    pearcey_family = [
        pearcey_gap_probability([0.0], [[-c, c]], m=80).value.real
        for c in (1.0, 0.5, 0.25, 0.1)]
    empty = airy_gap_probability([0.0], [[]], m=24).value.real
    monotone = all(b >= a - 1e-10 for fam in (airy_family, pearcey_family)
                   for a, b in zip(fam, fam[1:]))
    monotone &= empty == pytest.approx(1.0, abs=1e-14)
    _report(4, "randomized dets are probabilities; shrinkage is monotone",
            worst_im < 1e-8 and out_of_range == 0 and monotone,
            f"max |Im| = {worst_im:.2e}, out of (0,1] = {out_of_range}, "
            f"monotone = {monotone}")


def test_criterion_5_derivative_identities():
    rep_a = isomono.airy_derivative_report(
        airy.AiryEndpoints([[0.0], [0.0]]), [0.0, 1.0], m=160)
    rep_p1 = isomono.pearcey_derivative_report(
        pearcey.PearceyEndpoints([[-1.0, 1.0]]), [0.0], m=120)
    rep_p2 = isomono.pearcey_derivative_report(
        pearcey.PearceyEndpoints([[-1.0, 1.0], [-1.0, 1.0]]),
        [0.0, 1.0], m=110)
    worst = max(
        max(v["rel_mismatch"] for v in rep_a["a"].values()),
        max(v["rel_mismatch"] for v in rep_a["tau"].values()),
        max(v["rel_mismatch"] for v in rep_p1["a"].values()),
        max(v["rel_mismatch"] for v in rep_p2["a"].values()),
    )
    # observed second-order FD convergence above the quadrature floor
    ep = airy.AiryEndpoints([[0.0], [0.0]])
    g1, _ = isomono.gamma_moments("airy", ep, [0.0, 1.0], m=160)
    formula = -g1[1, 1].real
    mism = [abs(isomono._central(lambda d: airy_gap_probability(
        [0.0, 1.0], ep.shifted(0, 0, d), m=160).log_value.real, h) - formula)
            for h in (8e-3, 4e-3)]
    ratio = mism[0] / mism[1]
    _report(5, "derivative identities (endpoint and time)",
            worst < 1e-4 and ratio > 3.0,
            f"max rel mismatch = {worst:.3e}, FD halving ratio = {ratio:.2f}")


def test_criterion_6_jump_algebra():
    worst_nil, worst_dev, worst_tr, worst_orth = 0.0, 0.0, 0.0, 0.0
    configs = {
        "airy": (airy.AiryEndpoints([[0.0], [0.5, 1.0]]), [0.0, 1.0],
                 contour.build_airy_system([0.0, 1.0], m=60)),
        "pearcey": (pearcey.PearceyEndpoints([[-1.0, 1.0], [-0.5, 0.5]]),
                    [0.0, 1.0],
                    contour.build_pearcey_system([0.0, 1.0], m=60)),
    }
    for process, (ep, t, sys_) in configs.items():
        mod = airy if process == "airy" else pearcey
        for grid in sys_.grids:
            label = grid.component.label
            for lam in grid.nodes:
                g = isomono.jump_matrix(process, lam, label, ep, t)
                n1 = np.linalg.norm(g)
                if n1 > 0:
                    worst_nil = max(worst_nil,
                                    np.linalg.norm(g @ g) / n1 ** 2)
            order = np.argsort(np.abs(grid.nodes - grid.component.apex))
            ref = None
            for lam in grid.nodes[order[:20]]:
                g0 = isomono.conjugated_jump(process, lam, label, ep, t)
                ints = np.round(g0.real)
                assert set(np.unique(ints)) <= {-1.0, 0.0, 1.0}
                worst_dev = max(worst_dev, np.abs(g0 - ints).max())
                if ref is None:
                    ref = g0
                worst_dev = max(worst_dev, np.abs(g0 - ref).max())
                d = isomono.exponent_diagonal(process, lam, ep, t)
                worst_tr = max(worst_tr,
                               abs(d.sum()) / max(1.0, np.abs(d).max()))
            # same-contour orthogonality of the kernel data
            for lam in grid.nodes[order[:10]]:
                for mu in grid.nodes[order[:10]]:
                    f, _ = contour.fg_matrices(mod.exponents, lam, label,
                                               ep, t)
                    _, gv = contour.fg_matrices(mod.exponents, mu, label,
                                                ep, t)
                    prod = f.T @ gv
                    if process == "airy":
                        assert np.all(prod == 0)
                    else:
                        # enforced analytically at coincident points and
                        # on the diagonal blocks
                        worst_orth = max(worst_orth,
                                         np.abs(np.diag(prod)).max())
                        if lam == mu:
                            worst_orth = max(worst_orth, np.abs(prod).max())
    _report(6, "jump algebra (nilpotency, conjugation, traces, orthogonality)",
            worst_nil < 1e-12 and worst_dev < 1e-10
            and worst_tr < 1e-12 and worst_orth < 1e-12,
            f"nil = {worst_nil:.1e}, conj dev = {worst_dev:.1e}, "
            f"trace = {worst_tr:.1e}, orth = {worst_orth:.1e}")


def test_criterion_7_carleman_identities():
    worst_tr, worst_prod = 0.0, 0.0
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        n = 30
        draw = lambda: 0.3 * (rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n))) / n
        mk = lambda g: fredholm.DiscreteOperator.from_kernel_matrix(
            g, np.ones(n))
        m1, m2 = draw(), draw()
        # det2 = det * e^{tr}, cross-checked through the matrix exponential
        d2 = fredholm.det2(mk(m1)).value
        indep = np.linalg.det((np.eye(n) - m1) @ sla.expm(m1))
        worst_tr = max(worst_tr, abs(d2 - indep))
        lhs = fredholm.det2(mk(m1)).value * fredholm.det2(mk(m2)).value
        rhs = fredholm.det2(mk(m1 + m2 - m1 @ m2)).value * \
            np.exp(np.trace(m1 @ m2))
        worst_prod = max(worst_prod, abs(lhs - rhs))
    _report(7, "Carleman det2 identities",
            worst_tr < 1e-10 and worst_prod < 1e-10,
            f"trace identity = {worst_tr:.2e}, product = {worst_prod:.2e}")


def test_criterion_8_avm_pde_residual():
    t0 = time.time()
    rels = []
    for h in (0.04, 0.02):
        grid = pdecheck.build_grid((1.0, 0.2, 0.1), step=h, m=120)
        rels.append(pdecheck.avm_residual(grid)["relative_residual"])
    wall = time.time() - t0
    ratio = rels[0] / rels[1]
    _report(8, "two-time PDE residual (Richardson)",
            ratio >= 3.5 and rels[1] < 1e-3 and wall < 900.0,
            f"ratio = {ratio:.2f}, rel residual = {rels[1]:.2e}, "
            f"wall = {wall:.0f}s")


def test_criterion_9_deformation_and_gauge_invariance():
    pearcey_vals = [
        pearcey_gap_probability([0.0, 1.0], [[-1.0, 1.0], [-1.0, 1.0]],
                                m=120, delta=d).value
        for d in (0.25, 0.75)]
    d_pearcey = abs(pearcey_vals[0] - pearcey_vals[1])
    airy_vals = [
        airy_gap_probability([0.0, 1.0], [[-1.0], [0.5]], m=120,
                             gauge=flag).value
        for flag in (True, False)]
    d_airy = abs(airy_vals[0] - airy_vals[1])
    _report(9, "deformation and gauge invariance",
            d_pearcey < 1e-8 and d_airy < 1e-8,
            f"Pearcey delta shift = {d_pearcey:.2e}, "
            f"Airy gauge on/off = {d_airy:.2e}")
