"""Tests of the independent Tracy-Widom oracle."""

import math

import numpy as np
import pytest

from gapdet import tracy_widom as tw

# standard special-function table values (DLMF / Abramowitz-Stegun)
AI_TABLE = {
    0.0: 0.3550280538878172,
    1.0: 0.1352924163128814,
    -1.0: 0.5355608832923521,
    2.0: 0.03492413042327438,
    5.0: 1.0834442813607441e-4,
    10.0: 1.1047532552898687e-10,
}


@pytest.mark.parametrize("x,expected", sorted(AI_TABLE.items()))
def test_airy_ai_against_table(x, expected):
    assert tw.airy_ai(x) == pytest.approx(expected, rel=1e-10)


def test_airy_ai_closed_form_at_zero():
    exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert tw.airy_ai(0.0) == pytest.approx(exact, rel=1e-14)


def test_kernel_matrix_symmetric_positive():
    x = np.linspace(-1.0, 3.0, 12)
    k = tw.airy_kernel_matrix(x)
    assert np.allclose(k, k.T)
    assert np.all(np.linalg.eigvalsh(k) > -1e-12)


def test_gap_probability_published_value_and_convergence():
    # the 4-decimal published value of F2(0)
    val = tw.gap_probability(0.0)
    assert val == pytest.approx(0.9694, abs=5e-5)
    finer = tw.gap_probability(0.0, t_cut=20.0, m_x=280, m_t=320)
    assert abs(val - finer) < 1e-10


def test_gap_probability_monotone_in_s():
    vals = [tw.gap_probability(s) for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999 and vals[0] < 0.5
