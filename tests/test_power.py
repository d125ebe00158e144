"""Tests for the power lower bound.

Oracles: closed forms for exchangeable and single-cluster cases
(P(min treated > max control) is q1!q0!/q! under exchangeability,
Phi(delta/sqrt(2)) for one-vs-one), and a direct Monte-Carlo simulation
of the min-exceeds-max event.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import norm

from clusterperm.errors import DomainError, ShapeError
from clusterperm.power import PowerSpec, power_lower_bound


def _mc_oracle(spec: PowerSpec, n: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate and s.e. of P(min treated > max control)."""
    gen = np.random.default_rng(seed)
    t = spec.delta + gen.standard_normal((n, spec.q1)) * spec.sigmas_treated
    c = gen.standard_normal((n, spec.q0)) * spec.sigmas_control
    p = float((t.min(axis=1) > c.max(axis=1)).mean())
    return p, math.sqrt(max(p * (1 - p), 1e-12) / n)


# ===========================================================================
# PowerSpec
# ===========================================================================

class TestPowerSpec:
    def test_accepts_lists(self):
        s = PowerSpec(1.0, [1.0, 2.0], [0.5])
        assert s.q1 == 2 and s.q0 == 1

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            PowerSpec(0.0, (1.0, 0.0), (1.0,))
        with pytest.raises(DomainError):
            PowerSpec(0.0, (1.0,), (-2.0,))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            PowerSpec(0.0, (), (1.0,))

    def test_rejects_nonfinite_delta(self):
        with pytest.raises(DomainError):
            PowerSpec(math.inf, (1.0,), (1.0,))


# ===========================================================================
# the bound itself
# ===========================================================================

class TestPowerLowerBound:
    def test_exchangeable_four_four(self):
        s = PowerSpec(0.0, (1.0,) * 4, (1.0,) * 4)
        assert power_lower_bound(s) == pytest.approx(1 / 70, abs=1e-6)

    def test_exchangeable_two_three(self):
        # 2!3!/5! = 1/10
        s = PowerSpec(0.0, (1.0,) * 2, (1.0,) * 3)
        assert power_lower_bound(s) == pytest.approx(0.1, abs=1e-6)

    def test_one_vs_one_closed_form(self):
        s = PowerSpec(2.0, (1.0,), (1.0,))
        expect = norm.cdf(2.0 / math.sqrt(2.0))
        assert power_lower_bound(s) == pytest.approx(expect, abs=1e-6)

    def test_large_delta_saturates(self):
        s = PowerSpec(50.0, (1.0,) * 4, (1.0,) * 4)
        assert power_lower_bound(s) >= 0.9999

    def test_in_unit_interval(self):
        gen = np.random.default_rng(17)
        for _ in range(10):
            s = PowerSpec(float(gen.normal()),
                          tuple(gen.uniform(0.1, 5, size=3)),
                          tuple(gen.uniform(0.1, 5, size=2)))
            assert 0.0 <= power_lower_bound(s) <= 1.0

    def test_monte_carlo_agreement(self):
        cases = [
            PowerSpec(0.7, (0.4, 2.0, 1.1), (0.8, 0.5)),
            PowerSpec(0.0, (1.0, 3.0), (0.2, 0.2, 2.5)),
            PowerSpec(1.5, (1.0, 1.0, 1.0, 1.0), (1.0, 1.0)),
            # sigmas spanning 1e-2 to 1e2, far-out and negative effects
            PowerSpec(50.0, (0.01, 1.0, 100.0), (100.0, 0.1, 0.01)),
            PowerSpec(-5.0, (100.0, 10.0), (0.01, 1.0, 30.0)),
        ]
        for i, s in enumerate(cases):
            mc, se = _mc_oracle(s, 400_000, 900 + i)
            assert abs(power_lower_bound(s) - mc) <= 3 * se + 1e-9

    def test_scale_invariance(self):
        s = PowerSpec(1.3, (0.5, 2.0), (1.0, 0.7, 3.0))
        base = power_lower_bound(s)
        for c in (0.25, 7.0):
            scaled = PowerSpec(1.3 * c,
                               tuple(x * c for x in s.sigmas_treated),
                               tuple(x * c for x in s.sigmas_control))
            assert abs(power_lower_bound(scaled) - base) <= 1e-9

    def test_monotone_in_delta(self):
        sig_t, sig_c = (1.0, 2.0, 0.5), (1.5, 1.0)
        vals = [power_lower_bound(PowerSpec(d, sig_t, sig_c))
                for d in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
