import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from mfkrig.exceptions import ConstantTruth, DimensionMismatch, DomainViolation, InvalidConfig
from mfkrig.metrics import DEFAULT_ALPHA_GRID, coverage_report, q2


class TestQ2:
    def test_perfect_prediction(self):
        y = np.array([0.0, 1.0, 2.0, 5.0])
        assert q2(y, y) == 1.0

    def test_constant_baseline(self):
        y = np.array([0.0, 1.0, 2.0])
        assert q2(y, np.full(3, y.mean())) == 0.0

    def test_direct_arithmetic(self):
        assert np.isclose(q2([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]), 0.5)

    def test_affine_invariance(self, rng):
        y = rng.normal(size=50)
        m = y + rng.normal(scale=0.3, size=50)
        a, b = 2.5, -7.0
        assert np.isclose(q2(y, m), q2(a * y + b, a * m + b), atol=1e-12)

    def test_constant_truth_raises(self):
        with pytest.raises(ConstantTruth):
            q2(np.ones(5), np.zeros(5))

    @pytest.mark.parametrize("pred", [np.zeros(2), np.zeros(4)], ids=["short", "long"])
    def test_mismatched_lengths_raise(self, pred):
        with pytest.raises(DimensionMismatch):
            q2(np.arange(3.0), pred)

    def test_never_exceeds_one(self, rng):
        y = rng.normal(size=30)
        m = rng.normal(size=30)
        assert q2(y, m) <= 1.0


class TestCoverageReport:
    def test_huge_sd_full_coverage(self, rng):
        n = 200
        y = rng.normal(size=n)
        m = y + rng.normal(scale=0.1, size=n)
        rep = coverage_report(y, y, m, np.full(n, 1e6), 0.0)
        assert np.all(rep.cicp == 1.0)
        # IAE of constant coverage 1 over alpha: integral of (1 - alpha).
        grid = rep.alpha_grid
        expected = np.trapezoid(1.0 - grid, grid)
        assert np.isclose(rep.iae_ci, expected, atol=1e-12)
        assert 0.45 < rep.iae_ci < 0.5

    def test_monte_carlo_calibrated(self):
        rng = np.random.default_rng(7)
        n = 100_000
        m = rng.normal(size=n)
        s = rng.uniform(0.5, 2.0, size=n)
        y = m + s * rng.normal(size=n)
        noise_var = 0.25
        z = y + np.sqrt(noise_var) * rng.normal(size=n)
        rep = coverage_report(y, z, m, s, noise_var)
        assert rep.iae_ci < 0.01
        assert rep.iae_pi < 0.01

    def test_single_level_half_covered(self):
        # Half the points exactly at the interval edge minus epsilon, half far out.
        n = 100
        y = np.concatenate([np.zeros(n // 2), np.full(n // 2, 100.0)])
        m = np.zeros(n)
        s = np.ones(n)
        rep = coverage_report(y, y, m, s, 0.0)
        assert rep.at_level(0.5, "cicp") == 0.5

    def test_coverage_monotone_in_alpha(self, rng):
        n = 500
        m = rng.normal(size=n)
        s = rng.uniform(0.2, 1.5, size=n)
        y = m + s * rng.normal(size=n)
        z = y + 0.3 * rng.normal(size=n)
        rep = coverage_report(y, z, m, s, 0.09)
        assert np.all(np.diff(rep.cicp) >= 0)
        assert np.all(np.diff(rep.picp) >= 0)

    def test_widths(self):
        n = 10
        s = np.full(n, 2.0)
        y = np.arange(float(n))
        rep = coverage_report(y, y, y, s, 5.0)
        phi = ndtri(0.975)
        assert np.isclose(rep.at_level(0.95, "ciw"), 2 * phi * 2.0, atol=1e-12)
        assert np.isclose(rep.at_level(0.95, "piw"), 2 * phi * 3.0, atol=1e-12)
        assert np.all(rep.piw >= rep.ciw)

    def test_closed_interval_boundary_counts(self):
        # |y - m| exactly equals phi * s: the point must count as covered.
        phi = ndtri((1 + 0.5) / 2)
        y = np.array([phi, -phi])
        rep = coverage_report(y, y, np.zeros(2), np.ones(2), 0.0)
        assert rep.at_level(0.5, "cicp") == 1.0

    def test_default_grid(self):
        assert len(DEFAULT_ALPHA_GRID) == 99
        assert DEFAULT_ALPHA_GRID[0] == 0.01
        assert DEFAULT_ALPHA_GRID[-1] == 0.99

    def test_at_level_lookup(self, rng):
        n = 50
        y = rng.normal(size=n)
        rep = coverage_report(y, y, y, np.ones(n), 0.0)
        assert rep.at_level(0.9, "cicp") == rep.cicp[89]
        with pytest.raises(DomainViolation):
            rep.at_level(0.905)

    def test_iae_bounds(self, rng):
        n = 300
        m = rng.normal(size=n)
        s = rng.uniform(0.1, 3.0, size=n)
        y = m + rng.normal(size=n)
        rep = coverage_report(y, y, m, s, 0.0)
        assert 0.0 <= rep.iae_ci <= 0.5
        assert 0.0 <= rep.iae_pi <= 0.5

    @pytest.mark.parametrize("sd, noise", [(-1.0, 0.0), (1.0, -1e-3)])
    def test_negative_spread_raises(self, sd, noise):
        y = np.arange(4.0)
        with pytest.raises(DomainViolation, match="non-negative"):
            coverage_report(y, y, y, np.full(4, sd), noise)


Y4 = np.arange(4.0)


def _report():
    return coverage_report(Y4, Y4, Y4, np.ones(4), 0.0)

# Malformed input -> (a call that reads it, the typed error it must end in, a word
# the message must hold: the argument at fault).
BAD_INPUTS = {
    "q2 empty": (lambda: q2([], []), DimensionMismatch, "y_true"),
    "q2 length 1": (lambda: q2([1.0], [1.0]), DimensionMismatch, "y_true"),
    "q2 nan truth": (lambda: q2([0.0, 1.0, math.nan], [0.0, 1.0, 2.0]), DomainViolation,
                     "y_true"),
    "q2 inf prediction": (lambda: q2(Y4, [0.0, 1.0, math.inf, 3.0]), DomainViolation,
                          "mean_pred"),
    "report empty": (lambda: coverage_report([], [], [], [], 0.0), DimensionMismatch,
                     "latent_sd"),
    "report length 1": (lambda: coverage_report([1.0], [1.0], [1.0], [1.0], 0.0),
                        DimensionMismatch, "latent_sd"),
    "report nan truth": (lambda: coverage_report([math.nan, 1.0, 2.0, 3.0], Y4, Y4,
                                                 np.ones(4), 0.0), DomainViolation, "y_true"),
    "report -inf draw": (lambda: coverage_report(Y4, [0.0, -math.inf, 2.0, 3.0], Y4,
                                                 np.ones(4), 0.0), DomainViolation, "z_noisy"),
    "report nan prediction": (lambda: coverage_report(Y4, Y4, [0.0, math.nan, 2.0, 3.0],
                                                      np.ones(4), 0.0), DomainViolation,
                              "mean_pred"),
    "report inf sd": (lambda: coverage_report(Y4, Y4, Y4, [1.0, 1.0, math.inf, 1.0], 0.0),
                      DomainViolation, "latent_sd"),
    "report string noise variance": (lambda: coverage_report(Y4, Y4, Y4, np.ones(4), "a"),
                                     InvalidConfig, "noise variance"),
    "report nan noise variance": (lambda: coverage_report(Y4, Y4, Y4, np.ones(4), math.nan),
                                  InvalidConfig, "noise variance"),
    "level of an unknown table": (lambda: _report().at_level(0.9, "cicp_90"), InvalidConfig,
                                  "cicp, picp, ciw, piw"),
    "level string": (lambda: _report().at_level("a"), InvalidConfig, "level"),
    "level of an array of names": (lambda: _report().at_level(0.9, np.array(["cicp"])),
                                   InvalidConfig, "cicp, picp, ciw, piw"),
    "level nan": (lambda: _report().at_level(math.nan, "piw"), InvalidConfig, "level"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_raise_typed_errors_before_any_warning(case):
    call, error, word = BAD_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=word):
            call()
