import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from mfkrig import design
from mfkrig.exceptions import DomainViolation, InvalidConfig


class TestLhs:
    def test_single_point(self):
        d = design.lhs(1, 3, seed=0)
        assert d.points.shape == (1, 3)
        assert np.all((d.points >= 0) & (d.points <= 1))

    def test_stratification_quartiles(self):
        d = design.lhs(4, 1, seed=7)
        strata = np.floor(np.sort(d.points[:, 0]) * 4).astype(int)
        assert list(strata) == [0, 1, 2, 3]

    @pytest.mark.parametrize("n,dim", [(20, 4), (13, 2)])
    def test_stratification_general(self, n, dim):
        d = design.lhs(n, dim, seed=3)
        for j in range(dim):
            strata = np.floor(d.points[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_determinism(self):
        a = design.lhs(20, 4, seed=11)
        b = design.lhs(20, 4, seed=11)
        assert np.array_equal(a.points, b.points)


class TestMaximinLhs:
    def test_two_points_opposite_strata(self):
        d = design.maximin_lhs(2, 1, seed=1)
        assert pdist(d.points).min() >= 0.5

    def test_beats_every_candidate(self):
        seed = 9
        best = design.maximin_lhs(12, 3, seed=seed)
        dists = [
            pdist(design.lhs(12, 3, int(s)).points).min()
            for s in np.random.SeedSequence(seed).generate_state(design.MAXIMIN_RESTARTS)
        ]
        assert pdist(best.points).min() == max(dists)

    def test_stratification_preserved(self):
        d = design.maximin_lhs(15, 2, seed=2)
        for j in range(2):
            strata = np.floor(d.points[:, j] * 15).astype(int)
            assert sorted(strata) == list(range(15))


class TestTestFunctions:
    def test_analytic1d_lf_exact(self):
        val = design.eval_testfn(design.ANALYTIC_1D, "lf", np.array([[0.25]]))
        assert np.isclose(val[0], 1.0)

    def test_analytic1d_hf_direct_formula(self):
        val = design.eval_testfn(design.ANALYTIC_1D, "hf", np.array([[0.25]]))
        expected = (0.0625 - np.sqrt(2.0)) * np.sin(1.5 * np.pi)
        assert np.isclose(val[0], expected)
        assert np.isclose(val[0], 1.35171, atol=1e-5)

    def test_park_hf_upper_corner(self):
        val = design.eval_testfn(design.PARK_4D, "hf", np.ones((1, 4)))
        assert np.isclose(val[0], 25.59, atol=0.005)

    def test_park_lf_direct_formula(self):
        val = design.eval_testfn(design.PARK_4D, "lf", np.array([[0.5, 0, 0, 0]]))
        expected = (1 + np.sin(0.5) / 10) * (0.5 * np.e) - 1.0 + 0.5
        assert np.isclose(val[0], expected)
        assert np.isclose(val[0], 0.9243, atol=1e-4)

    def test_park_ranges_on_large_lhs(self):
        pts = design.lhs(1_000_000, 4, seed=0).points
        hf = design.eval_testfn(design.PARK_4D, "hf", pts)
        lf = design.eval_testfn(design.PARK_4D, "lf", pts)
        assert hf.min() >= -1e-6 and hf.max() <= 25.59 + 1e-6
        assert lf.min() >= 0.5 - 1e-6 and lf.max() <= 28.25 + 1e-6

    def test_determinism(self):
        x = design.lhs(50, 4, seed=4).points
        a = design.eval_testfn(design.PARK_4D, "hf", x)
        b = design.eval_testfn(design.PARK_4D, "hf", x)
        assert np.array_equal(a, b)

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            design.eval_testfn(design.ANALYTIC_1D, "lf", np.array([[2.5]]))
        with pytest.raises(DomainViolation):
            design.eval_testfn(design.PARK_4D, "hf", np.array([[0.5, 0.5, 0.5]]))


class TestAddNoise:
    def test_zero_variance_identity(self):
        y = np.arange(5.0)
        out = design.add_noise(y, 0.0, seed=1)
        assert np.array_equal(out, y)

    def test_sample_variance(self):
        y = np.zeros(100_000)
        out = design.add_noise(y, 1.0, seed=2)
        assert 0.98 <= np.var(out) <= 1.02

    def test_determinism(self):
        y = np.linspace(0, 1, 10)
        a = design.add_noise(y, 0.5, seed=3)
        b = design.add_noise(y, 0.5, seed=3)
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidConfig):
            design.add_noise(np.zeros(3), -1.0, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: design.lhs(0, 2, seed=0),
        lambda: design.lhs(3, 0, seed=0),
        lambda: design.maximin_lhs(1, 2),
        lambda: design.get_pair("branin"),
        lambda: design.eval_testfn(design.ANALYTIC_1D, "mf", np.zeros((2, 1))),
        lambda: design.lhs(True, 2, seed=0),
        lambda: design.lhs(3, 2, seed=1.5),
        lambda: design.lhs(3, 2, seed=-1),
        lambda: design.maximin_lhs(5.5, 2),
        lambda: design.maximin_lhs(5, 2, seed=-1),
        lambda: design.add_noise([1, 2], 1.0, -3),
        lambda: design.add_noise([1, 2], "a", 0),
        lambda: design.add_noise([1, 2], math.nan, 0),
        lambda: design.add_noise([1, 2], math.inf, 0),
        lambda: design.add_noise(["a"], 1.0, 0),
        lambda: design.add_noise([[1], [2, 3]], 1.0, 0),
        lambda: design.scale_to_domain(design.ANALYTIC_1D, "a"),
    ],
    ids=["lhs-n", "lhs-d", "maximin-n", "pair", "level", "lhs-bool-n", "lhs-fractional-seed",
         "lhs-negative-seed", "maximin-fractional-n", "maximin-negative-seed",
         "noise-negative-seed", "noise-string-variance", "noise-nan-variance",
         "noise-inf-variance", "noise-string-values", "noise-ragged-values",
         "scale-string-points"],
)
def test_bad_arguments_raise_invalid_config(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfig):
            call()
