import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senslab import (
    BernoulliModel,
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    compute_k,
    hamming_distance,
)
from senslab.core import _count


class TestComputeK:
    def test_examples(self):
        assert compute_k(0.1, 100) == 10
        assert compute_k(0.29, 7) == 2
        assert compute_k(1 / 50, 50) == 1  # at least one contaminated point
        assert compute_k(0.1, 400.0) == 40  # an integral float is an integer

    def test_floor_not_round(self):
        assert compute_k(0.99, 10) == 9
        assert compute_k(0.999999, 10) == 9

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_eta_outside_open_interval(self, eta):
        with pytest.raises(ValueError):
            compute_k(eta, 100)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            compute_k(0.5, 0)

    @pytest.mark.parametrize("n", [400.7, 1.5])
    def test_rejects_non_integral_n(self, n):
        # Truncating n would size the budget and the sample for rows that a
        # report still labels n.
        message = rf"^n must be an integer >= 1, got {n}$"
        with pytest.raises(ValueError, match=message):
            compute_k(0.1, n)
        for model in (GaussianModel(np.zeros(1)), BernoulliModel(0.5)):
            with pytest.raises(ValueError, match=message):
                model.sample(n, RngStream(0, 0))

    @given(eta=st.floats(min_value=1e-9, max_value=1 - 1e-9, allow_nan=False),
           n=st.integers(min_value=1, max_value=10_000))
    def test_exact_floor_property(self, eta, n):
        k = compute_k(eta, n)
        product = Fraction(eta) * n
        assert k <= product < k + 1


def fraction_k(eta, n) -> int:
    """The count rule in ``Fraction`` arithmetic, with compute_k's checks in its order."""
    if not (0.0 < float(eta) < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    return math.floor(Fraction(float(eta)) * _count("n", n))


# k / n on a boundary (0.25 * 4, 0.5 * 2) and a rounding away from one
# (0.1 lies above 1/10, 0.3 and 0.7 below 3/10 and 7/10), the smallest and
# largest etas, their neighbours, and numpy and integral-float etas.
ORACLE_ETAS = [0.1, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.7, 0.99, 1 / 50, 0.29,
               np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(0.25, 0.0),
               1 - 2 ** -53, 5e-324, 2 ** -1074 * 3, 2 ** -52, np.float64(0.3), np.float32(0.1)]
ORACLE_NS = [1, 2, 3, 4, 7, 10, 50, 100, 1000, 10 ** 6, 2 ** 31 - 1, 2 ** 53, 2 ** 53 + 1,
             2 ** 62, np.int64(2 ** 62), 400.0]


class TestComputeKOracle:
    def test_matches_the_fraction_floor(self):
        for eta in ORACLE_ETAS:
            for n in ORACLE_NS:
                k = compute_k(eta, n)
                assert type(k) is int and k == fraction_k(eta, n), (eta, n)

    def test_a_boundary_is_floored_exactly(self):
        assert compute_k(0.25, 4) == 1 and compute_k(np.nextafter(0.25, 0.0), 4) == 0
        assert compute_k(0.1, 10) == 1 and compute_k(0.3, 10) == 2 and compute_k(0.7, 10) == 6
        assert compute_k(1 - 2 ** -53, 2 ** 62) == 2 ** 62 - 2 ** 9
        assert compute_k(5e-324, 2 ** 62) == 0

    @pytest.mark.parametrize("eta, n", [
        (0.0, 10), (1.0, 10), (-0.1, 10), (1.5, 10), (float("nan"), 10), (float("inf"), 10),
        (-0.0, 10), (1.5, 0), (0.5, 0), (0.5, -3), (0.5, 1.5), (0.5, 400.7), (0.5, "7"),
        (0.5, None), (0.5, True - 1),
    ])
    def test_raises_the_fraction_rules_errors(self, eta, n):
        with pytest.raises(ValueError) as want:
            fraction_k(eta, n)
        with pytest.raises(ValueError) as got:
            compute_k(eta, n)
        assert str(got.value) == str(want.value)


class TestCorruptionBudget:
    def test_from_eta(self):
        b = CorruptionBudget.from_eta(0.1, 400)
        assert (b.eta, b.n, b.k) == (0.1, 400, 40)

    def test_rejects_inconsistent_k(self):
        with pytest.raises(ValueError):
            CorruptionBudget(eta=0.1, n=400, k=41)

    def test_require_nonempty(self):
        CorruptionBudget.from_eta(0.5, 10).require_nonempty()
        with pytest.raises(ValueError):
            CorruptionBudget.from_eta(0.01, 10).require_nonempty()


class TestDataset:
    def test_shape_and_accessors(self):
        x = Dataset(np.arange(6.0).reshape(3, 2))
        assert (x.n, x.d) == (3, 2)

    def test_one_dimensional_input_is_scalar_data(self):
        x = Dataset(np.array([1.0, 2.0, 3.0]))
        assert (x.n, x.d) == (3, 1)

    def test_immutable(self):
        x = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            x.samples[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.array([[np.nan]]), np.array([[np.inf, 0.0]])])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            Dataset(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)))

    def test_replace_rows_keeps_others_bitwise(self):
        x = Dataset(np.arange(8.0).reshape(4, 2))
        y = x.replace_rows([1], [[100.0, 200.0]])
        assert np.array_equal(y.samples[[0, 2, 3]], x.samples[[0, 2, 3]])
        assert hamming_distance(x, y) == 1


class TestHammingDistance:
    def test_identical_is_zero(self):
        x = Dataset(np.random.default_rng(0).normal(size=(5, 3)))
        assert hamming_distance(x, x) == 0

    def test_counts_changed_rows(self):
        x = Dataset(np.zeros((10, 2)))
        y = x.replace_rows([2, 7], np.ones((2, 2)))
        assert hamming_distance(x, y) == 2

    def test_every_row_perturbed(self):
        x = Dataset(np.zeros((5, 1)))
        y = Dataset(np.full((5, 1), 1e-12))
        assert hamming_distance(x, y) == 5

    def test_shape_mismatch_is_error(self):
        with pytest.raises(ValueError):
            hamming_distance(Dataset(np.zeros((3, 1))), Dataset(np.zeros((4, 1))))

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_metric_on_random_triples(self, seed):
        gen = np.random.default_rng(seed)
        vals = gen.integers(0, 3, size=(3, 6, 2)).astype(float)
        x, y, z = (Dataset(v) for v in vals)
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert (hamming_distance(x, y) == 0) == np.array_equal(x.samples, y.samples)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


class TestRngStream:
    def test_same_key_is_bitwise_identical(self):
        a = RngStream(123, 45).generator().random(100)
        b = RngStream(123, 45).generator().random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 1).generator().random(100)
        b = RngStream(123, 2).generator().random(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2 ** 64, 0), (0, -2)])
    def test_rejects_out_of_range_keys(self, seed, stream):
        with pytest.raises(ValueError):
            RngStream(seed, stream)


class TestGaussianSampler:
    def test_mean_within_clt_bound(self):
        n = 100_000
        x = GaussianModel(np.zeros(1)).sample(n, RngStream(1, 0))
        assert abs(float(x.samples.mean())) < 4 / math.sqrt(n)

    def test_per_coordinate_moments_d4(self):
        n = 100_000
        model = GaussianModel(3.0 * np.ones(4))
        x = model.sample(n, RngStream(2, 0))
        var = x.samples.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.0) < 0.05)
        # 5-sigma Monte Carlo tolerance on each coordinate mean and variance
        assert np.all(np.abs(x.samples.mean(axis=0) - 3.0) < 5 / math.sqrt(n))
        assert np.all(np.abs(var - 1.0) < 5 * math.sqrt(2 / n))

    def test_determinism_contract(self):
        model = GaussianModel(np.zeros(3))
        a = model.sample(50, RngStream(9, 7))
        b = model.sample(50, RngStream(9, 7))
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GaussianModel(np.zeros(1)).sample(0, RngStream(0, 0))
