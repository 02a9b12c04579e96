"""The estimators' stack reductions held to the calls they replace, bit for bit.

``_mean_stack`` sums the rows of a C-contiguous stack with d >= 2 through
``einsum`` and ``_median_stack`` selects along contiguous (T, d, n) lanes;
each must return exactly the bits of ``stack.mean(axis=1)`` and of
``np.partition(stack, q, axis=1)[:, q, :]``. Every comparison is made on the
int64 views, so a changed summation order or a flipped zero sign shows.
"""

import warnings

import numpy as np
import pytest

from senslab import mean_estimator
from senslab.estimators import _mean_stack, _median_stack

TS = (1, 3, 10, 256)
NS = (1, 2, 9, 128, 129, 4001)
DS = (1, 2, 3, 16, 17, 65)
# Largest stack drawn, in elements (32 MiB): leaves out T = 256, n = 4001 at
# d >= 16 only.
MAX_ELEMENTS = 4_000_000


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def mixed_stack(gen: np.random.Generator, shape) -> np.ndarray:
    # Signed entries whose magnitudes span 1e-8 .. 1e8, so that any change in
    # the order of the additions moves the last bits.
    return gen.standard_normal(shape) * 10.0 ** gen.uniform(-8.0, 8.0, shape)


def tied_stack(gen: np.random.Generator, shape) -> np.ndarray:
    # A third of the entries are +0.0 or -0.0 and the rest take few values,
    # so most ranks are ties and the median often sits on a signed zero.
    x = gen.integers(-2, 3, size=shape).astype(np.float64)
    zeros = gen.random(shape) < 1 / 3
    x[zeros] = np.where(gen.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return x


def shapes(t: int, ns=NS):
    return [(t, n, d) for n in ns for d in DS if t * n * d <= MAX_ELEMENTS]


def median_reference(stack: np.ndarray) -> np.ndarray:
    q = (stack.shape[1] - 1) // 2
    return np.partition(stack, q, axis=1)[:, q, :]


def layouts(stack: np.ndarray) -> dict:
    # The stack itself and three views of it that are not C-contiguous once
    # T, n and d exceed 1: F order, every other trial, and a transposed
    # (n, T, d) buffer.
    return {
        "c": stack,
        "fortran": np.asfortranarray(stack),
        "t-sliced": np.concatenate([stack, stack])[::2],
        "transposed-buffer": np.ascontiguousarray(stack.transpose(1, 0, 2)).transpose(1, 0, 2),
    }


@pytest.mark.parametrize("t", TS)
def test_mean_stack_is_the_mean_bit_for_bit(t):
    gen = np.random.default_rng(t)
    for shape in shapes(t):
        stack = mixed_stack(gen, shape)
        for layout, s in layouts(stack).items():
            assert np.array_equal(bits(_mean_stack(s)), bits(s.mean(axis=1))), (shape, layout)


def test_mean_stack_takes_einsum_only_for_c_contiguous_d_of_two_or_more(monkeypatch):
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(args[1].shape)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    gen = np.random.default_rng(7)
    for d in (1, 2):
        for layout, s in layouts(mixed_stack(gen, (4, 9, d))).items():
            calls.clear()
            _mean_stack(s)
            assert len(calls) == (d >= 2 and s.flags.c_contiguous), (d, layout)
            assert d == 1 or s.flags.c_contiguous == (layout == "c")


def test_d_equal_1_keeps_the_pairwise_mean():
    # At d = 1 each dataset's rows are contiguous and numpy's mean sums them
    # pairwise; einsum's sequential sum differs in the last bit on most such
    # shapes, this one among them, so d = 1 must keep the mean.
    stack = mixed_stack(np.random.default_rng(11), (10, 129, 1))
    sequential = np.einsum("tij->tj", stack)
    sequential /= stack.shape[1]
    assert not np.array_equal(bits(sequential), bits(stack.mean(axis=1)))
    assert np.array_equal(bits(_mean_stack(stack)), bits(stack.mean(axis=1)))


def test_an_overflowing_mean_still_warns():
    # einsum overflows without a warning; the mean's overflow RuntimeWarning
    # must still reach a caller that turns it into an error.
    stack = np.full((1, 4, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            _mean_stack(stack)
        with pytest.raises(RuntimeWarning, match="overflow"):
            mean_estimator(2).on_stack(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.array_equal(bits(_mean_stack(stack)), bits(stack.mean(axis=1)))
        assert np.isinf(_mean_stack(stack)).all()


@pytest.mark.parametrize("t", TS)
def test_median_lanes_are_the_partition_bit_for_bit(t):
    # n = 1, 2 and even n included: the lower median of an even count.
    gen = np.random.default_rng(100 + t)
    for shape in shapes(t, NS + (10,)):
        for stack in (mixed_stack(gen, shape), tied_stack(gen, shape)):
            for layout, s in layouts(stack).items():
                got = _median_stack(s)
                assert got.shape == shape[::2], (shape, layout)
                assert np.array_equal(bits(got), bits(median_reference(s))), (shape, layout)


@pytest.mark.parametrize("d", [1, 3])
def test_median_lanes_are_compact_and_own_their_data(d):
    stack = tied_stack(np.random.default_rng(5), (10, 101, d))
    got = _median_stack(stack)
    assert got.flags.c_contiguous and got.base is None
