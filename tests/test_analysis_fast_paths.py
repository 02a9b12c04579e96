"""Fast paths of ``analysis`` held to their references.

``efron_stein_check`` takes the leave-one-out medians of an estimator that
computes ``_median_stack`` from three order statistics per dataset, and
forms their gaps a block of rows at a time; every other estimator is
evaluated on the n replaced stacks. ``hypergeom_mgf_check`` marks each
random subset from one partition per chunk. Every Monte Carlo
checker but the likelihood-ratio identity draws and evaluates its trials
chunk by chunk, and ``_log_esp_k`` updates a whole column of its DP in one
step. ``binomial_point_mass`` reads log-gamma at integer arguments through a
memo. Each must give the bytes of the code it replaces: the pins below were
computed before it existed.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from senslab import (GaussianModel, RngStream, binomial_point_mass, chi2_localshift_mc,
                     chi2_products_mc, cramer_rao_check, efron_stein_check, hcr_check,
                     hypergeom_mgf_check, mean_estimator, median_estimator,
                     uniform_spacing_check)
from senslab import analysis
from senslab.estimators import Estimator, _median_stack


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def generic_median(d: int) -> Estimator:
    # Computes the median, but its stack_fn is not _median_stack itself, so
    # efron_stein_check evaluates it on every replaced stack.
    return Estimator(name="median", output_dim=d, stack_fn=lambda s: _median_stack(s))


@pytest.mark.parametrize("d, n", [(d, n) for d in (1, 3) for n in (1, 2, 3, 4, 10, 101)])
def test_median_path_matches_the_replaced_stacks(d, n):
    model = GaussianModel(np.full(d, 0.25))
    for seed in (0, 1, 2):
        fast = efron_stein_check(median_estimator(d), model, n, 1000, RngStream(seed, n))
        slow = efron_stein_check(generic_median(d), model, n, 1000, RngStream(seed, n))
        assert repr(fast) == repr(slow)


def test_only_the_median_stack_takes_the_order_statistic_path(monkeypatch):
    calls = []
    on_stack = Estimator.on_stack

    def counted(self, stack):
        calls.append(stack.shape)
        return on_stack(self, stack)

    monkeypatch.setattr(Estimator, "on_stack", counted)
    model = GaussianModel(np.zeros(1))
    efron_stein_check(median_estimator(1), model, 10, 1000, RngStream(3, 0))
    assert len(calls) == 0  # f(X) is s_q of the same sort
    efron_stein_check(generic_median(1), model, 10, 1000, RngStream(3, 0))
    assert len(calls) == 11


def median_replaced_rows(x: np.ndarray, fresh: np.ndarray):
    # The reference for analysis._median_replaced and the gaps formed from
    # it: the order-statistic rule applied one row at a time, as it was first
    # written. Returns s_q and the list of (T, d) medians with row i replaced.
    n = x.shape[1]
    q = (n - 1) // 2
    s = np.sort(x, axis=1)
    mid = s[:, q].copy()
    below = s[:, q - 1].copy() if q >= 1 else np.full_like(mid, -np.inf)
    above = s[:, q + 1].copy() if q + 1 < n else np.full_like(mid, np.inf)
    below_bits, above_bits = below.view(np.int64), above.view(np.int64)
    to_mid_lo = below_bits ^ mid.view(np.int64)
    to_mid_hi = above_bits ^ mid.view(np.int64)
    rows = []
    for i in range(n):
        xi = x[:, i]
        lo = below_bits ^ (to_mid_lo & -(xi < mid).astype(np.int64))
        hi = above_bits ^ (to_mid_hi & -(xi > mid).astype(np.int64))
        rows.append(np.clip(fresh[:, i], lo.view(np.float64), hi.view(np.float64)))
    return mid, rows


def assert_gaps_match_the_rows(x: np.ndarray, fresh: np.ndarray):
    # _leave_out_gaps on the median path, one-row blocks, against the reference.
    want_fx, want_rows = median_replaced_rows(x, fresh)
    rows = [(i, i + 1) for i in range(x.shape[1])]
    fx, gaps = analysis._leave_out_gaps(median_estimator(x.shape[2]), x, fresh, rows)
    gaps = list(gaps)
    assert fx.tobytes() == want_fx.tobytes()
    assert len(gaps) == x.shape[1]
    for i, (got, row) in enumerate(zip(gaps, want_rows)):
        want = ((want_fx - row) ** 2).sum(axis=1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), i


def tied_stacks(n: int, d: int, trials: int = 300):
    # Values in {0, 1, 2}: most ranks are ties, and the fresh value often
    # equals the removed one or the median.
    gen = np.random.default_rng(1000 * n + d)
    x = gen.integers(0, 3, size=(trials, n, d)).astype(np.float64)
    fresh = gen.integers(0, 3, size=(trials, n, d)).astype(np.float64)
    return x, fresh


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 24, 25])
@pytest.mark.parametrize("d", [1, 2])
def test_leave_one_out_medians_on_tied_stacks(n, d):
    x, fresh = tied_stacks(n, d)
    q = (n - 1) // 2
    fx, blocks = analysis._median_replaced(x, fresh)
    assert fx.tobytes() == np.partition(x, q, axis=1)[:, q].tobytes()
    got = [row for block in blocks for row in block.transpose(1, 0, 2)]
    assert len(got) == n
    _, reference = median_replaced_rows(x, fresh)
    for i in range(n):
        replaced = x.copy()
        replaced[:, i] = fresh[:, i]
        want = np.partition(replaced, q, axis=1)[:, q]
        assert got[i].shape == want.shape and got[i].tobytes() == want.tobytes(), i
        assert got[i].tobytes() == reference[i].tobytes(), i
    assert_gaps_match_the_rows(x, fresh)


@pytest.mark.parametrize("d", [1, 2])
def test_leave_one_out_gaps_across_a_row_block_boundary(d):
    # n is one block of rows plus one: the last row is a block of its own.
    trials = 300
    rows = analysis._ES_BLOCK_BYTES // (trials * d * 8)
    assert rows > 1
    x, fresh = tied_stacks(rows + 1, d, trials)
    assert_gaps_match_the_rows(x, fresh)
    gen = np.random.default_rng(d)
    x, fresh = (gen.standard_normal((trials, rows + 1, d)) for _ in range(2))
    assert_gaps_match_the_rows(x, fresh)


@pytest.mark.parametrize("budget", [1, 300 * 8 * 3, 300 * 8 * 7 + 1, 1 << 23])
@pytest.mark.parametrize("d", [1, 2])
def test_row_block_size_moves_no_gap(monkeypatch, budget, d):
    # One row per block, blocks of 3 or 7 rows (1 or 3 at d = 2) with a short
    # last one, and every row in one block.
    monkeypatch.setattr(analysis, "_ES_BLOCK_BYTES", budget)
    for n in (1, 10, 25):
        assert_gaps_match_the_rows(*tied_stacks(n, d))


def argpartition_masks(u: np.ndarray, k: int) -> np.ndarray:
    # The reference for analysis._random_k_subset_masks, as it was first
    # written: the positions argpartition puts first at kth = k - 1.
    idx = np.argpartition(u, k - 1, axis=1)[:, :k]
    mask = np.zeros(u.shape, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


@pytest.mark.parametrize("n", [1, 2, 3, 8, 10, 100, 101])
def test_random_subset_masks_match_argpartition(n):
    gen = np.random.default_rng(n)
    stacks = {
        # Eight values per row: from n = 9 on every row has ties, and at
        # n ~ 100 nearly every cut with k < n is tied with an entry past it.
        "tied": gen.integers(0, 8, size=(500, n)) / 8,
        "draws": RngStream(94, n).generator().random((500, n)),
    }
    for kind, u in stacks.items():
        for k in sorted({1, 2, n // 2, n - 1, n} & set(range(1, n + 1))):
            got, want = analysis._random_k_subset_masks(u, k), argpartition_masks(u, k)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (kind, k)


# sha256 of "\n".join(repr(result)) over d = 1, n in (1, 2, 3, 4, 10, 101) and
# d = 3, n in (1, 2, 3, 4, 10, 24), each at seeds 0, 1, 2 on RngStream(seed, n),
# 1000 trials, the median of a standard Gaussian; computed with n selections
# per check.
ES_MEDIAN_PIN = "cdc7d9a767a1de6b805a1ff7d5e57cd17039f523de00e21e0e3f12e09f7cf0c5"


def test_median_results_keep_their_bytes():
    out = []
    for d, ns in ((1, (1, 2, 3, 4, 10, 101)), (3, (1, 2, 3, 4, 10, 24))):
        for n in ns:
            for seed in (0, 1, 2):
                out.append(repr(efron_stein_check(median_estimator(d), GaussianModel(np.zeros(d)),
                                                  n, 1000, RngStream(seed, n))))
    assert sha256("\n".join(out)) == ES_MEDIAN_PIN


def constant(d: int) -> Estimator:
    return Estimator(name="const", output_dim=d, stack_fn=lambda s: np.full((s.shape[0], d), 0.7))


def gauss(d: int, mu: float = 0.0) -> GaussianModel:
    return GaussianModel(np.full(d, mu))


# sha256 of repr(result), taken while the check drew X and its fresh copy as
# two whole (trials, n, d) stacks. With 2 MiB per chunk stack the trial counts
# leave a short last chunk (one trial for T2596, n10-T8739 and T1142), and
# trials * n * d mod 4 is 0, 1, 2 or 3 (T2596..T2599): the fresh rows' offset
# in the stream falls inside a four-double Philox block.
ES_CHUNK_PINS = {
    "median-d1-n101-T2596": (
        lambda: efron_stein_check(median_estimator(1), gauss(1), 101, 2596, RngStream(81, 0)),
        "934f82704b07bc5c66250fd4ce77e4a7dc4a845a3337d9d62992e6e955c70d83"),
    "median-d1-n101-T2597": (
        lambda: efron_stein_check(median_estimator(1), gauss(1, 0.3), 101, 2597,
                                  RngStream(82, 1)),
        "0f2a01e0c56e2044f65bc3a05bc3063322d93e75bb9e50de84bd49cd1b6193d4"),
    "median-d1-n101-T2598": (
        lambda: efron_stein_check(median_estimator(1), gauss(1), 101, 2598, RngStream(83, 2)),
        "906229097dbf706b01b062fb1af6b1f1e55d9283dc2a3cc5fe2d4901c958e8c8"),
    "median-d1-n101-T2599": (
        lambda: efron_stein_check(median_estimator(1), gauss(1), 101, 2599, RngStream(84, 3)),
        "ed0c2c5e0edee0eba6ccdc5445d677536f6fe990d856f2b536c0d15b212ac673"),
    "median-d3-n25-T3497": (
        lambda: efron_stein_check(median_estimator(3), gauss(3, -0.2), 25, 3497,
                                  RngStream(85, 0)),
        "c7a9636c0e9a9e3d9f9c53d02f7e57b3aed325ab2a9f231cd8d8aa4e1a59b16d"),
    "generic-median-d1-n21-T12485": (
        lambda: efron_stein_check(generic_median(1), gauss(1), 21, 12485, RngStream(86, 0)),
        "0ee6a27407714c8f063d1e7501211eab1c49ecc16999f6257d557e3ed75cd511"),
    "generic-median-d3-n10-T8739": (
        lambda: efron_stein_check(generic_median(3), gauss(3), 10, 8739, RngStream(87, 0)),
        "95f938017f33ccd541d6c50d4f404dc2f99f29c647cb862ebdbe424236be0249"),
    "mean-d16-n100-T1142": (
        lambda: efron_stein_check(mean_estimator(16), gauss(16), 100, 1142, RngStream(88, 0)),
        "f71e7a018710392ff3b80fc6045b1fe2d89fd36292b8079307d8e2f0825f0863"),
    "mean-d3-n25-T3497": (
        lambda: efron_stein_check(mean_estimator(3), gauss(3, 0.5), 25, 3497, RngStream(89, 0)),
        "43ab6c8c1dfcf0cca5d573873b8ed206c0810f6e48f04776367d8cd821379912"),
    "constant-d3-n7-T1001": (
        lambda: efron_stein_check(constant(3), gauss(3), 7, 1001, RngStream(90, 0)),
        "6ca998120e5c19067eba83a584c42d77af7be31933881297a0001c4444e93e58"),
}


def scaled_mean(factor: float) -> Estimator:
    return Estimator(name="2x-mean", output_dim=1, stack_fn=lambda s: factor * s.mean(axis=1))


H101 = 1 / math.sqrt(101)

# sha256 of repr(result) of the other chunked checkers, taken while each drew
# its parts as whole stacks from one generator (and chi2_localshift_mc in
# blocks of 20,000 draws). With 2 MiB per chunk, T2596, T2622, T10486,
# T20001 (of the old blocks), T29128 and T262145 leave a one-trial last
# chunk, the other trial counts a short one or a single chunk; at n = 101,
# trials * n mod 4 is 0, 1, 2 and 3 for T2596..T2599, so a later part starts
# inside a four-double Philox block.
CHECKER_CHUNK_PINS = {
    "hcr-median-n101-T2596": (
        lambda: hcr_check(median_estimator(1), 0.0, H101, 101, 2596, RngStream(91, 0)),
        "2995624f8fc41ff3be81eb474d61c56c61a179a6b3166902e119efed407d6ec6"),
    "hcr-median-n101-T2597": (
        lambda: hcr_check(median_estimator(1), 0.3, H101, 101, 2597, RngStream(91, 1)),
        "b16c9b717e6190d09860222f77bef73de80406e413224cb279575d248d363922"),
    "hcr-median-n101-T2598": (
        lambda: hcr_check(median_estimator(1), 0.0, H101, 101, 2598, RngStream(91, 2)),
        "f4fc7c70b29c8ca2e54688d8938a698fefd95714182f292af38bf62df755efd7"),
    "hcr-median-n101-T2599": (
        lambda: hcr_check(median_estimator(1), 0.0, -H101, 101, 2599, RngStream(91, 3)),
        "4bb11afd3017bc22ac12b7377b15d533360651caf1846858a9174ac1e010f802"),
    "hcr-mean-n25-T10486": (
        lambda: hcr_check(mean_estimator(1), 0.0, 0.2, 25, 10486, RngStream(92, 0)),
        "49e80b5942f60a488780bd6cd5d53d5331ad93a6e163013a437d4e24bc441ba3"),
    "hcr-constant-n25-T1001": (
        lambda: hcr_check(constant(1), 0.0, 0.2, 25, 1001, RngStream(92, 1)),
        "ef546387dd2edde8d7363c058293869230770d7f2a92d6922eb14e7379fe139b"),
    "cramer-rao-median-n101-T2597": (
        lambda: cramer_rao_check(median_estimator(1), 0.0, 101, 2597, RngStream(93, 0)),
        "e0b5b5359023d56d1a804b2bc858beb42ae98f985f7fd9932c1a95b5e05fa691"),
    "cramer-rao-median-n101-T2599": (
        lambda: cramer_rao_check(median_estimator(1), -0.4, 101, 2599, RngStream(93, 1)),
        "34b55c300eb5b9188fb98f2ce35a08c3d2bc58f9b25f72c93addf01f874b630a"),
    "cramer-rao-mean-n25-T10486": (
        lambda: cramer_rao_check(mean_estimator(1), 0.0, 25, 10486, RngStream(93, 2)),
        "9d136dd44ad384b5ce3690707687222cf753aa06fa114086364ad81089f6b223"),
    "cramer-rao-scaled-mean-n25-T2598": (
        lambda: cramer_rao_check(scaled_mean(2.0), 0.0, 25, 2598, RngStream(93, 3)),
        "e8afc039c3bb069d533af6dfb7d40647a4799b216cbaf77092853ac33782e994"),
    "cramer-rao-constant-n25-T1001": (
        lambda: cramer_rao_check(constant(1), 0.0, 25, 1001, RngStream(93, 4)),
        "ef546387dd2edde8d7363c058293869230770d7f2a92d6922eb14e7379fe139b"),
    "hypergeom-n101-k7-T2596": (
        lambda: hypergeom_mgf_check(101, 7, 0.5, 2596, RngStream(94, 0)),
        "df680ccf531c2319144a92f71389849836aa5e742ed44e4e210d67af543cefb3"),
    "hypergeom-n101-k7-T2597": (
        lambda: hypergeom_mgf_check(101, 7, 0.5, 2597, RngStream(94, 1)),
        "bc1ad7de8c839e5902ddfd74405ef471400bf6f54b27a1d2d27034001f4af9da"),
    "hypergeom-n101-k50-T2598": (
        lambda: hypergeom_mgf_check(101, 50, 0.1, 2598, RngStream(94, 2)),
        "65e5be77d1f9edd856da594a23dc1f0b23f735037e854a2dfd6d2a864306d44b"),
    "hypergeom-n101-k1-T2599": (
        lambda: hypergeom_mgf_check(101, 1, 1.0, 2599, RngStream(94, 3)),
        "d27ecdc219669c0497ba371a8016d6fb7da9bf917b15a60d50dede3bd110fafb"),
    "hypergeom-n100-k10-T2622": (
        lambda: hypergeom_mgf_check(100, 10, 1.0, 2622, RngStream(94, 4)),
        "59f9b50bb1f32e580665cf548b1682dc311809e4a84d02695d6abf28b1b8b541"),
    "hypergeom-n100-k10-lam0-T1000": (
        lambda: hypergeom_mgf_check(100, 10, 0.0, 1000, RngStream(94, 5)),
        "da3291bc9ef9c20fa334e7f976598b7600d8fe7caee1ee7946d28fb3130d72e0"),
    "hypergeom-n10-k10-T1000": (
        lambda: hypergeom_mgf_check(10, 10, 1.0, 1000, RngStream(94, 6)),
        "c53d703bd1f5792ddbb452203bdacc147e8a850f6e1b1b1edf6da06862f9ce13"),
    "chi2-localshift-k5-n100-T2622": (
        lambda: chi2_localshift_mc(5, 100, 0.8, 2622, RngStream(95, 0)),
        "0310f101e829cae059516ed44a313dd128c3df56ff2842dffd711e50eef0713f"),
    "chi2-localshift-k1-n101-T2599": (
        lambda: chi2_localshift_mc(1, 101, 0.5, 2599, RngStream(95, 1)),
        "4a40b6a3826cab3e0c600cad858924f50c114831d44cf1ed8b307b0fbdb37788"),
    "chi2-localshift-k7-n7-T1001": (
        lambda: chi2_localshift_mc(7, 7, 0.3, 1001, RngStream(95, 2)),
        "95f25f19061c156459fab167be8d5ca98edebfe3d20a3e8694c26d46a48d1f48"),
    "chi2-localshift-k3-n50-T20001": (
        lambda: chi2_localshift_mc(3, 50, 0.5, 20001, RngStream(95, 3)),
        "ba463221f9f621504d43e1cc4ca271c18a33ca450428258d31fc9d21aaf7c51c"),
    "chi2-products-n100-T1001": (
        lambda: chi2_products_mc(0.1, 100, 1001, RngStream(96, 0)),
        "41c3e8502022a8f07fbd10eeddfd502ded138b1df6613c4394a0fd4fd290a09a"),
    "chi2-products-n100-T262145": (
        lambda: chi2_products_mc(0.1, 100, 262145, RngStream(96, 1)),
        "c5b86f24a0e8b1a5944921779e5d32c5810f82e0bdde717e7ac02dc5eb09f5b7"),
    "spacing-n9-i5-T29128": (
        lambda: uniform_spacing_check(9, 5, 29128, RngStream(97, 0)),
        "84188fb84845a8c0b9509b6218afc4f40f6f4711e26513b3d9d86ecdce48dc02"),
    "spacing-n9-i1-T2599": (
        lambda: uniform_spacing_check(9, 1, 2599, RngStream(97, 1)),
        "620064c43489e241901e5d9441bd9f605b3008b8f90bfb7d2b9bb79156ff7037"),
    "spacing-n9-i10-T2598": (
        lambda: uniform_spacing_check(9, 10, 2598, RngStream(97, 2)),
        "2b14896bb3edbda923520988c9c8c499b7f5678f9c8d6f177a9376788587da3a"),
    "spacing-n1-i1-T1001": (
        lambda: uniform_spacing_check(1, 1, 1001, RngStream(97, 3)),
        "3682d28fe2424125a825b53208f3e35e643501afb7345beccc9aae1cdd456551"),
    "spacing-n1-i2-T1002": (
        lambda: uniform_spacing_check(1, 2, 1002, RngStream(97, 4)),
        "4d0ba5991913756ca8aad569c46f80a44694900c7b5aa1366df3775e7c37af96"),
}

CHUNK_PINS = {**ES_CHUNK_PINS, **CHECKER_CHUNK_PINS}


@pytest.mark.parametrize("name", sorted(CHUNK_PINS))
def test_chunked_check_keeps_its_bytes(name):
    run, digest = CHUNK_PINS[name]
    assert sha256(repr(run())) == digest


# The chunk size only moves the boundaries: one-trial chunks, short ones, and
# one chunk for every trial give the pinned bytes. The checkers' pins below
# 10,000 trials run here, as a one-byte budget makes every trial a chunk of
# its own; of the two n ~ 100 chi2_localshift_mc pins only one, as its DP
# takes about 1 s in one-trial chunks.
@pytest.mark.parametrize("budget", [1, 3000, 1 << 16, 1 << 23])
@pytest.mark.parametrize("name", ["median-d3-n25-T3497", "mean-d3-n25-T3497",
                                  "constant-d3-n7-T1001"]
                         + [name for name in CHECKER_CHUNK_PINS
                            if int(name.rsplit("-T", 1)[1]) < 10_000
                            and name != "chi2-localshift-k1-n101-T2599"])
def test_chunk_size_moves_no_byte(monkeypatch, name, budget):
    monkeypatch.setattr(analysis, "_ES_CHUNK_BYTES", budget)
    run, digest = CHUNK_PINS[name]
    assert sha256(repr(run())) == digest


def traced_peak(f: Estimator, d: int, n: int, trials: int) -> int:
    tracemalloc.start()
    try:
        efron_stein_check(f, gauss(d), n, trials, RngStream(15, 1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks of the calls below with 2 MiB chunk stacks (numpy 2.4.6,
# Python 3.11.7), each bound 1 MiB above its measurement for allocator and
# library drift. Whole (trials, n, d) stacks peaked at 46.7 and 25.9 MiB.
ES_MEDIAN_PEAK_BYTES = 6_700_074 + (1 << 20)
ES_MEAN_PEAK_BYTES = 4_576_211 + (1 << 20)


def test_median_path_peak_memory():
    assert traced_peak(median_estimator(1), 1, 101, 20_000) <= ES_MEDIAN_PEAK_BYTES


def test_general_path_peak_memory():
    assert traced_peak(mean_estimator(16), 16, 100, 1000) <= ES_MEAN_PEAK_BYTES


def test_peak_memory_is_flat_in_trials():
    # Past one chunk, a trial adds only its f(X) and gap sum (16 bytes,
    # measured); whole stacks of X and its fresh copy would add 2 n d 8.
    small, large = 10_000, 40_000
    grown = traced_peak(median_estimator(1), 1, 101, large) - \
        traced_peak(median_estimator(1), 1, 101, small)
    assert grown <= 32 * (large - small)


# Each checker that draws (T, n) or (T, n, 1) rows; with 64 KiB chunks, one
# chunk holds 81 to 910 trials.
FLAT_CHECKERS = {
    "hcr_check": lambda t: hcr_check(median_estimator(1), 0.0, H101, 101, t, RngStream(16, 0)),
    "cramer_rao_check": lambda t: cramer_rao_check(mean_estimator(1), 0.0, 25, t,
                                                   RngStream(16, 1)),
    "hypergeom_mgf_check": lambda t: hypergeom_mgf_check(100, 10, 1.0, t, RngStream(16, 2)),
    "chi2_localshift_mc": lambda t: chi2_localshift_mc(5, 100, 0.8, t, RngStream(16, 3)),
    "uniform_spacing_check": lambda t: uniform_spacing_check(9, 5, t, RngStream(16, 4)),
}


def traced_checker_peak(name: str, trials: int) -> int:
    tracemalloc.start()
    try:
        FLAT_CHECKERS[name](trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(FLAT_CHECKERS))
def test_checker_peak_memory_is_flat_in_trials(monkeypatch, name):
    # Past one chunk, a trial adds only its stored values and their reduction's
    # temporaries (8 to 24 bytes, measured); whole stacks of its parts would add at
    # least parts * n * 8.
    monkeypatch.setattr(analysis, "_ES_CHUNK_BYTES", 1 << 16)
    small, large = 3000, 12_000
    grown = traced_checker_peak(name, large) - traced_checker_peak(name, small)
    assert grown < 64 * (large - small)


def log_esp_k_loop(w: np.ndarray, k: int) -> np.ndarray:
    # _log_esp_k as first written: the DP over e_j, j descending, per column.
    mx = w.max(axis=1)
    wn = w / mx[:, None]
    e = np.zeros((k + 1, w.shape[0]))
    e[0] = 1.0
    for i in range(w.shape[1]):
        wi = wn[:, i]
        for j in range(min(i + 1, k), 0, -1):
            e[j] += wi * e[j - 1]
    return np.log(e[k]) + k * np.log(mx)


@pytest.mark.parametrize("n", [1, 7, 100])
def test_log_esp_k_matches_the_loop(n):
    gen = np.random.default_rng(n)
    w = np.exp(0.8 * gen.standard_normal((500, n)))
    for k in sorted({1, min(5, n), n}):
        got, want = analysis._log_esp_k(w, k), log_esp_k_loop(w, k)
        assert got.tobytes() == want.tobytes(), k


# sha256 of repr of [binomial_point_mass(n, r) for n in 1..200 for r in 0..n],
# computed with three special.gammaln calls per point.
POINT_MASS_GRID_PIN = "ee97a16d0051b7cc22140cf905e48da7fa917443e2f38d06956d89e585f1acae"


def test_point_mass_grid_keeps_its_bytes():
    grid = [binomial_point_mass(n, r) for n in range(1, 201) for r in range(n + 1)]
    assert sha256(repr(grid)) == POINT_MASS_GRID_PIN


def test_memoised_log_gamma_is_gammaln():
    for m in range(10_002):
        got = analysis._gammaln_int(m)
        assert type(got) is float and got == special.gammaln(m), m
