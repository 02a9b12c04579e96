import csv
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from senslab import (
    BernoulliModel,
    GaussianModel,
    IneqCheckResult,
    RngStream,
    UnboundedSensitivityError,
    all_pass,
    build_estimator,
    coupling_obstruction_high,
    estimate_es,
    format_verify_table,
    mean_estimator,
    mean_obstruction_low,
    median_estimator,
    project_scalar,
    sample_unit_direction,
    scaling_sweep,
    variance_obstruction,
    verify_suite,
)
from senslab import cli, harness
from senslab.harness import SensitivityReport, VerifyRow, _dump_json


def gauss(d=1, mu=0.0):
    return GaussianModel(np.full(d, mu))


class TestEstimateEs:
    def test_resampling_matches_closed_form(self):
        report = estimate_es("mean", "resample", gauss(16), eta=0.1, n=400,
                             q=2, trials=2000, seed=1)
        target = math.sqrt(2 * 40 * 16) / 400
        assert report.ci_low <= target <= report.ci_high
        assert report.es_estimate == pytest.approx(target, rel=0.05)
        assert report.lower_bound_only
        assert report.k == 40

    def test_median_exact_zero_budget_is_zero(self):
        report = estimate_es("median", "median-exact", gauss(1), eta=0.005, n=101,
                             q=2, trials=200, seed=2)
        assert report.k == 0
        assert report.es_estimate == 0.0
        assert report.ci_low == 0.0 and report.ci_high == 0.0
        assert not report.lower_bound_only

    def test_hamming_ball_plugin_is_exactly_one_over_n(self):
        report = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5),
                             eta=1 / 12 + 1e-12, n=12, q=1, trials=300, seed=3)
        assert report.es_estimate == pytest.approx(1 / 12, abs=1e-15)
        assert not report.lower_bound_only

    def test_interval_brackets_estimate(self):
        report = estimate_es("mean", "resample", gauss(2), eta=0.1, n=50,
                             q=2, trials=400, seed=4)
        assert report.ci_low <= report.es_estimate <= report.ci_high

    def test_l2_dominates_l1_on_identical_streams(self):
        kw = dict(eta=0.1, n=50, trials=400, seed=5)
        r1 = estimate_es("mean", "resample", gauss(2), q=1, **kw)
        r2 = estimate_es("mean", "resample", gauss(2), q=2, **kw)
        assert np.array_equal(r1.per_trial, r2.per_trial)
        assert r2.es_estimate >= r1.es_estimate

    def test_monotone_in_eta_for_exact_adversary(self):
        values = [
            estimate_es("median", "median-exact", gauss(1), eta=eta, n=101,
                        q=2, trials=200, seed=6).es_estimate
            for eta in (0.05, 0.1, 0.2, 0.3)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_reports_byte_identical_across_worker_counts(self):
        kw = dict(eta=0.1, n=60, q=2, trials=300, seed=7)
        serial = estimate_es("mean", "resample", gauss(3), **kw)
        threaded = estimate_es("mean", "resample", gauss(3), workers=4, **kw)
        assert serial.to_json(include_trials=True) == threaded.to_json(include_trials=True)

    def test_projected_reports_byte_identical_when_threads_share_the_lift(self):
        # Each estimator starts with an empty lift cache, so the threads race
        # to build it; a short switch interval makes the race likely.
        kw = dict(eta=0.1, n=40, q=2, trials=100, seed=12)
        serial = estimate_es(build_estimator("projected:64", d=5, seed=3), "resample",
                             gauss(1), workers=1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimate_es(build_estimator("projected:64", d=5, seed=3), "resample",
                                   gauss(1), workers=4, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert serial.to_json(include_trials=True) == threaded.to_json(include_trials=True)

    @pytest.mark.parametrize("inner", ["projected:256", "median:16"])
    def test_projected_reports_byte_identical_across_worker_counts(self, inner):
        # n = 1000 gives chunks of 65 trials, so four threads each run a shard
        # of their own: the mean's affine lift sees stacks of 65 and 5 rows,
        # the median's per-trial lift one dataset at a time.
        def make():
            if inner == "projected:256":
                return build_estimator(inner, d=3, seed=4)
            u = sample_unit_direction(3, RngStream(4, 0))
            return project_scalar(median_estimator(3), u, np.zeros(3), mc_inner=16,
                                  rng=RngStream(4, 1))

        kw = dict(eta=0.1, n=1000, q=2, trials=200, seed=13)
        serial = estimate_es(make(), "resample", gauss(1), workers=1, **kw)
        threaded = estimate_es(make(), "resample", gauss(1), workers=4, **kw)
        assert serial.to_json(include_trials=True) == threaded.to_json(include_trials=True)

    def test_local_shift_requires_delta(self):
        with pytest.raises(ValueError):
            estimate_es("mean", "local-shift", gauss(1), eta=0.1, n=50, trials=100, seed=0)

    def test_local_shift_mean_is_exact(self):
        report = estimate_es("mean", "local-shift", gauss(1), eta=0.1, n=100,
                             q=1, trials=100, seed=8, delta=0.5)
        assert report.es_estimate == pytest.approx(0.05, abs=1e-12)

    def test_tv_coupling_clipped_mean_tracks_eta(self):
        report = estimate_es("clipped-mean", "tv-coupling", gauss(1, 0.4),
                             eta=0.1, n=500, q=1, trials=400, seed=9)
        assert report.es_estimate == pytest.approx(0.1, abs=0.01)

    def test_block_resample_matches_resampling_rate(self):
        report = estimate_es("mean", "block-resample", gauss(4), eta=0.1, n=100,
                             q=2, trials=1500, seed=10)
        assert report.es_estimate == pytest.approx(math.sqrt(2 * 10 * 4) / 100, rel=0.07)

    def test_unbounded_mean_under_adaptive_adversary(self):
        with pytest.raises(UnboundedSensitivityError) as err:
            estimate_es("mean", "median-exact", gauss(1), eta=0.1, n=101,
                        trials=100, seed=0)
        payload = err.value.to_json_dict()
        assert payload["kind"] == "unbounded-sensitivity"
        assert payload["estimator"] == "mean"

    def test_exact_certificates_rejected_for_mismatched_estimators(self):
        with pytest.raises(ValueError):
            estimate_es("clipped-mean", "median-exact", gauss(1), eta=0.1, n=101,
                        trials=100, seed=0)
        with pytest.raises(ValueError):
            estimate_es("mean", "hamming-ball", BernoulliModel(0.5), eta=0.1, n=12,
                        trials=100, seed=0)
        with pytest.raises(ValueError):
            estimate_es("bernoulli-plugin", "hamming-ball", gauss(1), eta=0.1, n=12,
                        trials=100, seed=0)

    def test_validates_trials_and_q(self):
        with pytest.raises(ValueError):
            estimate_es("mean", "resample", gauss(1), eta=0.1, n=50, trials=50, seed=0)
        with pytest.raises(ValueError):
            estimate_es("mean", "resample", gauss(1), eta=0.1, n=50, q=3,
                        trials=100, seed=0)

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("adversary", ["resample", "median-exact"])
    def test_rejects_workers_below_one(self, adversary, workers):
        with pytest.raises(ValueError, match=rf"^workers must be an integer >= 1, got {workers}$"):
            estimate_es("median", adversary, gauss(1), eta=0.1, n=51, trials=100, seed=0,
                        workers=workers)

    def test_unknown_adversary(self):
        with pytest.raises(ValueError):
            estimate_es("mean", "poisoning", gauss(1), eta=0.1, n=50, trials=100, seed=0)

    def test_rejects_non_integral_n(self):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 400\.7$"):
            estimate_es("mean", "resample", gauss(1), eta=0.1, n=400.7, trials=100, seed=0)

    def test_csv_row_has_fixed_column_order(self):
        report = estimate_es("mean", "resample", gauss(1), eta=0.1, n=50,
                             trials=100, seed=11)
        assert SensitivityReport.csv_header() == (
            "eta,n,d,k,estimator,adversary,q,es_estimate,ci_low,ci_high,"
            "lower_bound_only,trials,seed")
        row = report.csv_row()
        fields = row.split(",")
        assert fields[0] == "0.1"
        assert fields[4] == "mean"
        assert fields[10] == "true"

    def test_csv_row_quotes_a_comma_in_the_estimator_name(self):
        est = dataclasses.replace(mean_estimator(1), name='mean,"v2"')
        report = estimate_es(est, "resample", gauss(1), eta=0.1, n=50, trials=100, seed=11)
        [cells] = csv.reader([report.csv_row()])
        assert len(cells) == len(SensitivityReport.csv_header().split(",")) == 13
        assert cells[4] == 'mean,"v2"'
        plain = estimate_es("mean", "resample", gauss(1), eta=0.1, n=50, trials=100, seed=11)
        assert report.csv_row() == plain.csv_row().replace(",mean,", ',"mean,""v2""",')

    # Computed before the report's fields were stated once; csv_row and
    # to_json (without trials) must keep their bytes.
    TEXT_PINS = {
        "local-shift": (
            lambda: estimate_es("clipped-mean", "local-shift", gauss(1, 0.5), eta=0.05, n=200,
                                delta=0.5, trials=100, seed=61),
            "0.05,200,1,10,clipped-mean,local-shift,2,0.025000000000000012,0.025,"
            "0.02500000000000002,true,100,61",
            "ea68a69d5dd0449f2d0bd3ef76b9e0164b1e5ea04c30fba4059f620b20e60d0b"),
        "median-exact": (
            lambda: estimate_es("median", "median-exact", gauss(1), eta=0.1, n=101, q=1,
                                trials=100, seed=62),
            "0.1,101,1,10,median,median-exact,1,0.29739249989820526,0.28374966700837645,"
            "0.3110353327880341,false,100,62",
            "9a1920c00140d0d96e5797cc0f0ba977344b0c95fd2efd7054d8f1ce6cc4e9cf"),
    }

    @pytest.mark.parametrize("name", sorted(TEXT_PINS))
    def test_report_text_pins(self, name):
        run, row, digest = self.TEXT_PINS[name]
        report = run()
        assert report.csv_row() == row
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("run", [
    lambda n: estimate_es("mean", "resample", gauss(1), eta=0.1, n=n, trials=100, seed=0),
    lambda n: estimate_es("median", "median-exact", gauss(1), eta=0.1, n=n + 1, trials=100,
                          seed=0),
    lambda n: mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=n, trials=100,
                                   seed=0),
    lambda n: coupling_obstruction_high("clipped-mean", eta=0.1, n=n, trials=100, seed=0),
    lambda n: variance_obstruction("mean", gauss(1), eta=0.1, n=n, trials=100, seed=0),
], ids=["resample", "median-exact", "mean-obstruction", "coupling-obstruction",
        "variance-obstruction"])
def test_reports_store_n_as_an_int(run):
    whole, real = run(50), run(50.0)
    assert type(real.n) is int
    assert repr(real) == repr(whole)
    if isinstance(whole, SensitivityReport):
        assert real.to_json(include_trials=True) == whole.to_json(include_trials=True)
        assert real.csv_row() == whole.csv_row()


class TestScalingSweep:
    def test_resampling_slope_versus_eta(self):
        fit = scaling_sweep("mean", "resample", variable="eta",
                            values=(0.02, 0.04, 0.08, 0.16),
                            n=2000, d=4, q=2, trials=600, seed=12)
        assert 0.45 <= fit.slope <= 0.55
        assert fit.r_squared > 0.99
        assert all(fit.used)

    def test_resampling_slope_versus_n(self):
        fit = scaling_sweep("mean", "resample", variable="n",
                            values=(500, 1000, 2000, 4000),
                            eta=0.1, d=4, q=2, trials=600, seed=13)
        assert -0.55 <= fit.slope <= -0.45

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scaling_sweep("mean", "resample", variable="eta", values=(0.1, 0.2, 0.3),
                          n=100, trials=100, seed=0)
        with pytest.raises(ValueError):
            scaling_sweep("mean", "resample", variable="eta",
                          values=(0.2, 0.1, 0.3, 0.4), n=100, trials=100, seed=0)
        with pytest.raises(ValueError):
            scaling_sweep("mean", "resample", variable="k",
                          values=(1, 2, 3, 4), n=100, trials=100, seed=0)

    def test_rejects_workers_below_one(self):
        with pytest.raises(ValueError, match=r"^workers must be an integer >= 1, got 0$"):
            scaling_sweep("mean", "resample", variable="eta", values=(0.1, 0.2, 0.3, 0.4),
                          n=100, trials=100, seed=0, workers=0)

    def test_projected_d_sweep_lifts_scalar_data(self):
        # projected:<inner> is built at each point's d and runs on scalar rows.
        fit = scaling_sweep("projected:16", "resample", variable="d", values=(2, 4, 8, 16),
                            n=200, mu=0.25, trials=400, seed=3)
        assert all(fit.used)
        for v, report in zip(fit.values, fit.reports):
            alone = estimate_es(build_estimator("projected:16", d=int(v), seed=3), "resample",
                                GaussianModel([0.25]), eta=0.1, n=200, trials=400, seed=3)
            assert report.to_json(include_trials=True) == alone.to_json(include_trials=True)

    @pytest.mark.parametrize("variable,values,sizes", [
        ("d", (1.5, 2.5, 4.5, 8.5), {}),
        ("n", (100, 200.5, 400, 800), {}),
        ("eta", (0.02, 0.04, 0.08, 0.16), {"d": 2.5}),
    ])
    def test_rejects_non_integral_sizes(self, variable, values, sizes):
        # Truncated sizes would be fitted against the untruncated log values.
        with pytest.raises(ValueError, match=r"^[nd] must be an integer >= 1, got \d+\.5$"):
            scaling_sweep("mean", "resample", variable=variable, values=values, n=100,
                          trials=100, seed=0, **sizes)


class TestMeanObstructionLow:
    def test_zero_delta_gives_zero(self):
        rep = mean_obstruction_low("clipped-mean", eta=0.05, delta=0.0, n=400,
                                   trials=200, seed=14)
        assert rep.avg_displacement == 0.0
        assert rep.predicted == 0.0

    def test_tracks_eta_delta(self):
        rep = mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=400,
                                   trials=2000, seed=15)
        assert rep.k == 20
        assert rep.predicted == pytest.approx(0.025, abs=1e-15)
        assert rep.avg_displacement == pytest.approx(0.025, abs=0.001)
        assert rep.chi2_budget == pytest.approx(0.0346109, abs=1e-6)
        assert rep.regime_ok

    def test_warns_outside_low_corruption_regime(self):
        with pytest.warns(UserWarning):
            rep = mean_obstruction_low("clipped-mean", eta=0.3, delta=0.1, n=100,
                                       trials=200, seed=16)
        assert not rep.regime_ok


class TestCouplingObstructionHigh:
    def test_clipped_mean_displacement_near_eta(self):
        rep = coupling_obstruction_high("clipped-mean", eta=0.1, n=500,
                                        trials=500, seed=17)
        assert rep.infeasible_rate == 0.0
        assert rep.avg_displacement_on_feasible == pytest.approx(0.1, abs=0.01)
        assert rep.avg_displacement_on_feasible >= rep.proof_floor

    def test_small_eta_gives_small_displacement(self):
        rep = coupling_obstruction_high("clipped-mean", eta=0.008, n=500,
                                        trials=300, seed=18)
        assert abs(rep.avg_displacement_on_feasible) < 0.03

    def test_rejects_large_eta(self):
        with pytest.raises(ValueError):
            coupling_obstruction_high("clipped-mean", eta=0.2, n=500, trials=200, seed=0)


class TestVarianceObstruction:
    def test_mean_matches_analytic_values(self):
        rep = variance_obstruction("mean", gauss(4), eta=0.1, n=100,
                                   trials=3000, seed=19)
        assert rep.n_blocks == 10
        assert rep.var_clean == pytest.approx(0.04, rel=0.05)
        assert rep.max_block_gap == pytest.approx(0.008, rel=0.07)
        assert rep.two_over_m_holds
        # linear statistic saturates the block inequality
        assert (2 / rep.n_blocks) * rep.var_clean == pytest.approx(
            rep.max_block_gap, rel=0.08)
        # cross-module consistency with the resampling closed form
        assert rep.implied_es_lb == pytest.approx(math.sqrt(2 * 10 * 4) / 100, rel=0.05)

    def test_constant_estimator_gives_zeros(self):
        from senslab.estimators import Estimator
        const = Estimator("const", 2,
                          stack_fn=lambda s: np.tile([1.0, 2.0], (s.shape[0], 1)))
        rep = variance_obstruction(const, gauss(2), eta=0.2, n=20, trials=500, seed=20)
        assert abs(rep.var_clean) < 1e-15
        assert abs(rep.max_block_gap) < 1e-15
        assert rep.implied_es_lb < 1e-7


class TestVerifySuite:
    def test_default_grid_passes_at_reduced_scale(self):
        rows = verify_suite(trials_scale=20_000, seed=21)
        failures = [r.name for r in rows if not r.result.holds]
        assert failures == []
        assert all_pass(rows)
        names = {r.name for r in rows}
        for expected in (
            "efron-stein/mean-n25", "efron-stein/median-n101", "hcr/mean-n25",
            "cramer-rao/mean-n25", "gaussian-lr/aligned", "hypergeom-mgf/n100-k10",
            "chi2-products/e-minus-1-mc", "chi2-localshift/mc-k3-n50",
            "tv/strictly-below-eta", "chernoff/n100-p001-t10",
            "binomial-point-mass/n9-r3", "uniform-spacing/n9-i5",
            "beta-binomial/n10-quadrature",
        ):
            assert expected in names

    def test_degenerate_rows_present(self):
        rows = {r.name for r in verify_suite(trials_scale=2_000, seed=22)}
        for expected in ("hypergeom-mgf/lambda-zero", "chi2-products/zero-delta",
                         "chi2-localshift/zero-delta", "efron-stein/constant",
                         "cramer-rao/constant", "hcr/constant"):
            assert expected in rows

    def test_broken_checker_fails_the_suite(self):
        rows = verify_suite(trials_scale=2_000, seed=23)
        rows.append(VerifyRow("self-test/flipped-inequality",
                              IneqCheckResult(lhs=1.0, rhs=0.0, holds=False)))
        assert not all_pass(rows)
        table = format_verify_table(rows)
        assert "FAIL" in table and "self-test/flipped-inequality" in table

    # sha256 of repr(verify_suite(trials_scale=2000, seed=s)), computed before
    # the Monte Carlo verdicts went through analysis._mc_verdict: every row's
    # lhs, rhs, holds, mc_stderr and trials must keep its bytes.
    SUITE_PINS = {
        1: "6e370f0ece8d2cb8514df75324dbe36c7c98cbd6dbad825ff1bf39f57db20d35",
        2: "b02c50f1a053acde59442ac1940fb43bec4afad1790c34f76974647911451b9b",
    }

    @pytest.mark.parametrize("seed", sorted(SUITE_PINS))
    def test_suite_pins(self, seed):
        rows = verify_suite(trials_scale=2000, seed=seed)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.SUITE_PINS[seed]

    @pytest.mark.parametrize("scale", [1, 999])
    def test_rejects_a_scale_below_1000(self, scale):
        with pytest.raises(ValueError, match=rf"^trials_scale must be an integer >= 1000, got {scale}$"):
            verify_suite(trials_scale=scale, seed=0)

    def test_reproducible_table(self):
        a = format_verify_table(verify_suite(trials_scale=2_000, seed=24))
        b = format_verify_table(verify_suite(trials_scale=2_000, seed=24))
        assert a == b


# -- the JSON text: _dump_json against json.dumps --

def json_oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


RECORDS = {
    "report": lambda: estimate_es("median", "median-exact", gauss(1), eta=0.1, n=51,
                                  trials=100, seed=3).to_json_dict(),
    "report-with-trials": lambda: estimate_es("bernoulli-plugin", "hamming-ball",
                                              BernoulliModel(0.5), eta=0.2, n=16, trials=100,
                                              seed=3).to_json_dict(include_trials=True),
    "report-with-delta": lambda: estimate_es("clipped-mean", "local-shift", gauss(1), eta=0.1,
                                             n=50, delta=0.5, trials=100,
                                             seed=4).to_json_dict(include_trials=True),
    "scaling-fit": lambda: scaling_sweep("mean", "resample", variable="n",
                                         values=[100, 200, 400, 800], trials=400,
                                         seed=11).to_json_dict(),
    "unbounded": lambda: UnboundedSensitivityError("mean", "median-exact",
                                                   "a reason with \"quotes\"").to_json_dict(),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_dump_json_writes_the_json_dumps_text_of_every_record(kind):
    record = RECORDS[kind]()
    assert _dump_json(record) == json_oracle(record)


def test_dump_json_writes_the_cli_bernoulli_record(monkeypatch, capsys):
    records = []

    def spy(obj):
        records.append(obj)
        return _dump_json(obj)

    monkeypatch.setattr(cli, "_dump_json", spy)
    assert cli.main(["bernoulli", "--n", "12", "--eta", "0.09", "--p", "0.3"]) == 0
    (record,) = records
    assert record["kind"] == "bernoulli-exact"
    assert capsys.readouterr().out == json_oracle(record) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1,
               1.7976931348623157e308, 123456789.0, np.float64(0.3), np.float64(math.nan)]


@pytest.mark.parametrize("value", EDGE_FLOATS, ids=repr)
def test_dump_json_spells_every_float_as_json_does(value):
    for obj in ({"x": value}, {"xs": [value, 1.5]}, {"xs": [1.5, value]}, {"xs": [value]}):
        assert _dump_json(obj) == json_oracle(obj)


def test_dump_json_matches_json_dumps_on_mixed_records():
    report = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5), eta=0.2,
                         n=16, trials=100, seed=3).to_json_dict(include_trials=True)
    cases = [
        {}, {"a": []}, {"a": {}}, {"a": ()},
        {"estimator": "médian ☃ 名 \U0001f600", "quote\"d\\": "tab\there\nline\x00"},
        {"used": [True, False, True], "flags": (False,), "none": None, "ints": [1, -2, 3 ** 40]},
        {"mixed": [1, 2.5, "s", None, True, [], {}, [0.5, [1.0]], {"b": 1, "a": [2.0]}]},
        {"floats": EDGE_FLOATS, "ints": [0, -1, 2 ** 64], "big": 2 ** 70, "neg": -7},
        {"z": 1, "a": {"y": [0.25, -0.0], "b": "x"}, "m": [{"k": 1.0}, {"j": [math.inf]}]},
        {"nested": report},
    ]
    for obj in cases:
        assert _dump_json(obj) == json_oracle(obj)


@pytest.mark.parametrize("obj", [{"seed": np.int64(3)}, {"xs": [1.0, np.int64(3)]}, {"s": {1, 2}},
                                 {"o": object()}, {1: "int key"}, {"xs": [1.0, b"bytes"]}],
                         ids=["np-int64", "np-int64-in-list", "set", "object", "int-key", "bytes"])
def test_dump_json_rejects_what_json_cannot_spell(obj):
    with pytest.raises(TypeError):
        _dump_json(obj)


# -- a seed of a numpy integer type is stored as an int --

@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int32(3)], ids=repr)
def test_a_numpy_seed_gives_the_int_seeds_bytes(seed):
    kwargs = dict(eta=0.2, n=16, trials=100)
    want = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5), seed=3, **kwargs)
    got = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5), seed=seed,
                      **kwargs)
    assert type(got.seed) is int
    assert got.to_json(include_trials=True) == want.to_json(include_trials=True)
    assert got.csv_row() == want.csv_row()
    low = dict(eta=0.05, delta=0.5, n=100, trials=100)
    assert (repr(mean_obstruction_low("clipped-mean", seed=seed, **low))
            == repr(mean_obstruction_low("clipped-mean", seed=3, **low)))


# -- q and every float cell are written as the package writes them --

@pytest.mark.parametrize("q,plain", [(np.int64(2), 2), (2.0, 2), (True, 1), (np.int64(1), 1)],
                         ids=repr)
def test_a_numpy_float_or_bool_q_gives_the_int_qs_bytes(q, plain):
    kwargs = dict(eta=0.2, n=16, trials=100, seed=3)
    want = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5), q=plain, **kwargs)
    got = estimate_es("bernoulli-plugin", "hamming-ball", BernoulliModel(0.5), q=q, **kwargs)
    assert type(got.q) is int
    assert got.to_json(include_trials=True) == want.to_json(include_trials=True)
    assert got.csv_row() == want.csv_row()


def test_a_numpy_float_cell_is_written_as_the_plain_float():
    report = estimate_es("mean", "resample", gauss(1), eta=0.1, n=50, trials=100, seed=2)
    cells = dict(es_estimate=np.float64(report.es_estimate), eta=np.float64(report.eta))
    numpy_floats = dataclasses.replace(report, **cells)
    assert "np.float64" not in numpy_floats.csv_row()
    assert numpy_floats.csv_row() == report.csv_row()


# -- a sweep runs the jobs it checked: each point is its own estimate_es call --

@pytest.mark.parametrize("estimator,adversary", [("median", "median-exact"),
                                                 ("mean", "resample")])
def test_every_sweep_point_is_its_own_estimate_es_call(estimator, adversary):
    values = (0.02, 0.04, 0.08, 0.16)
    fit = scaling_sweep(estimator, adversary, variable="eta", values=values, n=301, trials=400,
                        seed=9)
    for eta, report in zip(values, fit.reports):
        alone = estimate_es(estimator, adversary, gauss(1), eta=eta, n=301, trials=400, seed=9)
        assert report.to_json(include_trials=True) == alone.to_json(include_trials=True)


# -- every obstruction needs a budget that allows one corruption --

@pytest.mark.parametrize("run", [
    lambda: mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=10, trials=100),
    lambda: coupling_obstruction_high("clipped-mean", eta=0.1, n=9, trials=100),
    lambda: variance_obstruction("mean", gauss(2), eta=0.05, n=10, trials=100),
], ids=["mean-obstruction", "coupling-obstruction", "variance-obstruction"])
def test_an_obstruction_with_an_empty_budget_fails_before_any_draw(monkeypatch, run):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the request was checked")

    monkeypatch.setattr(harness, "_run_chunked", no_trials)
    with pytest.raises(ValueError, match=r"^budget allows no corruption: eta=0\.\d+, n=\d+ "
                                         r"gives k=0$"):
        run()
