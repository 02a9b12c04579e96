"""The rejections and early returns that no other test reaches, one case each.

Each case names the request it refuses, with its type and full message, or
the answer a boundary input gets without any computation.
"""

import math
import re

import numpy as np
import pytest

from senslab import (
    ClipInterval,
    CorruptionBudget,
    Dataset,
    GaussianModel,
    RngStream,
    analysis,
    bernoulli_expected_sensitivity,
    build_estimator,
    clip_estimator,
    hamming_ball_sup,
    mean_estimator,
    mean_obstruction_low,
    median_estimator,
    plugin_estimator,
    project_scalar,
    resampling_adversary,
    scaling_sweep,
)
from senslab.cli import main
from senslab.estimators import _PROJECTION_STREAM_TAG

S = RngStream(0, 0)


# --- adversaries ---

def test_budget_for_another_n_is_rejected():
    with pytest.raises(ValueError, match=r"^budget is for n=20 but dataset has n=10$"):
        resampling_adversary(Dataset(np.zeros(10)), CorruptionBudget.from_eta(0.1, 20),
                             GaussianModel([0.0]), S)


def test_resampling_model_of_another_dimension_is_rejected():
    with pytest.raises(ValueError, match=r"^model dimension 1 does not match dataset d=2$"):
        resampling_adversary(Dataset(np.zeros((10, 2))), CorruptionBudget.from_eta(0.1, 10),
                             GaussianModel([0.0]), S)


# --- analysis ---

def test_subset_larger_than_n_is_rejected():
    with pytest.raises(ValueError, match=r"^need 1 <= k <= n, got k=11, n=10$"):
        analysis.chi2_localshift_bound(11, 10, 0.5)


@pytest.mark.parametrize("delta,n,draws,shown", [(1.0, 100, 10_000, "100"),
                                                 (0.5, 100, 10 ** 6, "25"),
                                                 (30.0, 10_000, 1000, "9e+06")])
def test_products_oracle_rejects_a_chi2_out_of_its_reach(delta, n, draws, shown):
    # At n delta^2 = 100 the simulation gave 0.99999999915 +- 5.5e-10 against
    # e^100 - 1; far past the closed form's overflow the rule still answers.
    # The stream is None, so a draw would raise AttributeError instead.
    with pytest.raises(ValueError, match=rf"^n \* delta\^2 = {re.escape(shown)} is out of reach "
                                         rf"at {draws} draws: the estimate's relative stderr "
                                         r"exceeds 0\.5$"):
        analysis.chi2_products_mc(delta, n, draws, None)


def test_likelihood_ratio_vectors_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match=r"^a and b must have equal length$"):
        analysis.gaussian_lr_identity_check([1.0, 0.0], [1.0], 10_000, S)


def test_chernoff_threshold_must_be_positive():
    with pytest.raises(ValueError, match=r"^t must be positive, got 0\.0$"):
        analysis.chernoff_tail_bound(100, 0.5, 0.0)


@pytest.mark.parametrize("t,tail", [(0, 1.0), (-3, 1.0), (-math.inf, 1.0), (11, 0.0)])
def test_binomial_tail_outside_1_to_n_needs_no_sum(t, tail):
    assert analysis.binomial_tail(10, 0.5, t) == tail


@pytest.mark.parametrize("check", [
    lambda est: analysis.hcr_check(est, 0.0, 0.2, 25, 1000, S),
    lambda est: analysis.cramer_rao_check(est, 0.0, 25, 1000, S),
], ids=["hcr_check", "cramer_rao_check"])
def test_variance_bounds_take_a_scalar_statistic(request, check):
    name = request.node.callspec.id
    with pytest.raises(ValueError,
                       match=rf"^{name} takes a scalar estimator; mean has output_dim 2$"):
        check(mean_estimator(2))


# --- bernoulli ---

BUDGET10 = CorruptionBudget.from_eta(0.1, 10)


def test_expected_sensitivity_takes_a_scalar_estimator():
    with pytest.raises(ValueError, match=r"^bernoulli_expected_sensitivity takes a scalar "
                                         r"estimator; mean has output_dim 2$"):
        bernoulli_expected_sensitivity(mean_estimator(2), 10, 0.5, BUDGET10)


@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_expected_sensitivity_p_must_lie_in_the_unit_interval(p):
    with pytest.raises(ValueError, match=rf"^p must lie in \[0, 1\], got {p}$"):
        bernoulli_expected_sensitivity(plugin_estimator(), 10, p, BUDGET10)


def test_expected_sensitivity_budget_for_another_n_is_rejected():
    with pytest.raises(ValueError, match=r"^budget is for n=10, got n=12$"):
        bernoulli_expected_sensitivity(plugin_estimator(), 12, 0.5, BUDGET10)


# --- cli ---

def test_config_skips_blank_and_comment_lines(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# a comment\n  \nn=50\n# trials=7\ntrials=100\n", encoding="utf-8")
    assert main(["sensitivity", "--config", str(cfg), "--seed", "3"]) == 0
    from_file = capsys.readouterr().out
    assert main(["sensitivity", "--n", "50", "--trials", "100", "--seed", "3"]) == 0
    assert capsys.readouterr().out == from_file


def test_config_line_without_equals_is_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=50\ntrials 100\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["sensitivity", "--config", str(cfg)])
    assert exc.value.code == f"{cfg}:2: expected key=value, got 'trials 100'"


# --- core ---

def test_dataset_of_three_axes_is_rejected():
    with pytest.raises(ValueError, match=r"^samples must be an \(n, d\) array, got ndim=3$"):
        Dataset(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("mu", [[math.nan], [0.0, math.inf]])
def test_gaussian_model_mean_must_be_finite(mu):
    with pytest.raises(ValueError, match=r"^mu must be a finite vector$"):
        GaussianModel(mu)


# --- estimators ---

def test_on_stack_takes_three_axes():
    with pytest.raises(ValueError, match=r"^stack must be \(T, n, d\), got shape \(3, 4\)$"):
        mean_estimator(1).on_stack(np.zeros((3, 4)))


def test_projection_vectors_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match=r"^u and lam must have equal length, got 2 and 1$"):
        project_scalar(mean_estimator(2), [1.0, 0.0], [0.0])


def test_projection_of_an_estimator_of_another_dimension_is_rejected():
    with pytest.raises(ValueError,
                       match=r"^estimator output_dim 1 does not match direction dim 2$"):
        project_scalar(mean_estimator(1), [1.0, 0.0], [0.0, 0.0])


def test_projection_noise_defaults_to_the_tagged_stream():
    u, lam = [0.6, 0.8], [0.8, -0.6]
    stack = GaussianModel([0.0]).sample(7, S).samples[None]
    default = project_scalar(median_estimator(2), u, lam, mc_inner=4)
    tagged = project_scalar(median_estimator(2), u, lam, mc_inner=4,
                            rng=RngStream(0, _PROJECTION_STREAM_TAG))
    assert default.on_stack(stack).tobytes() == tagged.on_stack(stack).tobytes()


def test_projected_estimator_takes_scalar_datasets():
    est = project_scalar(mean_estimator(2), [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match=r"^projected estimator takes scalar \(d = 1\) datasets$"):
        est.on_stack(np.zeros((2, 5, 2)))


def test_clip_takes_a_scalar_estimator():
    with pytest.raises(ValueError, match=r"^clip_estimator takes a scalar estimator; "
                                         r"median has output_dim 2$"):
        clip_estimator(median_estimator(2), ClipInterval(0.0, 1.0))


def test_layer_estimator_requires_binary_entries():
    with pytest.raises(ValueError, match=r"^bernoulli-plugin requires entries in \{0, 1\}$"):
        plugin_estimator().on_stack(np.full((1, 4, 1), 0.5))


def test_hamming_ball_requires_binary_entries():
    with pytest.raises(ValueError,
                       match=r"^hamming ball enumeration requires entries in \{0, 1\}$"):
        hamming_ball_sup(plugin_estimator(), Dataset(np.full(10, 0.5)), BUDGET10)


def test_clipped_median_is_scalar():
    with pytest.raises(ValueError, match=r"^clipped-median is a scalar estimator \(d = 1\)$"):
        build_estimator("clipped-median", d=2)


def test_projected_name_needs_an_integer_suffix():
    with pytest.raises(ValueError, match=r"^bad projected estimator name 'projected:abc'; "
                                         r"use projected:<inner>$"):
        build_estimator("projected:abc")


# --- harness ---

def test_sweep_with_wide_intervals_has_too_few_usable_points():
    # 100 trials leave every point's CI wider than 10% of its estimate.
    with pytest.raises(ValueError, match=r"^fewer than 4 usable points after CI filtering$"):
        scaling_sweep("median", "resample", variable="eta", values=[0.1, 0.2, 0.3, 0.4], n=20,
                      trials=100, seed=0)


def test_obstruction_takes_a_scalar_estimator():
    with pytest.raises(ValueError, match=r"^mean_obstruction_low takes a scalar estimator; "
                                         r"mean has output_dim 2$"):
        mean_obstruction_low(mean_estimator(2), eta=0.05, delta=0.5, n=400, trials=100)


@pytest.mark.parametrize("prior", [(0.5, 0.2), (-0.1, 0.5), (0.2, 1.5)])
def test_obstruction_prior_must_lie_inside_the_unit_interval(prior):
    with pytest.raises(ValueError, match=r"^prior must be an interval inside \[0, 1\], got "
                                         + re.escape(repr(prior)) + "$"):
        mean_obstruction_low("clipped-mean", eta=0.05, delta=0.5, n=400, trials=100, prior=prior)
