import json
import subprocess
import sys

import pytest

from senslab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSensitivityCommand:
    def test_json_report_on_stdout_and_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "sensitivity", "--estimator", "mean", "--adversary", "resample",
            "--n", "50", "--d", "2", "--eta", "0.1", "--q", "2",
            "--trials", "200", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "senslab/v1"
        assert payload["k"] == 5
        assert payload["adversary"] == "resample"
        assert json.loads(out_path.read_text()) == payload

    def test_csv_output_fixed_columns(self, capsys, tmp_path):
        csv_path = tmp_path / "row.csv"
        code, _ = run_cli(
            capsys, "sensitivity", "--n", "50", "--eta", "0.1",
            "--trials", "150", "--seed", "1", "--csv", str(csv_path),
        )
        assert code == 0
        header, row = csv_path.read_text().strip().splitlines()
        assert header == ("eta,n,d,k,estimator,adversary,q,es_estimate,ci_low,"
                          "ci_high,lower_bound_only,trials,seed")
        assert row.split(",")[4] == "mean"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("estimator=mean\nadversary=resample\nn=50\neta=0.2\n"
                       "trials=150\nseed=9\n")
        code, out = run_cli(capsys, "sensitivity", "--config", str(cfg),
                            "--eta", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == 0.1          # flag wins
        assert payload["n"] == 50             # file value
        assert payload["seed"] == 9

    def test_unbounded_request_is_structured_diagnostic(self, capsys):
        code, out = run_cli(
            capsys, "sensitivity", "--estimator", "mean", "--adversary",
            "median-exact", "--n", "101", "--eta", "0.1", "--trials", "100",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "unbounded-sensitivity"

    def test_keep_trials_is_an_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=50\ntrials=150\nkeep_trials=1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "senslab", "sensitivity", "--config", str(cfg)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.strip() == "unknown config key 'keep_trials'"
        assert proc.stdout == ""

    def test_worker_flag_reproduces_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, workers in zip(paths, ("1", "3")):
            code, _ = run_cli(
                capsys, "sensitivity", "--n", "60", "--eta", "0.1",
                "--trials", "200", "--seed", "5", "--workers", workers,
                "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestScalingCommand:
    def test_eta_sweep(self, capsys):
        code, out = run_cli(
            capsys, "scaling", "--sweep", "eta", "--values", "0.02,0.04,0.08,0.16",
            "--estimator", "mean", "--adversary", "resample",
            "--n", "1000", "--d", "4", "--trials", "400", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "scaling-fit"
        assert 0.4 <= payload["slope"] <= 0.6
        assert len(payload["es_estimates"]) == 4

    def test_missing_values_is_an_error(self, capsys):
        code, _ = run_cli(capsys, "scaling", "--sweep", "eta")
        assert code == 2


class TestVerifyCommand:
    def test_small_scale_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--trials-scale", "2000", "--seed", "2")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_failing_row_gives_nonzero_exit(self, capsys, monkeypatch):
        import senslab.cli as cli_mod
        from senslab import IneqCheckResult
        from senslab.harness import VerifyRow

        def broken_suite(trials_scale, seed):
            return [VerifyRow("self-test/flipped-inequality",
                              IneqCheckResult(lhs=1.0, rhs=0.0, holds=False))]

        monkeypatch.setattr(cli_mod, "verify_suite", broken_suite)
        code, out = run_cli(capsys, "verify", "--trials-scale", "100", "--seed", "0")
        assert code == 1
        assert "FAIL" in out


class TestBernoulliCommand:
    def test_exact_mode(self, capsys):
        code, out = run_cli(
            capsys, "bernoulli", "--n", "12", "--eta", "0.09", "--p", "0.5",
            "--estimator", "bernoulli-plugin", "--mode", "exact",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "bernoulli-exact"
        assert payload["k"] == 1
        assert payload["expected_sensitivity"] == pytest.approx(1 / 12, abs=1e-12)

    def test_mc_mode_matches_exact_for_plugin(self, capsys):
        code, out = run_cli(
            capsys, "bernoulli", "--n", "12", "--eta", "0.09", "--p", "0.3",
            "--mode", "mc", "--trials", "150", "--seed", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "sensitivity-report"
        assert payload["es_estimate"] == pytest.approx(1 / 12, abs=1e-12)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "senslab", "bernoulli", "--n", "8",
             "--eta", "0.2", "--p", "0.5", "--mode", "exact"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 1
