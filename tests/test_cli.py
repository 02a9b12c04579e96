import hashlib
import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from senslab import GaussianModel, estimate_es
from senslab.cli import build_parser, main


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

    def test_mu_of_the_wrong_length_is_an_error(self, capsys):
        code = main(["sensitivity", "--d", "3", "--mu", "1", "2", "--n", "20",
                     "--trials", "100"])
        assert code == 2
        assert capsys.readouterr().err == "error: mu has 2 entries but d is 3\n"

    def test_projected_estimator_rejects_a_mu_vector(self, capsys):
        code = main(["sensitivity", "--estimator", "projected:16", "--d", "4",
                     "--mu", "1,2,3,4", "--n", "20", "--trials", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: projected:16 takes scalar clean data, so mu needs "
                                "one entry, got 4\n")

    def test_delta_without_local_shift_is_an_error(self, capsys):
        for command in (["sensitivity"], ["scaling", "--values", "0.02,0.04,0.08,0.16"]):
            code = main([*command, "--delta", "0.5", "--n", "20", "--trials", "100"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == "error: resample takes no delta, got delta=0.5\n"

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

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_is_an_error(self, capsys, workers):
        code = main(["sensitivity", "--n", "50", "--trials", "100", "--workers", workers])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: workers must be an integer >= 1, got {workers}\n")


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

    def test_projected_d_sweep(self, capsys):
        code, out = run_cli(
            capsys, "scaling", "--estimator", "projected:16", "--sweep", "d",
            "--values", "2,4,8,16", "--n", "200", "--trials", "400", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == [2.0, 4.0, 8.0, 16.0]
        assert all(payload["used"])

    def test_csv_flag_is_rejected(self, capsys, tmp_path):
        # scaling writes no CSV row, so --csv is not one of its flags.
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--sweep", "eta", "--values", "0.02,0.04,0.08,0.16",
                  "--csv", str(tmp_path / "fit.csv")])
        assert exc.value.code == 2
        assert "--csv" in capsys.readouterr().err
        assert not (tmp_path / "fit.csv").exists()

    def test_missing_values_is_an_error(self, capsys):
        code, _ = run_cli(capsys, "scaling", "--sweep", "eta")
        assert code == 2


class TestVerifyCommand:
    def test_small_scale_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--trials-scale", "2000", "--seed", "2")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_scale_below_1000_is_an_error(self, capsys):
        code = main(["verify", "--trials-scale", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: trials_scale must be an integer >= 1000, got 1\n"

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


def run_config(capsys, tmp_path, command, text, *argv):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    return run_cli(capsys, command, "--config", str(cfg), *argv)


class TestConfigGoesThroughTheParser:
    def test_bad_choice_in_config_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_config(capsys, tmp_path, "bernoulli", "mode=exakt\ntrials=100\n")
        assert exc.value.code == 2
        assert "invalid choice: 'exakt'" in capsys.readouterr().err

    def test_empty_value_in_config_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_config(capsys, tmp_path, "sensitivity", "delta=\n")
        assert exc.value.code == 2
        assert "--delta" in capsys.readouterr().err

    def test_q_outside_choices_in_bernoulli_config_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_config(capsys, tmp_path, "bernoulli", "q=3\n")
        assert exc.value.code == 2

    def test_missing_config_file_is_an_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.cfg"
        assert main(["sensitivity", "--config", str(missing)]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot read config file {str(missing)!r}: No such file or directory\n")

    def test_abbreviated_key_is_unknown(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_config(capsys, tmp_path, "sensitivity", "tri=5\n")
        assert exc.value.code == "unknown config key 'tri'"

    def test_negative_mu_list_and_flag_override(self, capsys, tmp_path):
        def library(mu):
            return estimate_es("mean", "resample", GaussianModel(mu), eta=0.1, n=40,
                               trials=120, seed=6).to_json() + "\n"

        text = "d=2\nmu=-1,-2\nn=40\ntrials=120\nseed=6\n"
        code, from_file = run_config(capsys, tmp_path, "sensitivity", text)
        assert code == 0
        assert from_file == library([-1.0, -2.0])
        code, overridden = run_config(capsys, tmp_path, "sensitivity", text, "--mu", "3")
        assert code == 0
        assert overridden == library([3.0, 3.0])
        assert overridden != from_file

    @pytest.mark.parametrize("argv", [
        ["--mu", "1", "2"], ["--mu", "1,2"], ["--mu=1,2"], ["--mu", "1,", "2"],
    ])
    def test_list_flag_syntaxes_agree(self, argv):
        args = build_parser().parse_args(["sensitivity", *argv])
        assert args.mu == [1.0, 2.0]


# sha256 of stdout; pinned before config files went through the parser.
_PINNED_STDOUT = {
    "sensitivity-resample": (
        ["sensitivity", "--estimator", "mean", "--adversary", "resample", "--n", "400",
         "--d", "16", "--eta", "0.1", "--q", "2", "--trials", "300", "--seed", "1"],
        "cd35f355163ca33fa02516d4c15a435d39c1fa642ac6c6ad2a78668aa7d68b49"),
    "sensitivity-median-exact": (
        ["sensitivity", "--estimator", "median", "--adversary", "median-exact",
         "--n", "1001", "--eta", "0.05", "--trials", "200", "--seed", "1"],
        "e6dfffebfa6a9dbdfc214c456343baa266b35c81561fdf094271729a741ae545"),
    "scaling": (
        ["scaling", "--sweep", "eta", "--values", "0.02,0.04,0.08,0.16",
         "--estimator", "mean", "--adversary", "resample", "--n", "1000", "--d", "4",
         "--trials", "400", "--seed", "7"],
        "f05ead2cc7bf72ab410670c4cc74cdba016dcbda3c9391ac985702ca29ad2a18"),
    "bernoulli-exact": (
        ["bernoulli", "--n", "12", "--eta", "0.09", "--p", "0.5",
         "--estimator", "bernoulli-plugin", "--mode", "exact"],
        "d191ae891f62dbe4e464b8681fa613c0a2255bb0d19296961be746ff7f50d3d0"),
    "bernoulli-mc": (
        ["bernoulli", "--n", "12", "--eta", "0.09", "--p", "0.3", "--mode", "mc",
         "--trials", "150", "--seed", "4"],
        "56e1bfbb9a644702a150b5d727bb510fe6dbd6f941dad5dc309ce3aa4efbd6f0"),
    "config-mu": (
        ["sensitivity", "--config", "{cfg}"],
        "86a85dafc2f4abefcb458bc69ce18b4a03f98be88a7fdfa4f3a2cbdb6f153e69"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_STDOUT))
def test_pinned_stdout(name, capsys, tmp_path):
    cfg = tmp_path / "mu.cfg"
    cfg.write_text("d=2\nmu=1,2\nn=50\ntrials=150\nseed=2\n")
    argv, digest = _PINNED_STDOUT[name]
    code, out = run_cli(capsys, *(a.format(cfg=cfg) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSharedErrorPath:
    def test_scaling_unbounded_request_is_structured_diagnostic(self, capsys):
        code, out = run_cli(
            capsys, "scaling", "--estimator", "mean", "--adversary", "median-exact",
            "--values", "0.02,0.04,0.08,0.16", "--n", "101", "--trials", "100",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "unbounded-sensitivity"
        assert payload["adversary"] == "median-exact"

    def test_scaling_mu_of_the_wrong_length_is_an_error(self, capsys):
        code = main(["scaling", "--d", "3", "--mu", "1", "2", "--sweep", "eta",
                     "--values", "0.02,0.04,0.08,0.16", "--n", "400", "--trials", "300"])
        assert code == 2
        assert capsys.readouterr().err == "error: mu has 2 entries but d is 3\n"

    def test_scaling_keeps_every_mu_entry(self, capsys):
        values = [0.02, 0.04, 0.08, 0.16]
        code, out = run_cli(
            capsys, "scaling", "--d", "2", "--mu", "0.5", "-0.5", "--sweep", "eta",
            "--values", *map(str, values), "--n", "400", "--trials", "200", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        for i, eta in enumerate(values):
            report = estimate_es("mean", "resample", GaussianModel([0.5, -0.5]), eta=eta,
                                 n=400, trials=200, seed=2)
            got = (payload["es_estimates"][i], payload["ci_lows"][i], payload["ci_highs"][i])
            assert got == (report.es_estimate, report.ci_low, report.ci_high)

    def test_bernoulli_exact_mode_rejects_q_2(self, capsys):
        code = main(["bernoulli", "--estimator", "median", "--n", "9", "--eta", "0.2",
                     "--p", "0.3", "--q", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: exact mode")

    @pytest.mark.parametrize("estimator", ["mean", "median", "clipped-mean", "projected:16"])
    def test_bernoulli_exact_mode_refuses_what_mc_mode_refuses(self, capsys, estimator):
        # The binary ball bounds a binary-domain estimator only: both modes run
        # the hamming-ball request's check before computing anything.
        code = main(["bernoulli", "--estimator", estimator, "--n", "12", "--eta", "0.09",
                     "--mode", "exact"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: hamming-ball enumerates binary corruptions; use a binary-domain "
                "estimator such as bernoulli-plugin\n")


def _readme_commands() -> list[list[str]]:
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("senslab ")]


def test_readme_cli_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_readme_cli_commands_run(capsys, tmp_path, monkeypatch):
    # Each README line at a token size: later flags override earlier ones.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands[0][-2:] == ["--out", "report.json"]
    for argv in commands:
        small = ["--trials-scale", "1000"] if argv[1] == "verify" else ["--trials", "100"]
        assert main([*argv[1:], *small]) == 0, argv
        out = capsys.readouterr().out
        if argv[1] == "verify":
            assert out.startswith("check ") and "all checks passed" in out
        else:
            assert json.loads(out)["schema"] == "senslab/v1"
    assert json.loads((tmp_path / "report.json").read_text())["adversary"] == "resample"
