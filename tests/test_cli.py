import json
import warnings

import numpy as np
import pytest

from parsimid import RealizationConfig, fit_metric, impulse_response, load_model, simulate
from parsimid.benchmark import example1_system, example2_scenario
from parsimid.cli import EXIT_NOINPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, parse_args

from helpers import child_env


def write_record_csv(path, u, y):
    lines = ["t,u,y"] + [f"{t},{float(ut)!r},{float(yt)!r}" for t, (ut, yt) in enumerate(zip(u, y))]
    path.write_text("\n".join(lines) + "\n")


class TestParseArgs:
    def test_identify_flags(self):
        cfg = parse_args([
            "identify", "--method", "parsim-opt", "--order", "2", "--f", "10",
            "--p", "aic", "--in", "data.csv", "--out", "model.json",
        ])
        assert cfg.command == "identify"
        assert cfg.method == "parsim_opt"
        assert cfg.order == 2 and cfg.f == 10 and cfg.p == "aic"
        # p = order + 1, the lowest order AIC can pick, until AIC picks it
        assert cfg.config == RealizationConfig(n_x=2, f=10, p=3, method="parsim_opt")

    def test_explicit_past_horizon(self):
        cfg = parse_args([
            "identify", "--method", "parsim", "--order", "2", "--p", "20",
            "--in", "a.csv", "--out", "m.json",
        ])
        assert cfg.p == 20
        assert cfg.config == RealizationConfig(n_x=2, f=10, p=20, method="parsim")

    def test_benchmark_flags(self):
        cfg = parse_args(["benchmark", "--scenario", "example1", "--trials", "50", "--seed", "7", "--out", "d"])
        assert cfg.command == "benchmark"
        assert cfg.trials == 50 and cfg.seed == 7
        assert cfg.methods == ()
        cfg = parse_args(["benchmark", "--scenario", "example1", "--methods", "parsim-opt, ssarx", "--out", "d"])
        assert cfg.methods == ("parsim_opt", "ssarx")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "--system", "example1", "--seed", "-1"], "--seed must be >= 0"),
            (["benchmark", "--scenario", "example1", "--seed", "-1"], "--seed must be >= 0"),
            (["simulate", "--system", "example1", "--input-kind", "rbs", "--rbs-band", "2"],
             "--rbs-band must be in (0, 1]"),
            (["simulate", "--system", "example1", "--rbs-band", "0"], "--rbs-band must be in (0, 1]"),
            # RealizationConfig and Scenario own these rules.
            (["identify", "--method", "parsim", "--order", "2", "--p", "0", "--in", "a.csv"],
             "past horizon must be >= 1"),
            (["identify", "--method", "parsim", "--order", "1", "--f", "1", "--in", "a.csv"],
             "future horizon must be >= 2"),
            (["benchmark", "--scenario", "example1", "--trials", "0"], "trials must be >= 1"),
            (["benchmark", "--scenario", "example3", "--trials", "0"], "trials must be >= 1"),
            (["benchmark", "--scenario", "example1-sweep", "--trials", "-2"], "trials must be >= 1"),
            # ss_model's integer and variance rules.
            (["simulate", "--system", "example1", "--n-samples", "0"], "--n-samples must be >= 1, got 0"),
            (["benchmark", "--scenario", "example1", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["simulate", "--system", "example1", "--noise-variance", "-1"],
             "--noise-variance must be finite and >= 0, got -1.0"),
            (["simulate", "--system", "example1", "--noise-variance", "nan"],
             "--noise-variance must be finite and >= 0, got nan"),
            (["simulate", "--system", "example1", "--noise-variance", "inf"],
             "--noise-variance must be finite and >= 0, got inf"),
            # Scenario owns this rule too.
            (["benchmark", "--scenario", "example1", "--methods", "parsim,parsim"],
             "each method may be listed once, got ('parsim', 'parsim')"),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"CONFIG: {message}")
        assert not out.exists()

    def test_zero_order_is_usage_error(self):
        assert main([
            "identify", "--method", "parsim", "--order", "0",
            "--in", "a.csv", "--out", "m.json",
        ]) == EXIT_USAGE

    def test_order_must_fit_horizon(self):
        assert main([
            "identify", "--method", "parsim", "--order", "10", "--f", "10",
            "--in", "a.csv", "--out", "m.json",
        ]) == EXIT_USAGE

    def test_benchmark_scenario_is_built(self):
        cfg = parse_args(["benchmark", "--scenario", "example2", "--trials", "3", "--methods", "ssarx", "--out", "d"])
        assert cfg.scenario_run == example2_scenario(trials=3, methods=("ssarx",))

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["identify", "--nope", "1"])
        assert exc.value.code == 2

    def test_unknown_method_list_in_benchmark(self):
        assert main(["benchmark", "--scenario", "example1", "--methods", "bogus", "--out", "d"]) == EXIT_USAGE


class TestSimulateCommand:
    def test_impulse_output_matches_oracle(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--system", "example1", "--input-kind", "impulse",
            "--n-samples", "8", "--noise-variance", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:4, 2], [0.0, 0.21, 0.196, -0.0504], atol=1e-12)
        np.testing.assert_array_equal(data[:, 0], np.arange(8))

    def test_seeded_gaussian_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "simulate", "--system", "example1", "--n-samples", "64",
                "--noise-variance", "4", "--seed", "3", "--out", str(out),
            ]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_model_file_missing(self, tmp_path):
        code = main([
            "simulate", "--model", str(tmp_path / "nope.json"),
            "--n-samples", "10", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == EXIT_NOINPUT

    def test_output_in_missing_directory_is_io_error(self, tmp_path, capsys):
        code = main([
            "simulate", "--system", "example1", "--n-samples", "10",
            "--out", str(tmp_path / "nodir" / "x.csv"),
        ])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("IO: ") and "nodir" in err and "input file not found" not in err

    @pytest.mark.parametrize(
        "body",
        ["{not json", json.dumps({"A": "abc", "B": 1, "C": 1, "D": 0, "K": 0, "sigma_e2": 1}), "[1, 2]"],
        ids=["invalid-json", "string-matrix", "list"],
    )
    def test_malformed_model_file_is_config_error(self, tmp_path, capsys, body):
        model = tmp_path / "bad.json"
        model.write_text(body)
        code = main(["simulate", "--model", str(model), "--n-samples", "10", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("CONFIG: ") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()


class TestIdentifyCommand:
    def test_noise_free_round_trip(self, tmp_path):
        m = example1_system()
        rng = np.random.default_rng(0)
        u = rng.standard_normal(2000)
        y = simulate(m, u)
        data = tmp_path / "data.csv"
        write_record_csv(data, u, y)
        out = tmp_path / "model.json"
        code = main([
            "identify", "--method", "parsim", "--order", "2", "--f", "10",
            "--p", "20", "--in", str(data), "--out", str(out),
        ])
        assert code == EXIT_OK
        ident = load_model(out)
        fit = fit_metric(impulse_response(m, 100), impulse_response(ident, 100))
        assert fit > 99.9

    def test_missing_input_exits_66(self, tmp_path):
        code = main([
            "identify", "--method", "parsim", "--order", "2",
            "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_NOINPUT

    def test_output_in_missing_directory_is_io_error(self, tmp_path, capsys):
        u = np.random.default_rng(0).standard_normal(600)
        data = tmp_path / "data.csv"
        write_record_csv(data, u, simulate(example1_system(), u))
        code = main([
            "identify", "--method", "parsim", "--order", "2", "--p", "12",
            "--in", str(data), "--out", str(tmp_path / "nodir" / "model.json"),
        ])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("IO: ") and "nodir" in err and "input file not found" not in err

    def test_short_record_fails_with_config_prefix(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        write_record_csv(data, np.ones(6), np.ones(6))
        code = main([
            "identify", "--method", "parsim", "--order", "2", "--p", "20",
            "--in", str(data), "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("CONFIG:")

    def test_bad_header_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("time,in,out\n0,1.0,2.0\n")
        code = main([
            "identify", "--method", "parsim", "--order", "2",
            "--in", str(data), "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("CONFIG:")

    @pytest.mark.parametrize("body", ["t,u,y\n", "t,u,y", "t,u,y\n\n  \n"])
    def test_header_only_record_rejected_without_warning(self, tmp_path, capsys, body):
        data = tmp_path / "empty.csv"
        data.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "identify", "--method", "parsim", "--order", "2",
                "--in", str(data), "--out", str(tmp_path / "m.json"),
            ])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == f"CONFIG: {data} has no samples below its 't,u,y' header\n"
        assert not (tmp_path / "m.json").exists()


class TestBenchmarkCommand:
    def test_outputs_written(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--scenario", "example1", "--trials", "2", "--seed", "11",
            "--methods", "parsim", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "trials.csv").exists()
        doc = json.loads((out / "aggregates.json").read_text())
        assert doc["scenario"]["trials"] == 2

    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main([
                "benchmark", "--scenario", "example1", "--trials", "2", "--seed", "11",
                "--methods", "parsim,ssarx", "--out", str(out),
            ]) == EXIT_OK
            outs.append(out)
        assert (outs[0] / "trials.csv").read_bytes() == (outs[1] / "trials.csv").read_bytes()
        assert (outs[0] / "aggregates.json").read_bytes() == (outs[1] / "aggregates.json").read_bytes()

    def test_sweep_scenario_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "benchmark", "--scenario", "example1-sweep", "--trials", "1", "--seed", "2",
            "--methods", "parsim,parsim-opt", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "error_g_vs_n.csv").read_text().splitlines()
        assert lines[0] == "n_samples,method,error_g_mean,error_g_var"
        assert (out / "trials_n2000.csv").exists()

    def test_joint_fit_scenario_outputs(self, tmp_path):
        out = tmp_path / "joint"
        code = main([
            "benchmark", "--scenario", "example3", "--trials", "1", "--seed", "2",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "joint_fit.csv").read_text().splitlines()
        assert lines[0] == "noise_variance,trial,fit_parsim,fit_parsim_opt"
        assert len(lines) == 4


class TestLogging:
    def test_log_level_env_var(self, tmp_path):
        import subprocess
        import sys

        def run_cli(level, *args):
            return subprocess.run(
                [sys.executable, "-m", "parsimid.cli", *args],
                capture_output=True,
                env=child_env(PARSIM_LOG=level),
            )

        out = tmp_path / "sim.csv"
        proc = run_cli("info", "simulate", "--system", "example1",
                       "--input-kind", "gaussian", "--n-samples", "2200", "--seed", "4",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr.decode()
        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        out.rename(data)
        identify = ("identify", "--method", "parsim", "--order", "2", "--p", "20",
                    "--in", str(data), "--out", str(model))
        proc = run_cli("info", *identify)
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"INFO" in proc.stderr
        assert b"singular values" in proc.stderr

        proc = run_cli("error", *identify)
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"INFO" not in proc.stderr
