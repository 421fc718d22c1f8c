from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stcca.adapt import run_adaptive_chain
from stcca.cli import (
    _read_trace_csv,
    _report_dict,
    _write_trace_csv,
    aggregate_replications,
    main,
    validate_config,
)
from stcca.coupling import coupling_limits
from stcca.covariance import Dataset, estimate_gep
from stcca.errors import ConfigError, EmptyInputError, StccaError
from stcca.model import DEFAULT_TEMPERATURES, PriorConfig
from stcca.postprocess import build_report
from stcca.sampler import ChainTrace
from stcca.simdata import build_population_cov, sample_gaussian_pairs


def run_cli(args):
    return main([str(a) for a in args])


SMALL_SAMPLE = [
    "sample",
    "--p_x", 10, "--p_y", 10, "--n", 30, "--N", 80, "--J", 20,
    "--temperatures", "[1.0,1.2,1.5]",
]


class TestConfigValidation:
    def test_defaults_resolve(self):
        cfg = validate_config({}, "sample")
        assert cfg.p == 100
        assert cfg.temperatures[0] == 1.0
        assert len(cfg.temperatures) == 5
        assert cfg.seeds == (0,)
        assert cfg.mode == "sample"

    def test_unknown_key_rejected(self):
        # `temperatures` is the one way to give a ladder
        for raw in ({"p_q": 3}, {"ladder_count": 3}):
            with pytest.raises(ConfigError, match="unknown config keys"):
                validate_config(raw, "sample")

    def test_mode_subcommand_conflict(self):
        with pytest.raises(ConfigError):
            validate_config({"mode": "couple"}, "sample")

    def test_bad_ladder_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"temperatures": [1.0, 0.9]}, "sample")
        with pytest.raises(ConfigError):
            validate_config({"temperatures": [2.0, 3.0]}, "sample")

    def test_simulation_needs_divisible_dims(self):
        for dims in ({"p_x": 5, "p_y": 5}, {"p_x": 30, "p_y": 70}):
            with pytest.raises(ConfigError):
                validate_config(dims, "sample")
        # loading data lifts the divisibility requirement
        cfg = validate_config({"p_x": 5, "p_y": 5, "data_dir": "d"}, "sample")
        assert cfg.p == 10

    def test_bad_prior_and_scalars(self):
        with pytest.raises(ConfigError):
            validate_config({"rho0": 0.1, "rho1": 0.5}, "sample")
        with pytest.raises(ConfigError, match=r"^invalid prior settings: q must lie in \(0, 1\)$"):
            validate_config({"q": 1.5}, "sample")
        with pytest.raises(ConfigError):
            validate_config({"n": 0}, "sample")
        with pytest.raises(ConfigError):
            validate_config({"lambda1": 1.0}, "sample")
        with pytest.raises(ConfigError):
            validate_config({"estimator": "spearman"}, "sample")
        with pytest.raises(ConfigError):
            validate_config({"seeds": []}, "sample")
        with pytest.raises(ConfigError):
            validate_config({"lag": 9, "n_max": 9}, "couple")

    def test_couple_grid_checked(self):
        # lag defaults to each grid entry and n_max to 10p + 1000, so the
        # check runs on the values each entry will use
        for raw in (
            {"p_grid": [15]},
            {"p_grid": [20, 40], "n_max": 30},
            {"p_grid": [20], "lag": 5000},
            # couple runs on the population pair and reads none of these
            {"p_grid": [20], "data_dir": "/nonexistent", "estimator": "kendall-sine", "c": 0.5},
            {"p_grid": [20], "data_dir": "d"},
            {"p_grid": [20], "estimator": "sample"},
            {"p_grid": [20], "c": 0},
        ):
            with pytest.raises(ConfigError):
                validate_config(raw, "couple")
        cfg = validate_config({"p_x": 25, "p_y": 25}, "couple")
        assert cfg.p_grid == (50,)

    def test_string_coercions(self):
        cfg = validate_config(
            {"p_x": "10", "p_y": "10", "sigma": "2.0", "seeds": "1,2"},
            "sample",
        )
        assert cfg.p_x == 10 and cfg.sigma == 2.0 and cfg.seeds == (1, 2)
        with pytest.raises(ConfigError):
            validate_config({"p_x": True}, "sample")


class TestAggregateReplications:
    def test_single_report_zero_sd(self):
        agg = aggregate_replications([{"mse_x": 0.25}])
        assert agg["mse_x"]["mean"] == 0.25
        assert agg["mse_x"]["sd"] == 0.0

    def test_two_value_formatting(self):
        agg = aggregate_replications([{"mse_x": 0.0}, {"mse_x": 2.0}])
        assert agg["mse_x"]["formatted"] == "1.00 (1.41)"

    def test_identical_reports_exact_zero_sd(self):
        agg = aggregate_replications([{"tpr_x": 0.8}] * 5)
        assert agg["tpr_x"]["sd"] == 0.0

    def test_partial_metrics_skipped(self):
        agg = aggregate_replications([{"mse_x": 0.1}, {"mse_y": 0.2}])
        assert agg == {}

    def test_empty_errors(self):
        with pytest.raises(EmptyInputError):
            aggregate_replications([])


class TestErrorSurface:
    def test_invalid_config_structured_stderr_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "bad"
        rc = run_cli(["simulate", "--p_x", 5, "--p_y", 5, "--out", out])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "divisible by 20" in record["message"]
        assert not out.exists()

    def test_runtime_error_nonzero(self, tmp_path, capsys):
        # valid config, but the data directory is missing at run time
        rc = run_cli([
            "sample", "--p_x", 10, "--p_y", 10, "--n", 30,
            "--data_dir", tmp_path / "nowhere", "--out", tmp_path / "o",
        ])
        assert rc != 0
        record = json.loads(capsys.readouterr().err)
        assert "error" in record and "message" in record

    def fails_on(self, capsys, argv, path, out):
        # exit 2 with a ConfigError record that names the bad file, and no
        # output directory
        capsys.readouterr()
        assert run_cli([*argv, "--out", out]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert str(path) in record["message"]
        assert not out.exists()
        return record["message"]

    def report_fails_on(self, tmp_path, capsys, trace, args=("--p_x", 10, "--p_y", 10)):
        return self.fails_on(capsys, ["report", *args, "--trace", trace], trace, tmp_path / "rep")

    # files of a data directory: "x_not_utf8" and "truth_not_utf8" hold a
    # byte that is not UTF-8, "ragged" drops the last cell of an X.csv row,
    # "not_object" is a truth.json holding a number, and "non_numeric" one
    # whose v_x_star holds strings
    @pytest.mark.parametrize("damage", [
        "x_not_utf8", "ragged", "truth_not_utf8", "not_object", "non_numeric"])
    def test_malformed_data_file_structured_error(self, tmp_path, capsys, damage):
        data_dir = tmp_path / "data"
        dims = ["--p_x", 10, "--p_y", 10, "--n", 25]
        assert run_cli(["simulate", *dims, "--out", data_dir]) == 0
        X, truth = data_dir / "X.csv", data_dir / "truth.json"
        if damage == "x_not_utf8":
            X.write_bytes(X.read_bytes().replace(b"\n", b"\xff\n", 2))
        elif damage == "ragged":
            lines = X.read_text().splitlines()
            lines[3] = lines[3].rsplit(",", 1)[0]
            X.write_text("\n".join(lines) + "\n")
        elif damage == "truth_not_utf8":
            truth.write_bytes(b"\xff" + truth.read_bytes())
        elif damage == "not_object":
            truth.write_text("7\n")
        else:
            doc = json.loads(truth.read_text())
            doc["v_x_star"] = ["a"] * 10
            truth.write_text(json.dumps(doc))
        bad = X if damage in ("x_not_utf8", "ragged") else truth
        self.fails_on(capsys, ["estimate-cov", *dims, "--data_dir", data_dir], bad,
                      tmp_path / "est")

    # v_x_star cut to 3 entries, or v_y_star grown to 11, at p_x = p_y = 10:
    # `sample --data_dir` and `report --truth` both exit 2, naming the file
    @pytest.mark.parametrize("route", ["sample", "report"])
    @pytest.mark.parametrize("key, length", [("v_x_star", 3), ("v_y_star", 11)])
    def test_truth_vector_lengths_checked(self, tmp_path, capsys, route, key, length):
        data_dir = tmp_path / "data"
        assert run_cli(["simulate", "--p_x", 10, "--p_y", 10, "--n", 30, "--out", data_dir]) == 0
        truth = data_dir / "truth.json"
        doc = json.loads(truth.read_text())
        doc[key] = (doc[key] * 2)[:length]
        truth.write_text(json.dumps(doc))
        if route == "sample":
            argv = [*SMALL_SAMPLE, "--data_dir", data_dir]
        else:
            assert run_cli([*SMALL_SAMPLE, "--out", tmp_path / "run"]) == 0
            argv = ["report", "--p_x", 10, "--p_y", 10, "--truth", truth,
                    "--trace", tmp_path / "run" / "trace_s0.csv"]
        message = self.fails_on(capsys, argv, truth, tmp_path / "out")
        assert "p_x = 10, p_y = 10" in message

    # a state row is iter, k, support_size, rayleigh, then (index, theta)
    # pairs: "300" and "-1" are indices outside [0, 20), "2" repeats the
    # first index, "support" miscounts the pairs, "dense" is the 2p-column
    # layout this file had before, and "not_utf8" holds a byte that is not UTF-8
    @pytest.mark.parametrize("damage", [
        "truncate", "non_numeric", "300", "-1", "2", "support", "dense", "not_utf8"])
    def test_malformed_trace_row_structured_error(self, tmp_path, capsys, damage):
        run_dir = tmp_path / "run"
        assert run_cli(SMALL_SAMPLE + ["--seed", 0, "--out", run_dir]) == 0
        trace = run_dir / "trace_s0.csv"
        lines = trace.read_text().splitlines()
        cells = lines[7].split(",")
        assert int(cells[2]) >= 2
        if damage == "truncate":
            cells = cells[:-3]
        elif damage == "non_numeric":
            cells[5] = "abc"
        elif damage == "300":
            cells[-2] = damage
        elif damage == "-1":
            cells[4] = damage
        elif damage == "2":
            cells[6] = cells[4]
        elif damage == "support":
            cells[2] = str(int(cells[2]) + 1)
        lines[7] = ",".join(cells)
        if damage == "dense":
            head = [f"{v}_{j}" for v in ("delta", "theta") for j in range(20)]
            lines = [",".join(["iter", "k", "support_size", "rayleigh"] + head),
                     ",".join(["0", "1", "1", "0.5", "1"] + ["0"] * 19 + ["0.3"] + ["0.0"] * 19)]
        trace.write_text("\n".join(lines) + "\n")
        if damage == "not_utf8":
            trace.write_bytes(trace.read_bytes().replace(b"\n", b"\xff\n", 4))
        message = self.report_fails_on(tmp_path, capsys, trace)
        if damage == "dense":
            assert "not a sparse trace CSV" in message

    # the iteration column must start at 0 and increase strictly: shifted by
    # -1000 the retention window holds no row, and a repeated or decreasing
    # number would silently change which rows are retained
    @pytest.mark.parametrize("damage", ["shifted", "repeated", "decreasing"])
    def test_iteration_column_checked(self, tmp_path, capsys, damage):
        run_dir = tmp_path / "run"
        assert run_cli(SMALL_SAMPLE + ["--N", 400, "--seed", 0, "--out", run_dir]) == 0
        trace = run_dir / "trace_s0.csv"
        lines = trace.read_text().splitlines()
        rows = [r.split(",") for r in lines[3:]]
        if damage == "shifted":
            for r in rows:
                r[0] = str(int(r[0]) - 1000)
            assert (rows[0][0], rows[-1][0]) == ("-1000", "-600")
        elif damage == "repeated":
            rows[10][0] = rows[9][0]
        else:
            rows[10][0], rows[11][0] = rows[11][0], rows[10][0]
        trace.write_text("\n".join(lines[:3] + [",".join(r) for r in rows]) + "\n")
        self.report_fails_on(tmp_path, capsys, trace)

    def test_report_checks_recorded_view_split(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli(SMALL_SAMPLE + ["--seed", 0, "--out", run_dir]) == 0
        message = self.report_fails_on(
            tmp_path, capsys, run_dir / "trace_s0.csv", ("--p_x", 5, "--p_y", 15))
        assert "p_x = 10, p_y = 10" in message


class TestSamplePipeline:
    def test_artifacts_and_shapes(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(SMALL_SAMPLE + ["--seeds", "[0,1]", "--out", out])
        assert rc == 0
        for name in ["config_echo.json", "report.json", "metrics.csv",
                     "trace_s0.csv", "trace_s1.csv", "acf.csv"]:
            assert (out / name).is_file(), name
        rep = json.loads((out / "report.json").read_text())
        assert [r["seed"] for r in rep["replications"]] == [0, 1]
        for r in rep["replications"]:
            assert len(r["delta_bar"]) == 20
            assert len(r["v_bar_x"]) == 10
            assert abs(np.linalg.norm(r["v_bar_x"]) - 1.0) < 1e-12
            assert 0.0 <= r["mse_x"] <= 2.0
        assert "mse_x" in rep["aggregate"]
        lines = (out / "trace_s0.csv").read_text().splitlines()
        assert len(lines) == 84  # view split, header, states 0..80
        assert lines[:3] == ["p_x,p_y", "10,10", "iter,k,support_size,rayleigh,index,theta"]
        for row in lines[3:]:
            cells = row.split(",")
            assert len(cells) == 4 + 2 * int(cells[2])
            idx = [int(j) for j in cells[4::2]]
            assert idx == sorted(set(idx)) and all(0 <= j < 20 for j in idx)

    def test_thinning_keeps_endpoints(self, tmp_path):
        out = tmp_path / "thin"
        rc = run_cli(SMALL_SAMPLE + ["--seed", 0, "--thin", 7, "--out", out])
        assert rc == 0
        rows = (out / "trace_s0.csv").read_text().splitlines()[3:]
        iters = [int(r.split(",")[0]) for r in rows]
        assert iters[0] == 0 and iters[-1] == 80
        assert all(t % 7 == 0 or t == 80 for t in iters)

    def test_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(SMALL_SAMPLE + ["--seeds", "[0,1]", "--out", out]) == 0
        for name in ["report.json", "trace_s0.csv", "trace_s1.csv",
                     "metrics.csv", "acf.csv", "config_echo.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "serial", tmp_path / "par"
        assert run_cli(SMALL_SAMPLE + ["--seeds", "[0,1]", "--out", a]) == 0
        assert run_cli(SMALL_SAMPLE + ["--seeds", "[0,1]", "--jobs", 2, "--out", b]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "trace_s1.csv").read_bytes() == (b / "trace_s1.csv").read_bytes()


@st.composite
def small_traces(draw):
    """(trace, p_x, thin): a random ChainTrace with empty, single-coordinate
    and wider supports, negative and signed-zero loadings, and k anywhere on
    a ladder of up to four rungs."""
    p = draw(st.integers(2, 12))
    n_iters = draw(st.integers(1, 40))
    rungs = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = n_iters + 1
    delta = (rng.random((rows, p)) < draw(st.floats(0.4, 0.95))).astype(np.uint8)
    single = rng.random(rows) < 0.15
    delta[single] = 0
    delta[single, rng.integers(0, p, single.sum())] = 1
    theta = rng.standard_normal((rows, p)) * 10.0 ** rng.integers(-100, 100, (rows, p))
    zeros = rng.random((rows, p)) < 0.1
    theta[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    trace = ChainTrace(
        delta=delta, theta=theta, k=np.where(rng.random(rows) < 0.5, 1, rng.integers(1, rungs + 1, rows)),
        rayleigh=rng.standard_normal(rows), n_iters=n_iters,
    )
    return trace, draw(st.integers(1, p - 1)), draw(st.integers(1, 9))


def report_json(trace, p_x) -> str:
    try:
        rep = _report_dict(build_report(trace, p_x))
        return json.dumps(rep, sort_keys=True, default=lambda o: o.tolist())
    except StccaError as exc:
        return type(exc).__name__ + str(exc)


@given(small_traces())
def test_sparse_trace_round_trip(case):
    trace, p_x, thin = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        _write_trace_csv(path, trace, thin, p_x)
        back, back_p_x = _read_trace_csv(path)
    rows = sorted(set(range(0, trace.n_iters + 1, thin)) | {trace.n_iters})
    kept = ChainTrace(
        delta=trace.delta[rows], theta=trace.theta[rows], k=trace.k[rows],
        rayleigh=trace.rayleigh[rows], n_iters=trace.n_iters, iters=np.array(rows),
    )
    assert (back_p_x, back.p, back.n_iters) == (p_x, trace.p, trace.n_iters)
    assert back.iters.tolist() == rows
    assert back.k.tolist() == kept.k.tolist()
    assert back.rayleigh.tobytes() == kept.rayleigh.tobytes()
    assert back.delta.tobytes() == kept.delta.tobytes()
    # selected loadings come back bit for bit, -0.0 included; unselected ones
    # are not stored and read back as +0.0, so theta * delta is unchanged
    on = kept.delta == 1
    assert back.theta[on].tobytes() == kept.theta[on].tobytes()
    assert not np.signbit(back.theta[~on]).any() and not back.theta[~on].any()
    assert (back.theta * back.delta == kept.theta * kept.delta).all()
    assert report_json(back, p_x) == report_json(kept, p_x)
    if thin == 1:
        assert report_json(back, p_x) == report_json(trace, p_x)


class TestSameMethodAsLibrary:
    """The CLI's defaults are the library's: a config that sets no method
    key runs exactly the sampler a library caller gets by default."""

    def test_sample_equals_library_pipeline(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["sample", "--p_x", 10, "--p_y", 10, "--n", 30, "--N", 80,
                        "--out", out]) == 0
        got = json.loads((out / "report.json").read_text())["replications"]

        # the documented stream layout: seed 0 spawns (data, chain)
        data_ss, chain_ss = np.random.SeedSequence(0).spawn(2)
        model = build_population_cov(20)
        gep = estimate_gep(sample_gaussian_pairs(model, 30, data_ss))
        trace, _ = run_adaptive_chain(
            gep, PriorConfig.defaults(20), DEFAULT_TEMPERATURES, 80, seed=chain_ss
        )
        want = build_report(trace, 10, truth_x=model.v_x_star, truth_y=model.v_y_star)

        assert len(got) == 1 and got[0]["seed"] == 0
        rep = got[0]
        assert rep["p_x"] == want.p_x
        assert rep["n_samples"] == want.n_samples
        assert rep["n_skipped"] == want.n_skipped
        for name in ("delta_bar", "v_bar_x", "v_bar_y", "inclusion_probs"):
            assert rep[name] == getattr(want, name).tolist(), name
        for name in ("mse_x", "mse_y", "tpr_x", "tpr_y", "tnr_x", "tnr_y"):
            assert rep[name] == getattr(want, name), name

    @pytest.mark.parametrize("p", [10, 20, 100])
    def test_couple_limits_are_the_coupling_default(self, p):
        # a config without lag or n_max leaves both to coupling_limits
        cfg = validate_config({}, "couple")
        assert coupling_limits(p, cfg.lag, cfg.n_max) == (p, 10 * p + 1000)


class TestStageRoundTrips:
    def test_simulate_then_estimate_cov_matches_library(self, tmp_path):
        data_dir = tmp_path / "data"
        rc = run_cli(["simulate", "--p_x", 10, "--p_y", 10, "--n", 25,
                      "--seed", 3, "--out", data_dir])
        assert rc == 0
        truth = json.loads((data_dir / "truth.json").read_text())
        assert truth["support_x"] == [0, 5]
        cov_dir = tmp_path / "cov"
        rc = run_cli(["estimate-cov", "--p_x", 10, "--p_y", 10, "--n", 25,
                      "--data_dir", data_dir, "--out", cov_dir])
        assert rc == 0
        A = np.loadtxt(cov_dir / "gep_A.csv", delimiter=",", ndmin=2)
        B = np.loadtxt(cov_dir / "gep_B.csv", delimiter=",", ndmin=2)
        X = np.loadtxt(data_dir / "X.csv", delimiter=",", skiprows=1, ndmin=2)
        Y = np.loadtxt(data_dir / "Y.csv", delimiter=",", skiprows=1, ndmin=2)
        gep = estimate_gep(Dataset(X=X, Y=Y), method="sample")
        assert np.array_equal(A, gep.A)
        assert np.array_equal(B, gep.B)
        meta = json.loads((cov_dir / "gep_meta.json").read_text())
        assert meta == {"estimator": "sample", "n": 25, "p_x": 10, "p_y": 10}

    def test_report_subcommand_reproduces_in_run_report(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli(SMALL_SAMPLE + ["--seed", 0, "--out", run_dir]) == 0
        rep_dir = tmp_path / "rep"
        rc = run_cli(["report", "--p_x", 10, "--p_y", 10,
                      "--trace", run_dir / "trace_s0.csv", "--out", rep_dir])
        assert rc == 0
        solo = json.loads((rep_dir / "report.json").read_text())["report"]
        orig = json.loads((run_dir / "report.json").read_text())["replications"][0]
        for key in ["seed", "mse_x", "mse_y", "tpr_x", "tpr_y", "tnr_x", "tnr_y"]:
            orig.pop(key)
        # compared as JSON text, so a signed zero counts
        assert json.dumps(solo, sort_keys=True) == json.dumps(orig, sort_keys=True)

    # at thin 13 the rows hold iterations 0, 13, ..., 78, 80, and iteration
    # 65 is retained although its row comes before the last quarter of rows
    @pytest.mark.parametrize("thin", [7, 13])
    def test_report_retains_by_iteration_number(self, tmp_path, thin):
        run_dir = tmp_path / "run"
        assert run_cli(SMALL_SAMPLE + ["--seed", 0, "--thin", thin, "--out", run_dir]) == 0
        trace = run_dir / "trace_s0.csv"
        rep_dir = tmp_path / "rep"
        rc = run_cli(["report", "--p_x", 10, "--p_y", 10,
                      "--trace", trace, "--out", rep_dir])
        assert rc == 0
        # N = 80: burn-in ends at iteration 60, whatever row it lands on
        rows = [r.split(",") for r in trace.read_text().splitlines()[3:]]
        kept = sum(1 for r in rows if 4 * int(r[0]) >= 240 and r[1] == "1")
        solo = json.loads((rep_dir / "report.json").read_text())["report"]
        assert solo["n_samples"] == kept

    def test_report_with_truth_metrics(self, tmp_path):
        data_dir = tmp_path / "data"
        assert run_cli(["simulate", "--p_x", 10, "--p_y", 10, "--n", 30,
                        "--seed", 1, "--out", data_dir]) == 0
        run_dir = tmp_path / "run"
        assert run_cli(SMALL_SAMPLE + ["--seed", 0, "--data_dir", data_dir,
                                       "--out", run_dir]) == 0
        rep_dir = tmp_path / "rep"
        rc = run_cli(["report", "--p_x", 10, "--p_y", 10,
                      "--trace", run_dir / "trace_s0.csv",
                      "--truth", data_dir / "truth.json", "--out", rep_dir])
        assert rc == 0
        solo = json.loads((rep_dir / "report.json").read_text())["report"]
        orig = json.loads((run_dir / "report.json").read_text())["replications"][0]
        orig.pop("seed")
        assert solo == orig

    def test_sample_from_data_dir_uses_truth(self, tmp_path):
        data_dir = tmp_path / "data"
        assert run_cli(["simulate", "--p_x", 10, "--p_y", 10, "--n", 30,
                        "--seed", 2, "--out", data_dir]) == 0
        run_dir = tmp_path / "run"
        assert run_cli(SMALL_SAMPLE + ["--seed", 0, "--data_dir", data_dir,
                                       "--out", run_dir]) == 0
        rep = json.loads((run_dir / "report.json").read_text())
        assert "mse_x" in rep["replications"][0]


class TestCouplePipeline:
    def test_toy_meetings_and_tv_curve(self, tmp_path):
        out = tmp_path / "cpl"
        rc = run_cli([
            "couple", "--p_grid", "[10]", "--n", 8, "--n_reps", 3,
            "--lag", 10, "--temperatures", "[1.0,1.25,1.5]",
            "--seed", 7, "--out", out,
        ])
        assert rc == 0
        rows = (out / "meeting.csv").read_text().splitlines()
        assert rows[0] == "replication,p,L,tau"
        assert len(rows) == 4
        rep = json.loads((out / "report.json").read_text())
        entry = rep["dimensions"][0]
        assert entry["p"] == 10 and entry["lag"] == 10
        assert entry["n_max"] == 10 * 10 + 1000
        if entry["n_unmet"] == 0:
            tv = (out / "tv.csv").read_text().splitlines()[1:]
            bounds = [float(r.split(",")[2]) for r in tv]
            assert all(b >= 0.0 for b in bounds)
            assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
            assert entry["mixing_time"] is not None

    def test_couple_determinism(self, tmp_path):
        args = ["couple", "--p_grid", "[10]", "--n", 8, "--n_reps", 2,
                "--lag", 10, "--temperatures", "[1.0,1.25,1.5]", "--seed", 9]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b, "--jobs", 2]) == 0
        assert (a / "meeting.csv").read_bytes() == (b / "meeting.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


class TestBenchmarkPipeline:
    def test_table_shape_and_variants(self, tmp_path):
        out = tmp_path / "bm"
        rc = run_cli([
            "benchmark", "--p_x", 10, "--p_y", 10, "--n", 30, "--N", 60,
            "--J", 20, "--seeds", "[0,1]", "--temperatures", "[1.0,1.3]",
            "--out", out,
        ])
        assert rc == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert lines[0].startswith("variant,")
        assert lines[1].startswith("tempered,") and lines[2].startswith("plain,")
        cell = lines[1].split(",")[1]
        assert "(" in cell and cell.endswith(")")
        rep = json.loads((out / "report.json").read_text())
        assert set(rep["variants"]) == {"tempered", "plain"}
        for variant in rep["variants"].values():
            assert len(variant["replications"]) == 2
            assert 0.0 <= variant["trapped_fraction"] <= 1.0
