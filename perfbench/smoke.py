"""Smoke test of the benchmark at tiny sizes (p=20; p=40 for couple-p100).

    python3 -m pytest -q perfbench/smoke.py

Not collected by a bare ``pytest`` run (the file name does not match
``test_*.py``), so it stays out of the repository's test suite. It checks
that every metric BENCHMARK.json names is emitted, that the layers each
workload exercises report non-zero numbers, that the output digest repeats
and survives tracing, that every output check rejects a corrupted output,
and that the benchmark refuses to run without the stcca sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads as W  # noqa: E402

# per-layer metrics that must be non-zero where the workload runs the layer
EXERCISED = {
    "recover-p100": [
        "covariance.estimate_gep_s", "sampler.gibbs_us", "sampler.subset_us",
        "sampler.mala_us", "sampler.temp_us", "sampler.steps", "sampler.record_self_s",
        "sampler.trace_mem_mb", "model.cache_build_us", "adapt.hook_us",
        "postprocess.report_s", "postprocess.n_samples", "simdata.s",
    ],
    "cli-kendall-p1000": [
        "covariance.kendall_s", "covariance.psd_repair_s", "covariance.kendall_gflop",
        "covariance.kendall_chunk_mb", "sampler.gibbs_us", "cli.sample_self_s",
        "cli.report_self_s", "cli.trace_write_s", "cli.trace_read_s",
        "cli.trace_kb_per_step", "postprocess.report_s",
    ],
    "couple-p100": [
        "coupling.step_us", "coupling.gibbs_us", "coupling.theta_us", "coupling.temp_us",
        "coupling.identical_us", "coupling.solo_share", "coupling.step_share",
        "coupling.meet_iters_p50", "sampler.gibbs_us", "model.cache_build_us",
    ],
    "estimate-p1000": [
        "covariance.estimate_gep_s", "covariance.kendall_s", "covariance.psd_repair_s",
        "covariance.kendall_gflop", "simdata.s",
    ],
}
# layers the workload does not run at all report exactly zero
ABSENT = {
    "recover-p100": ["coupling.step_us", "cli.sample_self_s", "covariance.kendall_s"],
    "cli-kendall-p1000": ["coupling.step_us"],
    "couple-p100": ["covariance.estimate_gep_s", "postprocess.report_s", "cli.sample_self_s"],
    "estimate-p1000": ["sampler.steps", "coupling.step_us", "postprocess.report_s"],
}


def bench(root: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_and_digest(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_metrics_emitted_and_digest_stable(workload):
    plain, digest = result_and_digest(bench(ROOT, workload, 0))
    traced, traced_digest = result_and_digest(bench(ROOT, workload, 1))
    _, again = result_and_digest(bench(ROOT, workload, 0))

    for res, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        spec = {m["name"]: m["unit"] for m in SPEC[group]}
        assert set(res["metrics"]) == set(spec)
        for name, m in res["metrics"].items():
            assert m["unit"] == spec[name]
            assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
    for name in (m["name"] for m in SPEC["end_to_end"]):
        assert plain["metrics"][name]["value"] > 0, name
    layer = traced["metrics"]
    for name in EXERCISED[workload]:
        assert layer[name]["value"] > 0, name
    for name in ABSENT[workload]:
        assert layer[name]["value"] == 0, name
    shares = sum(m["value"] for k, m in layer.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert digest == again == traced_digest


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "recover-p100", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_recovery_check_rejects_trapped_chain():
    good = {"mse_x": 0.01}
    assert W.check_recovery(good) == []
    assert W.check_recovery({"mse_x": 1.2})
    assert W.check_recovery({"mse_x": None})


def test_gep_check_rejects_asymmetry_and_floor_breach():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((20, 20))
    B = M @ M.T + np.eye(20)
    A = (M + M.T) / 2
    assert W.check_gep(A, B) == []
    A_bad = A.copy()
    A_bad[0, 1] += 1e-12
    assert W.check_gep(A_bad, B)
    B_bad = B.copy()
    B_bad[2, 3] += 1e-12
    assert W.check_gep(A, B_bad)
    w, V = np.linalg.eigh(B)
    w[0] = -1e-3
    B_neg = V @ np.diag(w) @ V.T
    B_neg = (B_neg + B_neg.T) / 2
    assert W.check_gep(A, B_neg)


def test_report_roundtrip_check_rejects_changed_field():
    rep = {"delta_bar": [1, 0], "v_bar_x": [1.0], "v_bar_y": [1.0],
           "inclusion_probs": [0.9, 0.1], "n_samples": 7, "n_skipped": 0}
    assert W.check_report_roundtrip(rep, dict(rep)) == []
    for name, bad in (("inclusion_probs", [0.9, 0.10000000000000002]), ("n_samples", 6)):
        assert W.check_report_roundtrip(rep, {**rep, name: bad})


def test_cli_check_rejects_failed_command():
    wl = W.CliKendallP1000(0, True, ROOT / "perfbench" / "out" / "smoke-cli")
    res = W.Result(out={"rc_sample": 1, "rc_report": 2})
    assert len(wl.check(res)) == 2
    wl.close()


def test_meeting_checks_reject_impossible_times_and_rising_bound():
    wl = W.CoupleP100(0, True, ROOT / "perfbench" / "out" / "smoke-couple")
    assert wl.check(W.Result(out=[57, None])) == []
    for bad in (wl.lag, wl.n_max + 1, 57.5):
        assert wl.check(W.Result(out=[bad]))
    assert W.check_tv_bound(np.array([2.0, 1.0, 0.0])) == []
    assert W.check_tv_bound(np.array([1.0, 2.0, 0.0]))
    assert W.check_tv_bound(np.array([1.0, -0.5]))
