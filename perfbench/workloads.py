"""The four benchmark workloads: set-up, one timed operation, output checks.

Each workload builds its inputs from the workload seed alone; operation i
draws its own stream from ``SeedSequence(seed, spawn_key=(1, i))``, so the
same seed and operation index always give the same inputs. stcca only sees
the generated inputs. Calls go through module attributes (``adapt.
run_adaptive_chain``, not a local name) so the traced run's rebinding
reaches them.

``tiny=True`` shrinks the workloads to p=20 for the smoke test; couple-p100
shrinks to p=40 instead, because at p=20 some coupled pairs never meet
within n_max = 10p + 1000.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

import stcca.adapt as adapt
import stcca.cli as cli
import stcca.coupling as coupling
import stcca.covariance as covariance
import stcca.postprocess as postprocess
from stcca.covariance import DEFAULT_PSD_FLOOR
from stcca.model import DEFAULT_TEMPERATURES, PriorConfig
from stcca.simdata import (
    TruncationSpec,
    build_population_cov,
    sample_gaussian_pairs,
    truncate_copula,
)

clock = time.perf_counter

# the trap rule of `stcca benchmark` (cmd_benchmark): a replication whose
# estimate is this far from the planted direction is stuck in a wrong mode
TRAPPED_MSE = 0.5

# report fields that `stcca report` must reproduce from the trace exactly
REPORT_FIELDS = ("delta_bar", "v_bar_x", "v_bar_y", "inclusion_probs", "n_samples", "n_skipped")


def op_seed(seed: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(1, i))


def data_seed(seed: int, i: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(0, i))


@dataclass
class Result:
    """What one operation produced: outputs to check, work done, stage times."""

    out: object = None
    units: float = 1.0
    start: float = 0.0
    wall: float = 0.0
    cal: float = 0.0
    stages: dict = field(default_factory=dict)
    error: str | None = None


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def report_fields(rep) -> dict:
    return {
        "delta_bar": [int(b) for b in rep.delta_bar],
        "v_bar_x": [float(x) for x in rep.v_bar_x],
        "v_bar_y": [float(x) for x in rep.v_bar_y],
        "inclusion_probs": [float(x) for x in rep.inclusion_probs],
        "n_samples": int(rep.n_samples),
        "n_skipped": int(rep.n_skipped),
        "mse_x": rep.mse_x,
        "mse_y": rep.mse_y,
    }


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages, empty when correct


def check_recovery(fields: dict) -> list[str]:
    mse_x = fields["mse_x"]
    if mse_x is None or not mse_x <= TRAPPED_MSE:
        return [f"recovery: trapped replication, mse_x={mse_x} > {TRAPPED_MSE}"]
    return []


def check_gep(A: np.ndarray, B: np.ndarray, floor: float = DEFAULT_PSD_FLOOR) -> list[str]:
    fails = []
    if not np.array_equal(A, A.T):
        fails.append("gep: A is not exactly symmetric")
    if not np.array_equal(B, B.T):
        fails.append("gep: B is not exactly symmetric")
    lam_min = float(scipy.linalg.eigvalsh(B, subset_by_index=[0, 0])[0])
    # eigh of the repaired matrix reproduces the floor up to rounding,
    # which scales with the dimension and the largest entry of B
    tol = 64 * np.finfo(float).eps * B.shape[0] * float(np.abs(B).max())
    if lam_min < floor - tol:
        fails.append(f"gep: min eigenvalue of B {lam_min!r} below floor {floor} - {tol:.1e}")
    return fails


def check_report_roundtrip(sample_rep: dict, report_rep: dict) -> list[str]:
    return [
        f"cli: `stcca report` {name} differs from `stcca sample`"
        for name in REPORT_FIELDS
        if sample_rep.get(name) != report_rep.get(name)
    ]


def check_tv_bound(bound: np.ndarray) -> list[str]:
    fails = []
    if np.any(bound < 0):
        fails.append("couple: negative TV bound")
    if np.any(np.diff(bound) > 0):
        fails.append("couple: TV bound increases")
    return fails



# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    unit = "operation"
    # whether outputs stay in memory after their check; large ones would
    # inflate peak_rss_mb with every operation run
    keep_outputs = True
    # the worker's calibration kernels that slow down like this workload
    calibrate_with = ("python",)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.simdata_s = 0.0

    def _simulate(self, model, n, ss, c=None):
        t = clock()
        data = sample_gaussian_pairs(model, n, ss)
        if c is not None:
            data = truncate_copula(data, TruncationSpec(C=c))
        self.simdata_s += clock() - t
        return data

    def unit_wall(self, res: Result) -> float:
        """Wall time of the operation per unit of work."""
        return res.wall

    def check(self, res: Result) -> list[str]:
        raise NotImplementedError

    def digest_item(self, res: Result) -> bytes:
        raise NotImplementedError

    def final_checks(self, results) -> list[str] | None:
        """Checks over the whole run; None when the workload has none."""
        return None

    def facts(self, results) -> dict:
        """Per-layer metrics read from outputs rather than spans; 0 where
        the workload does not exercise the layer."""
        return {"cli.trace_kb_per_step": 0.0, "coupling.meet_iters_p50": 0.0, "coupling.unmet": 0}

    def table(self, results) -> list[tuple]:
        """Workload-specific end-to-end rows: (name, value, unit)."""
        return []

    def close(self) -> None:
        pass


class RecoverP100(Workload):
    """README quick start: sample-covariance GEP, adaptive chain, report."""

    name = "recover-p100"
    unit = "replication"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.p = 20 if tiny else 100
        self.N = 400 if tiny else 5000
        self.J = 100
        self.model = build_population_cov(self.p)
        self.data = self._simulate(self.model, 100, data_seed(seed))
        self.prior = PriorConfig.defaults(self.p)

    def op(self, i):
        m = self.model
        gep = covariance.estimate_gep(self.data, method="sample")
        trace, _ = adapt.run_adaptive_chain(
            gep, self.prior, DEFAULT_TEMPERATURES, self.N,
            subset_size=min(self.J, gep.p), seed=op_seed(self.seed, i),
        )
        rep = postprocess.build_report(trace, m.p_x, truth_x=m.v_x_star, truth_y=m.v_y_star)
        return Result(out=report_fields(rep), units=self.N)

    def check(self, res):
        return check_recovery(res.out)

    def digest_item(self, res):
        return canonical(res.out)

    def table(self, results):
        steps = sum(r.units for r in results)
        return [
            ("chain_steps_per_s", steps / sum(r.wall for r in results), "1/s"),
            ("trace_mem_mb (computed)", 9 * self.p * (self.N + 1) / 2**20, "MB"),
        ]


class EstimateP1000(Workload):
    """Kendall-sine GEP on truncated Gaussian data: the covariance layer alone."""

    name = "estimate-p1000"
    unit = "estimate"
    keep_outputs = False
    calibrate_with = ("blas",)
    n_datasets = 4

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.p = 20 if tiny else 1000
        self.n = 30 if tiny else 200
        model = build_population_cov(self.p)
        self.datasets = [
            self._simulate(model, self.n, data_seed(seed, d), c=0.0)
            for d in range(self.n_datasets)
        ]

    def op(self, i):
        gep = covariance.estimate_gep(self.datasets[i % self.n_datasets], method="kendall-sine")
        return Result(out=gep)

    def check(self, res):
        return check_gep(res.out.A, res.out.B)

    def digest_item(self, res):
        return res.out.A.tobytes() + res.out.B.tobytes()

    def table(self, results):
        pairs = self.n * (self.n - 1) // 2
        return [
            ("kendall_gflop (computed)", 2.0 * pairs * self.p**2 / 1e9, "GFLOP"),
            ("kendall_chunk_mb (computed)",
             min(pairs, covariance._KENDALL_CHUNK) * self.p * 8 / 2**20, "MB"),
        ]


class CliKendallP1000(Workload):
    """`stcca sample` then `stcca report` on its trace, in process."""

    name = "cli-kendall-p1000"
    unit = "sample + report"
    calibrate_with = ("python", "blas")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.p_view = 10 if tiny else 500
        self.n = 30 if tiny else 200
        self.N = 400 if tiny else 500
        self.workdir.mkdir(parents=True, exist_ok=True)

    def op(self, i):
        run_seed = int(op_seed(self.seed, i).generate_state(1, np.uint64)[0])
        sample_dir = self.workdir / f"sample-{i}"
        report_dir = self.workdir / f"report-{i}"
        dims = ["--p_x", str(self.p_view), "--p_y", str(self.p_view)]
        t0 = clock()
        rc_sample = cli.main([
            "sample", *dims, "--n", str(self.n), "--estimator", "kendall-sine",
            "--c", "0", "--J", "100", "--N", str(self.N),
            "--seeds", f"[{run_seed}]", "--out", str(sample_dir),
        ])
        t1 = clock()
        trace_csv = sample_dir / f"trace_s{run_seed}.csv"
        rc_report = cli.main(["report", "--trace", str(trace_csv), *dims, "--out", str(report_dir)])
        t2 = clock()
        out = {"rc_sample": rc_sample, "rc_report": rc_report}
        if rc_sample == 0 and rc_report == 0:
            sample_json = json.loads((sample_dir / "report.json").read_text())
            out["sample"] = sample_json["replications"][0]
            out["report"] = json.loads((report_dir / "report.json").read_text())["report"]
            out["trace_bytes"] = trace_csv.stat().st_size
        shutil.rmtree(sample_dir, ignore_errors=True)
        shutil.rmtree(report_dir, ignore_errors=True)
        return Result(
            out=out, units=self.N,
            stages={"sample_s": t1 - t0, "report_s": t2 - t1},
        )

    def check(self, res):
        out = res.out
        fails = [f"cli: `stcca {cmd}` exited {out[f'rc_{cmd}']}"
                 for cmd in ("sample", "report") if out[f"rc_{cmd}"] != 0]
        return fails or check_report_roundtrip(out["sample"], out["report"])

    def digest_item(self, res):
        return canonical({k: res.out.get("sample", {}).get(k) for k in REPORT_FIELDS})

    def _kb_per_step(self, results):
        sizes = [r.out["trace_bytes"] for r in results if "trace_bytes" in r.out]
        return float(np.mean(sizes)) / 1024 / (self.N + 1) if sizes else 0.0

    def facts(self, results):
        return {**super().facts(results), "cli.trace_kb_per_step": self._kb_per_step(results)}

    def table(self, results):
        p = 2 * self.p_view
        return [
            ("sample_s", float(np.median([r.stages["sample_s"] for r in results])), "s"),
            ("report_s", float(np.median([r.stages["report_s"] for r in results])), "s"),
            ("trace_kb_per_step", self._kb_per_step(results), "KB"),
            ("trace_mem_mb (computed)", 9 * p * (self.N + 1) / 2**20, "MB"),
        ]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class CoupleP100(Workload):
    """Lagged coupled chains on the population GEP, acceptance 7's shape."""

    name = "couple-p100"
    unit = "1000 chain advances"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.p = 40 if tiny else 100
        self.lag = self.p
        self.n_max = 10 * self.p + 1000
        model = build_population_cov(self.p)
        px, S = model.p_x, model.Sigma
        self.gep = covariance.assemble_gep(S[:px, :px], S[px:, px:], S[:px, px:], n=10)
        self.prior = PriorConfig.defaults(self.p)

    def op(self, i):
        taus = coupling.replicate_meeting_times(
            self.gep, self.prior, 1, DEFAULT_TEMPERATURES, seed=op_seed(self.seed, i),
            n_max=self.n_max, lag=self.lag,
        )
        # the leader advances alone for `lag` steps, then each coupled step
        # advances both chains
        advances = sum(self.lag + 2 * ((self.n_max if t is None else t) - self.lag) for t in taus)
        return Result(out=taus, units=advances)

    def unit_wall(self, res):
        return res.wall * 1000.0 / res.units

    def check(self, res):
        # lagged_meeting_time answers None when the pair has not met by
        # n_max. At the parent commit that happened to 1 of about 1,300
        # replications, so an unmet pair is counted (`unmet`), not failed.
        return [f"couple: meeting time {t} outside ({self.lag}, {self.n_max}]"
                for t in res.out
                if t is not None and not (isinstance(t, int) and self.lag < t <= self.n_max)]

    def final_checks(self, results):
        met = [t for r in results for t in r.out if t is not None]
        return check_tv_bound(coupling.tv_bound_curve(met, self.lag).bound) if met else []

    def digest_item(self, res):
        return canonical(res.out)

    def facts(self, results):
        taus = [t for r in results for t in r.out]
        met = [t for t in taus if t is not None]
        return {
            **super().facts(results),
            "coupling.meet_iters_p50": float(np.median(met)) if met else 0.0,
            "coupling.unmet": len(taus) - len(met),
        }

    def table(self, results):
        advances = sum(r.units for r in results)
        return [
            ("chain_steps_per_s", advances / sum(r.wall for r in results), "1/s"),
            ("unmet", self.facts(results)["coupling.unmet"], "count"),
        ]


WORKLOADS = {w.name: w for w in (RecoverP100, CliKendallP1000, CoupleP100, EstimateP1000)}
