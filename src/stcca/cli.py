"""Experiment harness: flat JSON configs, seeded pipelines, artifact files.

Subcommands
    simulate      draw one dataset and write X.csv / Y.csv / truth.json
    estimate-cov  read a dataset directory and write the assembled (A, B) pair
    sample        per-seed full pipeline: data, covariance estimate, chain,
                  trace CSVs, reports, aggregate summary
    couple        lagged-coupling meeting times over a dimension grid with
                  TV-bound curves and mixing-time estimates
    report        recompute a report from a persisted trace CSV
    benchmark     tempered vs single-temperature pipelines over seeds,
                  summarized in one table

Configuration is a single flat JSON object; every key can be overridden by a
command-line flag of the same name, and the whole config is validated before
any computation or file output. Floats are written with full round-trip
precision and JSON keys are sorted, so re-running identical config + seeds
reproduces every CSV and JSON artifact byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .adapt import run_adaptive_chain
from .coupling import coupling_limits, lagged_meeting_time, tv_bound_curve
from .covariance import Dataset, assemble_gep, estimate_gep
from .errors import ConfigError, DomainError, EmptyInputError, StccaError
from .model import (
    DEFAULT_RHO0,
    DEFAULT_RHO1,
    DEFAULT_SIGMA,
    DEFAULT_TEMPERATURES,
    PriorConfig,
    TemperingLadder,
)
from .postprocess import EstimateReport, build_report
from .sampler import DEFAULT_SUBSET_SIZE, ChainTrace
from .simdata import (
    DEFAULT_LAMBDA1,
    TruncationSpec,
    build_population_cov,
    sample_gaussian_pairs,
    truncate_copula,
)

__all__ = ["ExperimentConfig", "aggregate_replications", "main"]

_MODES = ("sample", "couple", "benchmark")
_ESTIMATORS = ("sample", "kendall-sine")
_METRICS = ("mse_x", "mse_y", "tpr_x", "tpr_y", "tnr_x", "tnr_y")


# ---------------------------------------------------------------------------
# config schema


def _as_int(key: str, v):
    if isinstance(v, bool):
        raise ConfigError(f"{key} must be an integer, got a boolean")
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, float) and float(v).is_integer():
        return int(v)
    if isinstance(v, str):
        try:
            return int(v.strip())
        except ValueError:
            pass
    raise ConfigError(f"{key} must be an integer, got {v!r}")


def _as_float(key: str, v):
    if isinstance(v, bool):
        raise ConfigError(f"{key} must be a number, got a boolean")
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v.strip())
        except ValueError:
            pass
    raise ConfigError(f"{key} must be a number, got {v!r}")


def _as_str(key: str, v):
    if not isinstance(v, str):
        raise ConfigError(f"{key} must be a string, got {v!r}")
    return v.strip()


def _as_choice(options):
    def cast(key: str, v):
        s = _as_str(key, v)
        if s not in options:
            raise ConfigError(f"{key} must be one of {list(options)}, got {s!r}")
        return s

    return cast


def _listify(key: str, v):
    if isinstance(v, str):
        s = v.strip()
        try:
            v = json.loads(s) if s.startswith("[") else [part for part in s.split(",") if part.strip()]
        except json.JSONDecodeError:
            raise ConfigError(f"{key} must be a list, got {v!r}")
    if not isinstance(v, (list, tuple)) or len(v) == 0:
        raise ConfigError(f"{key} must be a nonempty list, got {v!r}")
    return list(v)


def _as_int_list(key: str, v):
    return tuple(_as_int(key, item) for item in _listify(key, v))


def _as_float_list(key: str, v):
    return tuple(_as_float(key, item) for item in _listify(key, v))


def _key(cast, default=None):
    # a config key: its caster, and the value taken when the key is absent
    return field(default=default, metadata={"cast": cast})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved and validated experiment settings.

    Each field is the config key of the same name. Method settings default
    to the constants of the modules that use them. The None defaults of
    mode, temperatures and p_grid are resolved during validation.
    """

    mode: str = _key(_as_choice(_MODES))
    p_x: int = _key(_as_int, 50)
    p_y: int = _key(_as_int, 50)
    n: int = _key(_as_int, 200)
    estimator: str = _key(_as_choice(_ESTIMATORS), "sample")
    rho0: float = _key(_as_float, DEFAULT_RHO0)
    rho1: float = _key(_as_float, DEFAULT_RHO1)
    q: float | None = _key(_as_float)
    sigma: float = _key(_as_float, DEFAULT_SIGMA)
    temperatures: tuple[float, ...] = _key(_as_float_list)
    N: int = _key(_as_int, 10000)
    J: int = _key(_as_int, DEFAULT_SUBSET_SIZE)
    thin: int = _key(_as_int, 1)
    seeds: tuple[int, ...] = _key(_as_int_list, (0,))
    c: float | None = _key(_as_float)
    lambda1: float = _key(_as_float, DEFAULT_LAMBDA1)
    lag: int | None = _key(_as_int)
    n_max: int | None = _key(_as_int)
    n_reps: int = _key(_as_int, 20)
    p_grid: tuple[int, ...] = _key(_as_int_list)
    eps: float = _key(_as_float, 0.1)
    data_dir: str | None = _key(_as_str)

    @property
    def p(self) -> int:
        return self.p_x + self.p_y

    def prior(self, p: int) -> PriorConfig:
        """Prior at dimension p; a missing q is PriorConfig.defaults(p)'s."""
        q = PriorConfig.defaults(p).q if self.q is None else self.q
        return PriorConfig(rho0=self.rho0, rho1=self.rho1, q=q, sigma=self.sigma)


# every config key with its caster
_SCHEMA = {f.name: f.metadata["cast"] for f in fields(ExperimentConfig)}


def validate_config(raw: dict, command: str) -> ExperimentConfig:
    """Coerce and cross-check a flat config dict against every module
    precondition the selected command will hit. Raises ConfigError; nothing
    is computed or written before this passes."""
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    vals = {}
    for f in fields(ExperimentConfig):
        v = raw.get(f.name)
        vals[f.name] = f.default if v is None else f.metadata["cast"](f.name, v)

    if command in _MODES:
        if vals["mode"] is not None and vals["mode"] != command:
            raise ConfigError(
                f"config sets mode={vals['mode']!r} but the {command!r} "
                "subcommand was invoked"
            )
        mode = command
    else:
        # utility stages reuse pipeline configs; a mode key is not binding
        mode = vals["mode"] or "sample"
    p = vals["p_x"] + vals["p_y"]
    if vals["temperatures"] is None:
        vals["temperatures"] = tuple(DEFAULT_TEMPERATURES)
    if vals["p_grid"] is None:
        vals["p_grid"] = (p,)
    cfg = ExperimentConfig(**{**vals, "mode": mode})

    if cfg.p_x < 1 or cfg.p_y < 1:
        raise ConfigError("p_x and p_y must be positive")
    if cfg.n < 1:
        raise ConfigError("n must be positive")
    if cfg.estimator == "kendall-sine" and cfg.n < 2:
        raise ConfigError("the kendall-sine estimator needs n >= 2")
    for key in ("N", "J", "thin", "n_reps"):
        if vals[key] < 1:
            raise ConfigError(f"{key} must be positive")
    for s in cfg.seeds:
        if not 0 <= s < 2**64:
            raise ConfigError(f"seeds must be unsigned 64-bit integers, got {s}")
    if not 0.0 < cfg.lambda1 < 1.0:
        raise ConfigError("lambda1 must lie in (0, 1)")
    if not 0.0 < cfg.eps < 1.0:
        raise ConfigError("eps must lie in (0, 1)")
    if cfg.lag is not None and cfg.lag < 1:
        raise ConfigError("lag must be positive")
    if cfg.n_max is not None and cfg.n_max < 2:
        raise ConfigError("n_max must be at least 2")

    try:
        TemperingLadder.for_dimension(p, cfg.temperatures)
    except DomainError as exc:
        raise ConfigError(f"invalid temperature ladder: {exc}")

    try:
        cfg.prior(p)
    except DomainError as exc:
        raise ConfigError(f"invalid prior settings: {exc}")

    simulates = command == "simulate" or (
        mode in ("sample", "benchmark")
        and command not in ("report", "estimate-cov")
        and cfg.data_dir is None
    )
    if simulates and p % 20 != 0:
        raise ConfigError(
            f"simulated data needs p_x + p_y divisible by 20, got {p}"
        )
    if simulates and cfg.p_x != cfg.p_y:
        # the population model splits p into two equal views
        raise ConfigError(
            f"simulated data needs p_x = p_y, got {cfg.p_x} and {cfg.p_y}"
        )

    if command == "couple":
        unread = [key for key in ("data_dir", "estimator", "c") if raw.get(key) is not None]
        if unread:
            raise ConfigError(f"couple runs on the population pair and reads no {unread}")
    if mode == "couple":
        for entry in cfg.p_grid:
            if entry < 10 or entry % 10 != 0:
                raise ConfigError(
                    f"p_grid entries must be multiples of 10, got {entry}"
                )
            lag, n_max = coupling_limits(entry, cfg.lag, cfg.n_max)
            if n_max <= lag:
                raise ConfigError("n_max must exceed lag")
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers


def _dump_json(path: Path, obj) -> None:
    # json hands what it cannot encode, numpy arrays and integers, to default
    text = json.dumps(
        obj, sort_keys=True, indent=2, ensure_ascii=False, default=lambda o: o.tolist()
    )
    path.write_text(text + "\n", encoding="utf-8")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path} is not valid JSON: {exc}")


def _fmt(x) -> str:
    # shortest round-trip decimal form; re-parsing restores the exact bits
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _write_matrix_csv(path: Path, M: np.ndarray) -> None:
    _write_csv(path, None, [[_fmt(x) for x in row] for row in np.atleast_2d(M)])


def _read_matrix_csv(path: Path) -> np.ndarray:
    if not path.is_file():
        raise ConfigError(f"missing data file {path}")
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}")
    if raw and any(not _is_number(x) for x in raw[0]):
        raw = raw[1:]
    if not raw:
        raise ConfigError(f"{path} is empty")
    if len({len(row) for row in raw}) > 1:
        raise ConfigError(f"{path} has rows of unequal length")
    try:
        rows = [[float(x) for x in row] for row in raw]
    except ValueError as exc:
        raise ConfigError(f"{path} has non-numeric cells: {exc}")
    return np.asarray(rows, dtype=float)


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


_TRACE_HEADER = ["iter", "k", "support_size", "rayleigh", "index", "theta"]


def _write_trace_csv(path: Path, trace, thin: int, p_x: int) -> None:
    # sparse: the view split, then per state its active (index, theta) pairs
    support = trace.support_sizes()
    keep = sorted(set(range(0, trace.n_iters + 1, thin)) | {trace.n_iters})
    rows = [["p_x", "p_y"], [str(p_x), str(trace.p - p_x)], _TRACE_HEADER]
    for it in keep:
        row = [str(it), str(int(trace.k[it])), str(int(support[it])), _fmt(trace.rayleigh[it])]
        for j in np.flatnonzero(trace.delta[it]):
            row += [str(j), _fmt(trace.theta[it, j])]
        rows.append(row)
    _write_csv(path, None, rows)


def _read_trace_csv(path: Path):
    """(trace, p_x) from a sparse trace CSV; unselected loadings read as 0.0."""
    if not path.is_file():
        raise ConfigError(f"missing trace file {path}")
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            lines = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not a sparse trace CSV: {exc}")
    if lines[:1] != [["p_x", "p_y"]] or lines[2:3] != [_TRACE_HEADER]:
        raise ConfigError(f"{path} is not a sparse trace CSV")
    rows = lines[3:]
    try:
        p_x, p_y = (int(x) for x in lines[1])
    except ValueError:
        p_x = p_y = 0
    if min(p_x, p_y) < 1:
        raise ConfigError(f"{path} has a malformed view split {','.join(lines[1])}")
    if not rows:
        raise ConfigError(f"{path} holds no states")
    delta = np.zeros((len(rows), p_x + p_y), dtype=np.uint8)
    theta = np.zeros(delta.shape)
    head = []
    for i, r in enumerate(rows):
        try:
            head.append((int(r[0]), int(r[1]), int(r[2]), float(r[3])))
            idx, vals = [int(j) for j in r[4::2]], [float(x) for x in r[5::2]]
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path} has a malformed state row {i}: {exc}")
        if len(r) != 4 + 2 * head[i][2]:
            raise ConfigError(f"{path} has a row of {len(r)} cells, support_size {r[2]}")
        if idx and not (0 <= idx[0] and idx[-1] < delta.shape[1] and np.all(np.diff(idx) > 0)):
            raise ConfigError(f"{path} has indices that are not increasing in [0, {delta.shape[1]})")
        delta[i, idx], theta[i, idx] = 1, vals
    iters, k, _, rayleigh = (np.array(c) for c in zip(*head))
    if iters[0] != 0 or np.any(np.diff(iters) <= 0):
        raise ConfigError(f"{path} has iterations that do not start at 0 and increase strictly")
    return ChainTrace(delta=delta, theta=theta, k=k, rayleigh=rayleigh,
                      n_iters=int(iters[-1]), iters=iters), p_x


def _report_dict(rep: EstimateReport, seed=None) -> dict:
    # every report field, metrics left None (no reference pair) omitted
    d = {k: v for k, v in asdict(rep).items() if v is not None}
    if seed is not None:
        d["seed"] = int(seed)
    return d


def aggregate_replications(reports) -> dict:
    """Mean-and-spread summary over replication report dicts (_report_dict).

    Each metric present in every report is reduced to its mean and sample
    standard deviation (divisor n-1; zero for a single report), plus the
    two-decimal "mean (sd)" rendering used in summary tables.
    """
    reports = list(reports)
    if not reports:
        raise EmptyInputError("no reports to aggregate")
    out = {}
    for metric in _METRICS:
        values = [d.get(metric) for d in reports]
        if any(v is None for v in values):
            continue
        arr = np.asarray(values, dtype=float)
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        out[metric] = {
            "mean": mean,
            "sd": sd,
            "formatted": f"{mean:.2f} ({sd:.2f})",
        }
    return out


# ---------------------------------------------------------------------------
# pipeline pieces


def _load_data_dir(cfg: ExperimentConfig):
    root = Path(cfg.data_dir)
    X = _read_matrix_csv(root / "X.csv")
    Y = _read_matrix_csv(root / "Y.csv")
    if X.shape[1] != cfg.p_x or Y.shape[1] != cfg.p_y:
        raise ConfigError(
            f"data columns ({X.shape[1]}, {Y.shape[1]}) do not match "
            f"config dims ({cfg.p_x}, {cfg.p_y})"
        )
    if X.shape[0] != Y.shape[0]:
        raise ConfigError("X.csv and Y.csv row counts differ")
    if X.shape[0] != cfg.n:
        raise ConfigError(f"data has {X.shape[0]} rows but config n = {cfg.n}")
    truth_path = root / "truth.json"
    truth = _load_truth(truth_path, cfg) if truth_path.is_file() else (None, None)
    return Dataset(X=X, Y=Y), *truth


def _load_truth(path, cfg: ExperimentConfig):
    """The reference directions (v_x_star, v_y_star) of a truth JSON, of
    lengths p_x and p_y."""
    truth = _load_json(Path(path))
    if not (isinstance(truth, dict) and {"v_x_star", "v_y_star"} <= truth.keys()):
        raise ConfigError(f"{path} is not an object with v_x_star and v_y_star")
    try:
        v_x = np.asarray(truth["v_x_star"], dtype=float)
        v_y = np.asarray(truth["v_y_star"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} has a non-numeric v_x_star / v_y_star: {exc}")
    if v_x.shape != (cfg.p_x,) or v_y.shape != (cfg.p_y,):
        raise ConfigError(f"{path} has v_x_star / v_y_star of shapes {v_x.shape} / {v_y.shape}, "
                          f"but the config has p_x = {cfg.p_x}, p_y = {cfg.p_y}")
    return v_x, v_y


def _make_data(cfg: ExperimentConfig, data_ss):
    model = build_population_cov(cfg.p, cfg.lambda1)
    data = sample_gaussian_pairs(model, cfg.n, data_ss)
    if cfg.c is not None:
        data = truncate_copula(data, TruncationSpec(C=cfg.c))
    return model, data


def _run_replication(cfg: ExperimentConfig, seed: int, tempered: bool):
    """One full pipeline: data, covariance estimate, chain, report.

    The seed feeds two spawned substreams (data, chain) so the chain stream
    is the same whether the data was simulated or loaded from disk.
    """
    data_ss, chain_ss = np.random.SeedSequence(int(seed)).spawn(2)
    if cfg.data_dir is None:
        model, data = _make_data(cfg, data_ss)
        truth_x, truth_y = model.v_x_star, model.v_y_star
    else:
        data, truth_x, truth_y = _load_data_dir(cfg)
    gep = estimate_gep(data, method=cfg.estimator)
    temps = cfg.temperatures if tempered else (1.0,)
    trace, _ = run_adaptive_chain(
        gep,
        cfg.prior(cfg.p),
        temps,
        cfg.N,
        subset_size=cfg.J,
        seed=chain_ss,
    )
    report = build_report(trace, gep.p_x, truth_x=truth_x, truth_y=truth_y)
    return trace, report


def _sample_worker(task):
    cfg, seed = task
    trace, report = _run_replication(cfg, seed, tempered=True)
    return seed, trace, report


def _bench_worker(task):
    cfg, seed, tempered = task
    _, report = _run_replication(cfg, seed, tempered)
    return seed, report


def _map_tasks(jobs: int, fn, tasks):
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _acf(series: np.ndarray, max_lag: int) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        return np.full(max_lag + 1, np.nan)
    return np.array(
        [float(x[: x.size - h] @ x[h:]) / denom for h in range(max_lag + 1)]
    )


def _echo_config(cfg: ExperimentConfig, command: str, out_dir: Path) -> None:
    # every subcommand writes this first, after its computation, so a run
    # that fails leaves no output directory
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "config_echo.json", {"command": command, **asdict(cfg)})


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    seed = cfg.seeds[0]
    data_ss, _ = np.random.SeedSequence(int(seed)).spawn(2)
    model, data = _make_data(cfg, data_ss)
    _echo_config(cfg, "simulate", out_dir)
    _write_csv(
        out_dir / "X.csv",
        [f"x_{j}" for j in range(cfg.p_x)],
        [[_fmt(x) for x in row] for row in data.X],
    )
    _write_csv(
        out_dir / "Y.csv",
        [f"y_{j}" for j in range(cfg.p_y)],
        [[_fmt(x) for x in row] for row in data.Y],
    )
    _dump_json(
        out_dir / "truth.json",
        {
            "lambda1": cfg.lambda1,
            "seed": seed,
            "c": cfg.c,
            "n": cfg.n,
            "p_x": model.p_x,
            "p_y": model.p_y,
            "support_x": np.nonzero(model.v_x_star)[0],
            "support_y": np.nonzero(model.v_y_star)[0],
            "v_x_star": model.v_x_star,
            "v_y_star": model.v_y_star,
        },
    )


def cmd_estimate_cov(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    if cfg.data_dir is None:
        raise ConfigError("estimate-cov needs data_dir")
    data, _, _ = _load_data_dir(cfg)
    gep = estimate_gep(data, method=cfg.estimator)
    _echo_config(cfg, "estimate-cov", out_dir)
    _write_matrix_csv(out_dir / "gep_A.csv", gep.A)
    _write_matrix_csv(out_dir / "gep_B.csv", gep.B)
    _dump_json(
        out_dir / "gep_meta.json",
        {"p_x": gep.p_x, "p_y": gep.p_y, "n": gep.n, "estimator": cfg.estimator},
    )


def _write_metrics_csv(path: Path, rep_dicts) -> None:
    rows = []
    for d in rep_dicts:
        rows.append(
            [str(d.get("seed", ""))]
            + [str(d["n_samples"]), str(d["n_skipped"])]
            + [_fmt(d[m]) if m in d else "" for m in _METRICS]
        )
    _write_csv(path, ["seed", "n_samples", "n_skipped", *_METRICS], rows)


def cmd_sample(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    results = _map_tasks(args.jobs, _sample_worker, [(cfg, s) for s in cfg.seeds])
    _echo_config(cfg, "sample", out_dir)
    rep_dicts = []
    for seed, trace, report in results:
        _write_trace_csv(out_dir / f"trace_s{seed}.csv", trace, cfg.thin, cfg.p_x)
        rep_dicts.append(_report_dict(report, seed=seed))
    _dump_json(
        out_dir / "report.json",
        {
            "command": "sample",
            "config": {**asdict(cfg)},
            "aggregate": aggregate_replications(rep_dicts),
            "replications": rep_dicts,
        },
    )
    _write_metrics_csv(out_dir / "metrics.csv", rep_dicts)

    # diagnostics for the first seed: autocorrelation of the quotient series
    # and of the most-included coordinate's loading
    _, trace0, report0 = results[0]
    max_lag = min(200, (trace0.n_iters + 1) // 4)
    top = int(np.argmax(report0.inclusion_probs))
    acf_r = _acf(trace0.rayleigh, max_lag)
    acf_t = _acf(trace0.theta[:, top], max_lag)
    _write_csv(
        out_dir / "acf.csv",
        ["lag", "acf_rayleigh", f"acf_theta_{top}"],
        [[str(h), _fmt(acf_r[h]), _fmt(acf_t[h])] for h in range(max_lag + 1)],
    )


def cmd_couple(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    base = np.random.SeedSequence(int(cfg.seeds[0]))
    p_children = base.spawn(len(cfg.p_grid))
    per_p = []
    meeting_rows = []
    tv_rows = []
    for p, p_ss in zip(cfg.p_grid, p_children):
        model = build_population_cov(p, cfg.lambda1)
        px = model.p_x
        S = model.Sigma
        gep = assemble_gep(S[:px, :px], S[px:, px:], S[:px, px:], n=cfg.n)
        lag, n_max = coupling_limits(p, cfg.lag, cfg.n_max)
        meeting_time = partial(
            lagged_meeting_time, gep, cfg.prior(p), cfg.temperatures, n_max, cfg.J, lag
        )
        taus = _map_tasks(args.jobs, meeting_time, p_ss.spawn(cfg.n_reps))
        met = [t for t in taus if t is not None]
        entry = {
            "p": p,
            "lag": lag,
            "n_max": n_max,
            "n_reps": cfg.n_reps,
            "taus": taus,
            "n_unmet": len(taus) - len(met),
            "eps": cfg.eps,
            "mixing_time": None,
        }
        for i, tau in enumerate(taus):
            meeting_rows.append([str(i), str(p), str(lag), "" if tau is None else str(tau)])
        if met and len(met) == len(taus):
            curve = tv_bound_curve(taus, lag)
            entry["mixing_time"] = curve.mixing_time(cfg.eps)
            for t, bound in zip(curve.t_grid, curve.bound):
                tv_rows.append([str(p), str(int(t)), _fmt(bound)])
        per_p.append(entry)

    _echo_config(cfg, "couple", out_dir)
    _write_csv(out_dir / "meeting.csv", ["replication", "p", "L", "tau"], meeting_rows)
    _write_csv(out_dir / "tv.csv", ["p", "t", "bound"], tv_rows)
    _dump_json(
        out_dir / "report.json",
        {"command": "couple", "config": {**asdict(cfg)}, "dimensions": per_p},
    )


def cmd_report(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    trace, p_x = _read_trace_csv(Path(args.trace))
    if (p_x, trace.p - p_x) != (cfg.p_x, cfg.p_y):
        raise ConfigError(f"{args.trace} records p_x = {p_x}, p_y = {trace.p - p_x}, "
                          f"but the config has p_x = {cfg.p_x}, p_y = {cfg.p_y}")
    truth_x, truth_y = (None, None) if args.truth is None else _load_truth(args.truth, cfg)

    # the trace carries its iteration numbers, so a thinned trace keeps the
    # burn-in boundary of the run it came from
    report = build_report(trace, cfg.p_x, truth_x=truth_x, truth_y=truth_y)
    _echo_config(cfg, "report", out_dir)
    d = _report_dict(report)
    _dump_json(
        out_dir / "report.json",
        {"command": "report", "config": {**asdict(cfg)}, "report": d},
    )
    _write_metrics_csv(out_dir / "metrics.csv", [d])


def cmd_benchmark(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    tasks = [(cfg, s, True) for s in cfg.seeds] + [(cfg, s, False) for s in cfg.seeds]
    results = _map_tasks(args.jobs, _bench_worker, tasks)
    n = len(cfg.seeds)
    variants = {
        "tempered": [(seed, rep) for seed, rep in results[:n]],
        "plain": [(seed, rep) for seed, rep in results[n:]],
    }
    payload = {"command": "benchmark", "config": {**asdict(cfg)}, "variants": {}}
    table_rows = []
    metric_cols = None
    for name in ("tempered", "plain"):
        rep_dicts = [_report_dict(rep, seed=seed) for seed, rep in variants[name]]
        agg = aggregate_replications(rep_dicts)
        mses = [d.get("mse_x") for d in rep_dicts]
        trapped = (
            float(np.mean([m > 0.5 for m in mses]))
            if all(m is not None for m in mses)
            else None
        )
        payload["variants"][name] = {
            "aggregate": agg,
            "trapped_fraction": trapped,
            "replications": rep_dicts,
        }
        if metric_cols is None:
            metric_cols = [m for m in _METRICS if m in agg]
        row = [name] + [agg[m]["formatted"] for m in metric_cols]
        row.append("" if trapped is None else _fmt(trapped))
        table_rows.append(row)

    _echo_config(cfg, "benchmark", out_dir)
    _dump_json(out_dir / "report.json", payload)
    _write_csv(
        out_dir / "benchmark.csv",
        ["variant", *(metric_cols or []), "trapped_fraction"],
        table_rows,
    )


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate-cov": cmd_estimate_cov,
    "sample": cmd_sample,
    "couple": cmd_couple,
    "report": cmd_report,
    "benchmark": cmd_benchmark,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stcca",
        description="Sparse tempered CCA experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument(
            "--seed", type=int, default=None, help="single seed (shorthand for seeds=[SEED])"
        )
        for key in _SCHEMA:
            p.add_argument(f"--{key}", dest=key, default=None, metavar="V")
        if name == "report":
            p.add_argument("--trace", required=True, help="trace CSV to summarize")
            p.add_argument("--truth", default=None, help="truth JSON for metrics")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    raw: dict = {}
    if args.config is not None:
        loaded = _load_json(Path(args.config))
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        raw.update(loaded)
    for key in _SCHEMA:
        v = getattr(args, key, None)
        if v is not None:
            raw[key] = v
    if args.seed is not None:
        if getattr(args, "seeds", None) is not None:
            raise ConfigError("give either --seed or --seeds, not both")
        raw["seeds"] = [args.seed]
    return validate_config(raw, args.command)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError("jobs must be positive")
        cfg = _resolve_config(args)
        _COMMANDS[args.command](cfg, args, Path(args.out))
    except StccaError as exc:
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
            ),
            file=sys.stderr,
        )
        return 2 if isinstance(exc, ConfigError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
