"""In-memory span recorder and the wrappers that put it around stcca's layers.

The wrappers are installed by rebinding names in the modules that call them
(for example ``stcca.sampler.gibbs_update_delta`` and
``stcca.coupling.gibbs_update_delta``); nothing under ``src/`` changes. A
wrapper consumes no randomness and returns exactly what the wrapped call
returned, so a traced run produces the same outputs as an untraced one.

A span is (name, start, end, parent, op): ``op`` is the index of the
benchmark operation it belongs to and ``parent`` the index of the enclosing
span (-1 for an operation's root span). Calls in one process run on one
thread with no queue, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Spans and counters for one traced run, kept in memory until written."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.op = -1
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.values: defaultdict[str, list] = defaultdict(list)
        self.hooks: list = []

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    def durations(self) -> np.ndarray:
        return np.asarray(self.end) - np.asarray(self.start)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        child = np.zeros_like(dur)
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["span", "name", "start", "end", "parent", "op"])
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.name):
                w.writerow([
                    i, name, repr(self.start[i] - t0), repr(self.end[i] - t0),
                    self.parent[i], self.op_of[i],
                ])


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        i = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if after is not None:
            after(out, args, kwargs)
        return out

    return traced


def install(tracer: Tracer):
    """Rebind the layer entry points to traced wrappers; returns an undo."""
    import stcca.adapt as adapt
    import stcca.cli as cli
    import stcca.coupling as coupling
    import stcca.covariance as covariance
    import stcca.postprocess as postprocess
    import stcca.sampler as sampler

    counts, values = tracer.counts, tracer.values
    saved = []

    def rebind(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def wrap_in(modules, attr, name, after=None):
        fn = getattr(modules[0], attr)
        traced = _wrap(tracer, name, fn, after)
        for m in modules:
            if getattr(m, attr) is not fn:
                raise RuntimeError(f"{m.__name__}.{attr} is not {modules[0].__name__}.{attr}")
            rebind(m, attr, traced)

    # covariance
    def after_kendall(out, args, kwargs):
        n, d = np.shape(args[0])
        pairs = n * (n - 1) // 2
        counts["kendall_calls"] += 1
        counts["kendall_flop"] += 2.0 * pairs * d * d
        chunk = min(pairs, covariance._KENDALL_CHUNK) * d * 8
        counts["kendall_chunk_bytes"] = max(counts["kendall_chunk_bytes"], chunk)

    wrap_in([covariance, cli], "estimate_gep", "covariance.estimate_gep")
    wrap_in([covariance], "kendall_tau_matrix", "covariance.kendall", after_kendall)
    wrap_in([covariance], "psd_repair", "covariance.psd_repair")

    # sampler
    def after_run_chain(trace, args, kwargs):
        gep, n_iters = args[0], args[3]
        values["trace_mem_bytes"].append(9 * gep.p * (n_iters + 1))

    def after_gibbs(out, args, kwargs):
        subset = args[4] if len(args) > 4 else kwargs["subset"]
        counts["sweeps"] += 1
        counts["coords"] += len(subset)

    def after_mala(out, args, kwargs):
        counts["mala_calls"] += 1
        counts["mala_accepted"] += bool(out[0])
        values["sel_size"].append(int(args[0].delta.sum()))

    wrap_in([adapt], "run_chain", "sampler.run_chain", after_run_chain)
    wrap_in([sampler, coupling], "advance_chain", "sampler.step")
    wrap_in([sampler, coupling], "draw_subset", "sampler.subset")
    wrap_in([sampler, coupling], "gibbs_update_delta", "sampler.gibbs", after_gibbs)
    wrap_in([sampler], "mala_update_theta", "sampler.mala", after_mala)

    temperature_update = sampler.temperature_update

    def traced_temperature(state, gep, prior, ladder, rng, *args, **kwargs):
        k_before = state.k
        i = tracer.begin("sampler.temp")
        try:
            k = temperature_update(state, gep, prior, ladder, rng, *args, **kwargs)
        finally:
            tracer.finish(i)
        if ladder.K > 1:
            counts["temp_moves"] += 1
            counts["temp_accepted"] += k != k_before
        return k

    for m in (sampler, coupling):
        rebind(m, "temperature_update", traced_temperature)

    # model
    class TracedCache(sampler.QuadraticCache):
        def __init__(self, gep, state):
            i = tracer.begin("model.cache_build")
            try:
                super().__init__(gep, state)
            finally:
                tracer.finish(i)

        def commit_flip(self, j, theta_j, now_selected):
            i = tracer.begin("model.commit_flip")
            try:
                super().commit_flip(j, theta_j, now_selected)
            finally:
                tracer.finish(i)

    for m in (sampler, coupling):
        rebind(m, "QuadraticCache", TracedCache)

    # adapt
    class TracedHook(adapt.AdaptiveHook):
        def __init__(self, adapt_state, ladder):
            super().__init__(adapt_state, ladder)
            tracer.hooks.append(self)

        def after_iteration(self, state, k_mala, alpha):
            i = tracer.begin("adapt.hook")
            try:
                super().after_iteration(state, k_mala, alpha)
            finally:
                tracer.finish(i)
            counts["hook_calls"] += 1
            counts["cold_steps"] += state.k == 1

    for m in (adapt, coupling):
        rebind(m, "AdaptiveHook", TracedHook)
    wrap_in([adapt, cli], "run_adaptive_chain", "adapt.run_adaptive_chain")

    # coupling
    def after_theta(out, args, kwargs):
        pair = args[0]
        values["sel_size"].append(int(pair.chain1.delta.sum()))
        values["sel_size"].append(int(pair.chain2.delta.sum()))

    class TracedPair(coupling.CoupledState):
        def is_identical(self):
            i = tracer.begin("coupling.identical")
            try:
                return super().is_identical()
            finally:
                tracer.finish(i)

    rebind(coupling, "CoupledState", TracedPair)
    wrap_in([coupling], "replicate_meeting_times", "coupling.replicate")
    wrap_in([coupling], "lagged_meeting_time", "coupling.lagged")
    wrap_in([coupling], "coupled_step", "coupling.step")
    wrap_in([coupling], "coupled_gibbs_step", "coupling.gibbs")
    wrap_in([coupling], "coupled_theta_step", "coupling.theta", after_theta)
    wrap_in([coupling], "coupled_temperature_step", "coupling.temp")

    # postprocess
    def after_report(rep, args, kwargs):
        values["n_samples"].append(rep.n_samples)
        if rep.mse_x is not None:
            values["mse_x"].append(rep.mse_x)

    wrap_in([postprocess, cli], "build_report", "postprocess.report", after_report)

    # cli: one span per subcommand, named after it
    main = cli.main

    def traced_main(argv=None):
        i = tracer.begin(f"cli.{argv[0]}")
        try:
            return main(argv)
        finally:
            tracer.finish(i)

    rebind(cli, "main", traced_main)
    wrap_in([cli], "_write_trace_csv", "cli.trace_write")
    wrap_in([cli], "_read_trace_csv", "cli.trace_read")

    def undo():
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)

    return undo


LAYERS = ("bench", "covariance", "sampler", "model", "adapt", "coupling", "postprocess", "cli")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans and counters.

    Means are over calls; a layer that never ran reports 0. Self-time shares
    are of the summed root-span durations, so they add up to 1.
    """
    names = np.asarray(tracer.name, dtype=object)
    dur = tracer.durations()
    self_t = tracer.self_times()
    parent = np.asarray(tracer.parent, dtype=np.int64)
    c, v = tracer.counts, tracer.values

    def sel(name):
        return names == name

    def mean_dur(name, scale=1.0):
        m = sel(name)
        return float(dur[m].mean()) * scale if m.any() else 0.0

    def n_calls(name):
        return int(sel(name).sum())

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    step = sel("sampler.step")
    coupled_steps = n_calls("coupling.step")
    solo_steps = int(step.sum())
    steps = solo_steps + coupled_steps
    flips = n_calls("model.commit_flip")
    gibbs = sel("sampler.gibbs")
    lagged = sel("coupling.lagged")
    under_lagged = step & np.isin(parent, np.flatnonzero(lagged))
    # a subcommand's own time: its span minus the spans of other layers
    # under it, so trace CSV write and read stay in it
    layer = np.array([n.split(".", 1)[0] for n in tracer.name], dtype=object)
    other = parent >= 0
    other[other] = layer[parent[other]] != layer[other]
    foreign = np.zeros_like(dur)
    np.add.at(foreign, parent[other], dur[other])
    sample_self = (dur - foreign)[sel("cli.sample")]
    report_self = (dur - foreign)[sel("cli.report")]
    run_chain = sel("sampler.run_chain")

    out = {
        "covariance.estimate_gep_s": mean_dur("covariance.estimate_gep"),
        "covariance.kendall_s": mean_dur("covariance.kendall"),
        "covariance.psd_repair_s": mean_dur("covariance.psd_repair"),
        "covariance.kendall_gflop": ratio(c["kendall_flop"], c["kendall_calls"]) / 1e9,
        "covariance.kendall_chunk_mb": c["kendall_chunk_bytes"] / 2**20,
        "sampler.subset_us": mean_dur("sampler.subset", 1e6),
        "sampler.gibbs_us": mean_dur("sampler.gibbs", 1e6),
        "sampler.gibbs_coord_ns": ratio(dur[gibbs].sum(), c["coords"]) * 1e9,
        "sampler.flips_per_sweep": ratio(flips, c["sweeps"]),
        "sampler.flip_ratio": ratio(flips, c["coords"]),
        "sampler.mala_us": mean_dur("sampler.mala", 1e6),
        "sampler.mala_accept": ratio(c["mala_accepted"], c["mala_calls"]),
        "sampler.sel_size_mean": float(np.mean(v["sel_size"])) if v["sel_size"] else 0.0,
        "sampler.temp_us": mean_dur("sampler.temp", 1e6),
        "sampler.temp_accept": ratio(c["temp_accepted"], c["temp_moves"]),
        "sampler.step_us_p50": float(np.percentile(dur[step], 50)) * 1e6 if solo_steps else 0.0,
        "sampler.step_us_p99": float(np.percentile(dur[step], 99)) * 1e6 if solo_steps else 0.0,
        "sampler.steps": solo_steps + 2 * coupled_steps,
        "sampler.record_self_s": float(self_t[run_chain].mean()) if run_chain.any() else 0.0,
        "sampler.trace_mem_mb": float(np.mean(v["trace_mem_bytes"])) / 2**20
        if v["trace_mem_bytes"] else 0.0,
        "model.cache_build_us": mean_dur("model.cache_build", 1e6),
        "model.cache_builds_per_step": ratio(n_calls("model.cache_build"), steps),
        "model.commit_flip_us": mean_dur("model.commit_flip", 1e6),
        "adapt.hook_us": mean_dur("adapt.hook", 1e6),
        "adapt.wl_stages": float(np.mean([h.adapt.n_resets for h in tracer.hooks]))
        if tracer.hooks else 0.0,
        "adapt.cold_frac": ratio(c["cold_steps"], c["hook_calls"]),
        "coupling.step_us": mean_dur("coupling.step", 1e6),
        "coupling.gibbs_us": mean_dur("coupling.gibbs", 1e6),
        "coupling.theta_us": mean_dur("coupling.theta", 1e6),
        "coupling.temp_us": mean_dur("coupling.temp", 1e6),
        "coupling.identical_us": mean_dur("coupling.identical", 1e6),
        "coupling.solo_share": ratio(dur[under_lagged].sum(), dur[lagged].sum()),
        "postprocess.report_s": mean_dur("postprocess.report"),
        "postprocess.n_samples": float(np.mean(v["n_samples"])) if v["n_samples"] else 0.0,
        "postprocess.mse_x_p50": float(np.median(v["mse_x"])) if v["mse_x"] else 0.0,
        "cli.sample_self_s": float(sample_self.mean()) if sample_self.size else 0.0,
        "cli.report_self_s": float(report_self.mean()) if report_self.size else 0.0,
        "cli.trace_write_s": mean_dur("cli.trace_write"),
        "cli.trace_read_s": mean_dur("cli.trace_read"),
    }
    roots = parent < 0
    total = float(dur[roots].sum())
    for name in LAYERS:
        out[f"{name}.self_share"] = ratio(self_t[layer == name].sum(), total)
    out["coupling.step_share"] = ratio(dur[sel("coupling.step")].sum(), total)
    out["trace.spans"] = len(tracer.name)
    return out


def inclusive_shares(tracer: Tracer) -> dict:
    """Share of the traced wall time spent inside each span name, children
    included (no span calls itself, so nothing is counted twice)."""
    dur = tracer.durations()
    total = float(dur[np.asarray(tracer.parent) < 0].sum())
    shares: defaultdict[str, float] = defaultdict(float)
    for name, d in zip(tracer.name, dur):
        shares[name] += d / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def self_time_gap(tracer: Tracer) -> float:
    """|sum of self times - sum of root durations|, relative to the latter."""
    dur = tracer.durations()
    total = float(dur[np.asarray(tracer.parent) < 0].sum())
    return abs(float(tracer.self_times().sum()) - total) / total if total else 0.0
