"""One workload process: set up, run operations in a closed loop, check them.

Started by run.py, one process per workload run; prints one JSON object as
its last stdout line. ``--setup-only`` exits right after set-up, which is
how run.py takes several set-up times per run. With ``--trace 1`` every
operation runs twice, untraced and then traced on the same inputs, so the
tracing overhead and the digest equality are measured on identical work.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# operations every run completes whatever --seconds says; the digest covers
# exactly these, so two runs at one seed digest the same inputs
MIN_OPS = 3
# period of the calibration timer in untraced runs
CAL_PERIOD_S = 0.05


class Calibration:
    """Fixed kernels timed on a timer throughout an untraced run.

    The machine this benchmark was tuned on flips between a fast state and
    one about 2x slower every 10-500 ms, and the share of slow time drifts
    from one minute to the next. So SIGALRM fires every CAL_PERIOD_S and its
    handler times one run of the workload's kernels; Python runs the
    handler between bytecodes, inside whatever operation is running. An
    operation's time, less the kernel time spent inside it, divided by the
    mean kernel time measured inside it, cancels most of the drift, provided
    the kernels slow down the way the operation does. There are two:
    ``python`` is a scalar loop over small numpy dot products, like the
    Gibbs sweep; ``blas`` is dense matrix products, like the Kendall sums.
    The kernels belong to the benchmark, so no change to stcca changes them,
    and they draw no random numbers from stcca's streams.
    """

    def __init__(self, kernels):
        import numpy as np

        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((100, 100))
        self.v = rng.standard_normal(100)
        self.G = rng.standard_normal((300, 300))
        self.kernels = [getattr(self, k) for k in kernels]
        self.ends: list[float] = []
        self.durations: list[float] = []

    def python(self) -> None:
        s = 0.0
        for i in range(3000):
            s = math.tanh(s + float(self.rows[i % 100] @ self.v) * 1e-3)

    def blas(self) -> None:
        for _ in range(2):
            self.G @ self.G

    def tick(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        for k in self.kernels:
            k()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - t)

    def __enter__(self):
        for _ in range(3):
            self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def settle(self, res) -> None:
        """Take the kernel time inside res out of its wall time, and set
        res.cal to the mean kernel time inside it (or of the last three
        kernel runs, when fewer ran inside it)."""
        end = res.start + res.wall
        inside = [d for e, d in zip(self.ends, self.durations) if res.start <= e <= end]
        res.wall -= sum(inside)
        recent = inside if len(inside) >= 3 else [
            d for e, d in zip(self.ends, self.durations) if e <= end][-3:]
        res.cal = sum(recent) / len(recent)


def blas_threads():
    """Thread count OpenBLAS reports for itself, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_meta() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_reported": blas_threads(),
    }


def run_op(wl, i, tracer=None):
    from stcca.errors import StccaError
    from workloads import Result

    root = None
    if tracer is not None:
        tracer.op = i
        root = tracer.begin("bench.op")
    t = time.perf_counter()
    try:
        res = wl.op(i)
    except StccaError as exc:
        res = Result(error=f"{wl.name}: op {i} raised {type(exc).__name__}: {exc}")
    res.start = t
    res.wall = time.perf_counter() - t
    if tracer is not None:
        tracer.finish(root)
    return res


def checked(wl, res) -> tuple[list[str], bytes]:
    """Failure messages and SHA-256 of one operation's deterministic outputs."""
    if res.error is not None:
        return [res.error], b""
    fails, item = wl.check(res), hashlib.sha256(wl.digest_item(res)).digest()
    if not wl.keep_outputs:
        res.out = None
    return fails, item


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import workloads

    out_dir = Path(args.out)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.tiny, out_dir / f"work-{tag}-{args.setup_only:d}"
    )
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        cal = contextlib.nullcontext()
    else:
        cal = Calibration(wl.calibrate_with)

    results, traced, failures, items, traced_items = [], [], [], [], []
    failed = 0

    def record(msgs):
        nonlocal failed
        failures.extend(msgs)
        failed += bool(msgs)

    start = time.perf_counter()
    i = 0
    try:
        with cal:
            while True:
                if i >= MIN_OPS:
                    spent = time.perf_counter() - start
                    per_op = statistics.median(r.wall + t.wall for r, t in zip(results, traced)) \
                        if traced else statistics.median(r.wall for r in results)
                    if spent + per_op > args.seconds:
                        break
                res = run_op(wl, i)
                if tracer is None:
                    cal.settle(res)
                results.append(res)
                fails, item = checked(wl, res)
                record(fails)
                items.append(item)
                if tracer is not None:
                    undo = tracing.install(tracer)
                    try:
                        tres = run_op(wl, i, tracer)
                    finally:
                        undo()
                    traced.append(tres)
                    fails, item = checked(wl, tres)
                    record(fails)
                    traced_items.append(item)
                i += 1
        ok = [r for r in results if r.error is None]
        final = wl.final_checks(ok)
        if final is not None:
            record(final)
        attempted = len(results) + len(traced) + (final is not None)
        digest = hashlib.sha256(b"".join(items[:MIN_OPS])).hexdigest()

        report = {
            "workload": wl.name,
            "unit": wl.unit,
            "ops": len(results),
            "setup_s": setup_s,
            "attempted": attempted,
            "failures": failures,
            "digest": digest,
            "meta": library_meta(),
        }
        if tracer is None:
            unit_walls = np.array([wl.unit_wall(r) for r in ok])
            cal_walls = unit_walls / np.array([r.cal for r in ok])
            for key, x in (("wall_s", unit_walls), ("wall_cal", cal_walls)):
                report[key] = float(np.median(x)) if x.size else None
                report[f"{key}_quartiles"] = (
                    [float(q) for q in np.percentile(x, [25, 75])] if x.size else None
                )
            report["cal_s"] = float(np.mean(cal.durations))
            report["cal_samples"] = len(cal.durations)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report["table"] = wl.table(ok) if ok else []
        else:
            # two run-level checks: equal outputs, and self times that add up
            report["attempted"] += 2
            bad = [k for k, (a, b) in enumerate(zip(items, traced_items)) if a != b]
            record([f"trace: traced outputs differ from untraced at ops {bad}"] if bad else [])
            gap = tracing.self_time_gap(tracer)
            record([f"trace: span self times miss the traced wall by {gap:.2e}"]
                   if gap > 1e-9 else [])
            untraced_wall = sum(r.wall for r in results)
            traced_wall = sum(t.wall for t in traced)
            layers = tracing.layer_metrics(tracer)
            layers.update(wl.facts([t for t in traced if t.error is None]))
            layers["simdata.s"] = wl.simdata_s
            layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
            report["per_layer"] = layers
            report["inclusive_shares"] = tracing.inclusive_shares(tracer)
            report["traced_wall_s"] = traced_wall
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_csv(out_dir / f"spans-{tag}.csv")
    finally:
        wl.close()
    report["failed"] = failed
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
