"""stcca performance benchmark: one workload per invocation.

    python3 perfbench/run.py --workload recover-p100 --seed 1 --seconds 24 --trace 0

Each run starts fresh Python processes, one at a time: a few that only set
up (their times and the worker's own give the median ``setup_s``), and the
worker, which runs the workload's operations in a closed loop, a single caller starting the next
operation when the previous one returns, for about ``--seconds``. BLAS is
pinned to BLAS_THREADS threads in every process. The last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``. The lines before it print every metric by name and unit,
the run metadata, the output digest and any failed check. Spans and the run
summary go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1
# set-up times per run: this many set-up-only processes plus the worker's own
SETUP_PROBES = 4
# a run must end within 180 s; the worker gets what is left after set-up
RUN_TIMEOUT_S = 170.0

_PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_meta() -> dict:
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10,
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        commit = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"commit": commit, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def machine_meta() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        import matplotlib  # noqa: F401  (only whether it imports matters)

        has_mpl = True
    except ImportError:
        has_mpl = False
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas_threads_pinned": BLAS_THREADS,
        # without matplotlib `stcca sample` skips its two PNGs, so its time
        # is not comparable with a machine that draws them
        "matplotlib": has_mpl,
        **git_meta(),
    }


def spawn(args, extra, deadline) -> dict:
    """Run one worker process to completion and return its JSON line."""
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in _PINNED_ENV})
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out", str(OUT), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def fmt_row(name, value, unit, note=""):
    return f"  {name:<32} {value:>14.6g} {unit:<6} {note}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="p=20 versions of the workloads, for the smoke test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "stcca" / "__init__.py").is_file():
        print(f"error: no stcca source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # half the set-up-only processes run before the worker and half after,
    # so the median set-up time samples the machine across the whole run
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [spawn(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes // 2)]
        rep = spawn(args, [], deadline)
        setups += [spawn(args, ["--setup-only"], deadline)["setup_s"]
                   for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(rep["setup_s"])

    failures = rep["failures"]
    attempted, failed = rep["attempted"], rep["failed"]
    meta = {**machine_meta(), **rep["meta"]}
    print(f"stcca benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ops={rep['ops']} "
          f"(one op = {rep['unit']})")
    print("meta " + json.dumps(meta, sort_keys=True))

    if args.trace:
        metrics = {m["name"]: {"value": rep["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print("per-layer metrics (traced run):")
        for name, m in metrics.items():
            print(fmt_row(name, m["value"], m["unit"]))
        shares = {k.split(".")[0]: v for k, v in rep["per_layer"].items()
                  if k.endswith(".self_share")}
        print("layer split (self time) of traced wall time {:.3f} s: ".format(rep["traced_wall_s"])
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        print("inclusive span shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in rep["inclusive_shares"].items() if v >= 0.01))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_cal": rep["wall_cal"],
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        per_op = f"per {rep['unit']}, median of {rep['ops']}"
        print("end-to-end metrics (untraced run), gated:")
        for name, m in metrics.items():
            note = ""
            if name == "setup_s":
                note = f"median of {len(setups)} processes"
            elif name == "wall_cal":
                q1, q3 = rep["wall_cal_quartiles"]
                note = f"{per_op} (quartiles {q1:.4g}, {q3:.4g})"
            print(fmt_row(name, m["value"], m["unit"], note))
        print("not gated:")
        q1, q3 = rep["wall_s_quartiles"]
        print(fmt_row("wall_s", rep["wall_s"], "s", f"{per_op} (quartiles {q1:.4g}, {q3:.4g})"))
        for name, value, unit in rep["table"]:
            print(fmt_row(name, value, unit))
        print(fmt_row("calibration_s", rep["cal_s"], "s",
                      f"mean of {rep['cal_samples']} timed kernel runs in the run"))
        print(fmt_row("fail_frac", failed / attempted, "share",
                      f"{failed} of {attempted} checked operations failed"))
    for f in failures:
        print(f"FAILED {f}")
    print(f"digest sha256:{rep['digest']} (outputs of the first ops at this seed)")

    OUT.mkdir(exist_ok=True)
    summary = {"args": vars(args), "meta": meta, "setup_s": setups, "worker": rep,
               "metrics": metrics}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"run-{tag}.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
