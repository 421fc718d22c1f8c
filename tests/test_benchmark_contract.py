"""The timing benchmark's contract with the package, at tiny sizes.

perfbench/ times stcca from outside. Its tracer rebinds names in the modules
that call them (``stcca.sampler.gibbs_update_delta``,
``stcca.coupling.advance_chain``, ``stcca.cli.build_report``, ...), subclasses
``QuadraticCache``, ``AdaptiveHook`` and ``CoupledState``, and reads some
arguments by position (``run_chain``'s ``n_iters`` is the fourth). A rename or
a signature change that breaks those wrappers, or that makes a traced
operation differ from an untraced one, fails the benchmark; this test makes
it fail here first. It reads perfbench/ and changes nothing there.

It also pins the SHA-256 of operation 0's digest item for each workload at
``tiny=True``, seed 7, recorded before the library's defaults were written
once: a change to stcca that moves one byte of a benchmark output fails
here. A deliberate output change must re-record them and say so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# sha256(digest_item(run_op(wl, 0))) at tiny=True, seed 7
PINNED_DIGESTS = {
    "cli-kendall-p1000": "2e76ec87106e10f99d8194113f4b423827a60b60263261d70a93cee19b782b8a",
    "couple-p100": "0494aeb56d68d0683dcdc2856752cd331cb1a9112b239e9a529519dbe29e3e63",
    "estimate-p1000": "c612d246d6f48dc5643ec69005a00a92e84da17fc407e7b1e22d9878a164837e",
    "recover-p100": "c39695784d69e27a848911e37b9add4af9554e1267bfc715b0e45637699c4c94",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operation_matches_untraced(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, True, tmp_path / "work")
    tracer = tracing.Tracer()
    try:
        plain = worker.run_op(wl, 0)
        undo = tracing.install(tracer)
        try:
            traced = worker.run_op(wl, 0, tracer)
        finally:
            undo()
    finally:
        wl.close()
    assert plain.error is None and traced.error is None
    assert wl.digest_item(traced) == wl.digest_item(plain)
    assert hashlib.sha256(wl.digest_item(plain)).hexdigest() == PINNED_DIGESTS[name]
    assert wl.check(plain) == [] and wl.check(traced) == []
    assert tracing.self_time_gap(tracer) <= 1e-9
    # the worker derives its per-layer metrics from these spans
    tracing.layer_metrics(tracer)
