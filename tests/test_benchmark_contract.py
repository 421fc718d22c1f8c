"""The timing benchmark's contract with the package, at tiny sizes.

perfbench/ times stcca from outside. Its tracer rebinds names in the modules
that call them (``stcca.sampler.gibbs_update_delta``,
``stcca.coupling.advance_chain``, ``stcca.cli.build_report``, ...), subclasses
``QuadraticCache``, ``AdaptiveHook`` and ``CoupledState``, and reads some
arguments by position (``run_chain``'s ``n_iters`` is the fourth). A rename or
a signature change that breaks those wrappers, or that makes a traced
operation differ from an untraced one, fails the benchmark; this test makes
it fail here first. It reads perfbench/ and changes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


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
    assert wl.check(plain) == [] and wl.check(traced) == []
    assert tracing.self_time_gap(tracer) <= 1e-9
    # the worker derives its per-layer metrics from these spans
    tracing.layer_metrics(tracer)
