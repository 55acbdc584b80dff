"""The benchmark still binds the program: workloads set up, spans find their targets.

perfbench/ builds each workload from gexpect's public names and wraps traced
functions by name, so a rename there would first show as a failed benchmark
run.  These tests set both workloads up (no timed passes) and prepare the
tracer over the modules the benchmark imports.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import worker
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return worker, workloads, spans


@pytest.mark.parametrize("workload", ["limits", "large"])
def test_workload_sets_up(perfbench, workload, tmp_path):
    _, workloads, _ = perfbench
    ops = workloads.build(workload, 7, str(tmp_path))
    assert ops and all(callable(op.run) for op in ops)


def test_tracer_finds_every_traced_function(perfbench):
    worker, _, spans = perfbench
    tracer = spans.Tracer()
    tracer.prepare(worker._import_gexpect())  # finds bindings, installs nothing
    traced = {attr for _, attr, *_ in tracer._targets}
    assert {attr for _, attr, *_ in spans._TARGETS} | {
        attr for _, attr, *_ in spans._METHOD_TARGETS} <= traced
