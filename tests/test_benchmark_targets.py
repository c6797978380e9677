"""The traced benchmark run wraps layer functions under the names their
callers look them up by (perfbench/workloads.py, layer_targets). A name that
a refactor drops from its module would crash every traced run, so check
that each one is still defined where the benchmark expects it."""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_wrap_point_is_defined_on_its_owner():
    targets = _workloads().layer_targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert missing == []
