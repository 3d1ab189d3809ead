"""The package names the benchmark harness relies on still exist.

``perfbench`` is loaded by path, not edited: its tracer wraps each probed
function with ``getattr``, and each workload builds its configs from the
package's constructors, so a deleted function or config field would first
show as a failed benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("probe", tracing.PROBES, ids=lambda p: f"{p.module}.{p.attr}")
def test_every_probe_resolves(probe):
    owner = importlib.import_module(f"stratcub.{probe.module}")
    if probe.method_of:
        owner = getattr(owner, probe.method_of)
    assert callable(getattr(owner, probe.attr))


def test_workload_configs_build(tmp_path):
    # configs are checked, not run; the S^2 brackets build their partitions
    # eagerly, so they get one tiny N
    w = workloads.WORKLOADS
    for name in ("wce-t1-rough", "wce-t2-riesz"):
        assert workloads._wce_config(w[name], 0, tmp_path).kind == "wce"
    (cfg,) = workloads._bracket_configs(w["brackets-s2"], 0, (4,))
    assert cfg.partition.N == 4
    kinds = [c.kind for c in workloads._fixed_configs(w["verify-fixed-fn"], 0, tmp_path)]
    assert kinds == ["indicator", "besov", "mz"]
