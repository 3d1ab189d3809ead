"""Golden SHA-256 digests of the bytes a fixed, fast battery writes.

The battery: the c11 experiment configs at workers = 1, ``stratcub verify
--seed 0 --out``, one T^1 and one S^2 ``run_report``, one S^2 ``verify_partition``
report and one T^1 and one S^2 lower-bound probe.  Any change to a sampled
number changes a digest.  After an intended change, regenerate the file with

    PYTHONPATH=src python tests/test_golden_digests.py --regen

and say which digests moved and why.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from stratcub import cli, wce
from stratcub.experiments import ExperimentConfig, run_experiment
from stratcub.kernel import RIESZ, ROUGH_RIESZ, KernelSpec
from stratcub.partition import sphere_zonal_partition, torus_grid_partition, verify_partition
from stratcub.space import SPHERE2, TORUS, make_space
from stratcub.wce import WceConfig, lower_hypothesis_probe, run_report
from test_acceptance import C11_CONFIGS, SEED

GOLDEN = Path(__file__).with_name("golden_digests.json")
T1 = make_space(TORUS, 1)
S2 = make_space(SPHERE2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_sha(report) -> str:
    # json writes floats by repr, which round-trips every bit
    return _sha(json.dumps(dataclasses.asdict(report), sort_keys=True).encode())


def _c11() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(C11_CONFIGS):
            stem = Path(tmp) / f"c11_{i}"
            run_experiment(ExperimentConfig(**{**cfg.__dict__, "out": str(stem), "workers": 1}))
            for ext in (".csv", ".json"):
                out[f"c11/{i}_{cfg.kind}{ext}"] = _sha(Path(str(stem) + ext).read_bytes())
    return out


def _verify_cli() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--seed", "0", "--out", str(Path(tmp) / "v")]) == 0
        return {f"verify/{path.name}": _sha(path.read_bytes())
                for path in sorted(Path(tmp).iterdir())}


def _run_report_t1() -> dict[str, str]:
    cfg = WceConfig(torus_grid_partition(T1, 16), KernelSpec(RIESZ, alpha=0.75, d=1), p=2.0,
                    m_y=64, m_z=4, n_draws=8, seed=SEED, gamma_pairs=32)
    return {"run_report/t1": _report_sha(run_report(cfg))}


def _run_report_s2() -> dict[str, str]:
    # a direct call runs both draw loops on every CPU the process may run on
    cfg = WceConfig(sphere_zonal_partition(S2, 32), KernelSpec(RIESZ, alpha=1.5, d=2), p=2.0,
                    m_y=1024, m_z=4, n_draws=8, seed=SEED, gamma_pairs=32)
    return {"run_report/s2": _report_sha(run_report(cfg))}


def _verify_partition_s2() -> dict[str, str]:
    rep = verify_partition(sphere_zonal_partition(S2, 33), sample_budget=4000, seed=SEED)
    return {"verify_partition/s2": _report_sha(rep)}


def _probes() -> dict[str, str]:
    t1 = WceConfig(torus_grid_partition(T1, 32),
                   KernelSpec(ROUGH_RIESZ, alpha=0.9, d=1, eps=0.25, kappa=1.0), p=2.0,
                   n_draws=4, seed=SEED)
    s2 = WceConfig(sphere_zonal_partition(S2, 128), KernelSpec(RIESZ, alpha=1.5, d=2), p=2.0,
                   n_draws=4, seed=SEED)
    return {"probe/t1": _report_sha(lower_hypothesis_probe(t1, 500)),
            "probe/s2": _report_sha(lower_hypothesis_probe(s2, 200))}


BATTERY = (_c11, _verify_cli, _run_report_t1, _run_report_s2, _verify_partition_s2,
           _probes)


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _digests() -> dict[str, str]:
    out = {}
    for part in BATTERY:
        out.update(part())
    return out


def test_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    current = _digests()
    moved = sorted(k for k in golden["digests"].keys() | current.keys()
                   if golden["digests"].get(k) != current.get(k))
    now = _versions()
    assert not moved, (
        f"digests moved: {moved}; made with Python {golden['python']}, numpy "
        f"{golden['numpy']}; running Python {now['python']}, numpy {now['numpy']}")


def test_one_ulp_in_total_integral_moves_a_digest(monkeypatch):
    golden = json.loads(GOLDEN.read_text())["digests"]
    exact = wce.total_integral
    monkeypatch.setattr(wce, "total_integral",
                        lambda kern, space: np.nextafter(exact(kern, space), np.inf))
    assert _run_report_t1()["run_report/t1"] != golden["run_report/t1"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: python tests/test_golden_digests.py --regen")
    GOLDEN.write_text(json.dumps({**_versions(), "digests": _digests()}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
