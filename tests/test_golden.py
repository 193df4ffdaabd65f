"""Golden artifacts: report and table bytes of every shipped config.

Each config under ``scripts/configs`` runs in a fresh interpreter with the
arguments and the single-threaded BLAS the benchmark harness used to record
``perfbench/reference/<config>/``, and its report and table must match those
bytes.  The library runs its matrix products on one OpenBLAS thread, so the
bytes would not move at another thread count either
(``tests/test_cli.py::TestDeterminism``).  dyadic_convergence runs at
``--samples 8``, the size its reference was recorded at.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
REFERENCE = ROOT / "perfbench" / "reference"

GOLDEN = sorted(p.stem for p in CONFIGS.glob("*.json"))

# extra CLI arguments each reference was recorded with
EXTRA = {"dyadic_convergence": ("--samples", "8")}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("ROUGH_GAUSS_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("name", GOLDEN)
def test_artifacts_match_reference(name, tmp_path):
    config = CONFIGS / f"{name}.json"
    data = json.loads(config.read_text(encoding="utf-8"))
    command = "table" if "sweep" in data else "run"
    # cwd is the repository root: the lift config names its input path
    # relative to it, and the report echoes that path
    proc = subprocess.run(
        [sys.executable, "-m", "rough_gauss.cli", command, str(config),
         "--out-dir", str(tmp_path), "--seed", str(data["seed"]),
         "--workers", "1", *EXTRA.get(name, ())],
        cwd=ROOT, env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    expected = sorted(p.name for p in (REFERENCE / name).iterdir())
    got = sorted(p.name for p in tmp_path.iterdir()
                 if not p.name.endswith("_run_meta.json"))
    assert got == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == \
            (REFERENCE / name / fname).read_bytes(), fname
