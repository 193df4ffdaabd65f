"""Golden artifacts: report and table bytes of every shipped config.

Each config under ``scripts/configs`` runs in a fresh interpreter with the
arguments and the single-threaded BLAS the benchmark harness used to record
``perfbench/reference/<config>/``, and its report and table must match those
bytes; a mismatch names the first differing JSON key path or CSV cell.
The library runs its matrix products on one OpenBLAS thread, so the
bytes would not move at another thread count either
(``tests/test_cli.py::TestDeterminism``).  dyadic_convergence runs at
``--samples 8``, the size its reference was recorded at.
"""

import csv
import io
import itertools
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
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class _Missing:
    def __repr__(self):
        return "<missing>"


MISSING = _Missing()


def _json_difference(got, want, path: str = ""):
    """The key path and both values of the first difference of two parsed
    JSON values, or None.  Leaves compare by repr, so 1 and 1.0 differ and
    nan equals nan."""
    if isinstance(got, dict) and isinstance(want, dict):
        keys = [*want, *(k for k in got if k not in want)]
        diffs = (_json_difference(got.get(k, MISSING), want.get(k, MISSING),
                                  f"{path}.{k}" if path else k) for k in keys)
    elif isinstance(got, list) and isinstance(want, list):
        pairs = itertools.zip_longest(got, want, fillvalue=MISSING)
        diffs = (_json_difference(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(pairs))
    else:
        return None if repr(got) == repr(want) else f"{path}: got {got!r}, want {want!r}"
    return next(filter(None, diffs), None)


def _csv_difference(got: str, want: str):
    """The row, the column and both cells of the first difference of two
    CSV texts, or None."""
    g, w = (list(csv.reader(io.StringIO(text))) for text in (got, want))
    header = w[0] if w else []
    for r, rows in enumerate(itertools.zip_longest(g, w, fillvalue=[])):
        for c, (a, b) in enumerate(itertools.zip_longest(*rows, fillvalue=MISSING)):
            if a != b:
                column = header[c] if c < len(header) else c
                return f"row {r}, column {column!r}: got {a!r}, want {b!r}"
    return None


def first_difference(fname: str, got: bytes, want: bytes) -> str:
    """Where an artifact first differs from its reference: the JSON key
    path or the CSV row and column, with both values, else the first
    differing byte."""
    try:
        text = got.decode("utf-8"), want.decode("utf-8")
        if fname.endswith(".json"):
            where = _json_difference(*(json.loads(t) for t in text))
        else:
            where = _csv_difference(*text) if fname.endswith(".csv") else None
    except ValueError:  # UnicodeDecodeError and JSONDecodeError included
        where = None
    if where is None:
        k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        where = f"byte {k}: got {got[k:k + 24]!r}, want {want[k:k + 24]!r}"
    return f"{fname}: {where}"


def test_first_difference_names_key_path_and_cell():
    want = b'{"seed": 0, "results": {"rows": [{"ok": true}, {"ok": true, "x": 1.5}]}}'
    got = b'{"seed": 0, "results": {"rows": [{"ok": true}, {"ok": false, "x": 1.5}]}}'
    assert first_difference("a_report.json", got, want) == \
        "a_report.json: results.rows[1].ok: got False, want True"
    assert first_difference("a_report.json", got[:-2] + b', "y": 2}}', got) == \
        "a_report.json: results.y: got 2, want <missing>"
    assert first_difference("a_table.csv", b"H,c\n0.3,1.0\n0.4,2.5\n",
                            b"H,c\n0.3,1.0\n0.4,2.0\n") == \
        "a_table.csv: row 2, column 'c': got '2.5', want '2.0'"
    # the same data written differently: only the bytes can tell
    assert first_difference("a_report.json", b'{"seed": 0}', b'{"seed":0}') == \
        "a_report.json: byte 8: got b' 0}', want b'0}'"


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
        got, want = (tmp_path / fname).read_bytes(), (REFERENCE / name / fname).read_bytes()
        assert got == want, first_difference(fname, got, want)
