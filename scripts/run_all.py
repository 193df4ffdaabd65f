#!/usr/bin/env python3
"""Run every experiment config in scripts/configs through the rough-gauss CLI.

Each config lands in <out-dir>/<config-name>/ as report.json + table.csv +
run_meta.json (sweep configs produce the *_sweep_* variants via the `table`
subcommand).  Exits with the number of failing configs, so `echo $?` after a
full run tells you how many experiments missed their checks.

    python3 scripts/run_all.py --out-dir runs
    python3 scripts/run_all.py --only grr --only lift
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rough_gauss.cli import main as cli_main  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def run_one(cfg_path: Path, out_dir: Path) -> int:
    data = json.loads(cfg_path.read_text(encoding="utf-8"))
    sub = "table" if "sweep" in data else "run"
    argv = [sub, str(cfg_path), "--out-dir", str(out_dir / cfg_path.stem)]
    # file references inside a config are relative to the repo root; resolve
    # them against the config's own directory so this works from anywhere
    if data.get("path"):
        argv += ["--path", str((CONFIG_DIR / Path(data["path"]).name))]
    return cli_main(argv)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="runs", help="artifact root")
    ap.add_argument("--only", action="append", default=None, metavar="NAME",
                    help="run just these config stems (repeatable)")
    args = ap.parse_args()

    configs = sorted(CONFIG_DIR.glob("*.json"))
    if args.only:
        configs = [c for c in configs if c.stem in set(args.only)]
        if not configs:
            ap.error(f"no configs matched {args.only!r}")

    out_dir = Path(args.out_dir)
    failures = []
    for cfg in configs:
        t0 = time.monotonic()
        code = run_one(cfg, out_dir)
        dt = time.monotonic() - t0
        status = "ok" if code == 0 else f"exit {code}"
        print(f"  {cfg.stem:<24} {status:<8} {dt:6.1f}s")
        if code != 0:
            failures.append(cfg.stem)

    print(f"{len(configs) - len(failures)}/{len(configs)} configs passed")
    if failures:
        print("failed:", ", ".join(failures))
    return len(failures)


if __name__ == "__main__":
    sys.exit(main())
