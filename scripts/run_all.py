#!/usr/bin/env python3
"""Run every shipped experiment config and collect reports under reports/.

Each config's verdict line is printed with the config's wall time, in
process, next to it; the time goes to stdout only, never into a report.
Exits nonzero if any suite fails a hard check.  With --check the reports go
to a temporary directory instead and are compared byte for byte with the
committed ones in reports/; every file that differs, or exists on one side
only, is listed and the exit status is 1.
"""

import argparse
import contextlib
import io
import pathlib
import sys
import tempfile
import time

from gexpect.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_configs(out: pathlib.Path) -> int:
    worst = 0
    for cfg in sorted((ROOT / "configs").glob("*.yaml")):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as verdict:
            code = cli_main(["--config", str(cfg), "--out", str(out)])
        line = verdict.getvalue().rstrip() or f"[{cfg.stem}] exit status {code}"
        print(f"{line}  ({time.perf_counter() - start:.2f} s)")
        worst = max(worst, code)
    return worst


def differing_files(new: pathlib.Path, committed: pathlib.Path) -> list:
    names = {p.name for p in new.iterdir()} | {p.name for p in committed.iterdir()}
    return [name for name in sorted(names)
            if not (new / name).is_file() or not (committed / name).is_file()
            or (new / name).read_bytes() != (committed / name).read_bytes()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh reports with the committed reports/")
    args = parser.parse_args(argv)
    if not args.check:
        return run_configs(ROOT / "reports")
    with tempfile.TemporaryDirectory() as tmp:
        worst = run_configs(pathlib.Path(tmp))
        differ = differing_files(pathlib.Path(tmp), ROOT / "reports")
    for name in differ:
        print(f"differs from reports/: {name}")
    if differ:
        return 1
    print("all reports reproduced byte for byte")
    return worst


if __name__ == "__main__":
    sys.exit(main())
