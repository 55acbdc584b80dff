#!/usr/bin/env python3
"""Run every shipped experiment config and collect reports under reports/.

Each config's verdict line is printed with the config's wall time, in
process, next to it; the time goes to stdout only, never into a report.
Exits nonzero if any suite fails a hard check.  With --check the reports go
to a temporary directory instead and are compared byte for byte with the
committed ones in reports/; every file that differs, or exists on one side
only, is listed, each differing file with its first differing line pair
(committed, then fresh), and the exit status is 1.
"""

import argparse
import contextlib
import io
import itertools
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


def first_differing_lines(new: pathlib.Path, committed: pathlib.Path):
    """(line number, committed line, fresh line) of the first line that
    differs, a line past the end of a file as None; None if only line
    endings differ."""
    pairs = itertools.zip_longest(committed.read_bytes().splitlines(),
                                  new.read_bytes().splitlines())
    for number, (old, fresh) in enumerate(pairs, 1):
        if old != fresh:
            return number, old, fresh
    return None


def print_differences(new: pathlib.Path, committed: pathlib.Path) -> bool:
    """List each file that differs between the fresh reports in `new` and
    the committed ones, with its first differing line pair; True if any."""
    differ = differing_files(new, committed)
    for name in differ:
        print(f"differs from reports/: {name}")
        if (new / name).is_file() and (committed / name).is_file():
            pair = first_differing_lines(new / name, committed / name)
            if pair:
                number, old, fresh = pair
                for side, line in (("committed", old), ("fresh", fresh)):
                    text = "<end of file>" if line is None else line.decode(errors="replace")
                    print(f"  line {number}, {side}: {text}")
    return bool(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh reports with the committed reports/")
    args = parser.parse_args(argv)
    if not args.check:
        return run_configs(ROOT / "reports")
    with tempfile.TemporaryDirectory() as tmp:
        worst = run_configs(pathlib.Path(tmp))
        if print_differences(pathlib.Path(tmp), ROOT / "reports"):
            return 1
    print("all reports reproduced byte for byte")
    return worst


if __name__ == "__main__":
    sys.exit(main())
