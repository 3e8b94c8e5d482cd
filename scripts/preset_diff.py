"""Regenerate the deterministic preset CSVs of a checkout, and compare two sets.

    python scripts/preset_diff.py generate OUT [--checkout DIR]
    python scripts/preset_diff.py diff OLD NEW

`generate` writes the 23 `--deterministic` CSVs (`analyze` fig1-fig6 with
fig5a/fig5b, `optimize fig7`, `simulate fig1` and `fig3` at `--trials 4000`)
of the checkout at DIR (default: the one holding this script) into OUT.
Each run imports the library from DIR/src in its own interpreter, so the
checkout need not contain this script.  `diff` prints, per file, whether
the bytes are identical and otherwise the largest |new - old| of each
numeric column with the sweep value where it occurs; it exits 1 when a
file or a row is missing on either side.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

RUNS = (
    *(("analyze", fig, ()) for fig in ("fig1", "fig2", "fig3", "fig4",
                                       "fig5a", "fig5b", "fig6")),
    ("optimize", "fig7", ()),
    ("simulate", "fig1", ("--trials", "4000")),
    ("simulate", "fig3", ("--trials", "4000")),
)


def generate(out: Path, checkout: Path) -> int:
    src = checkout / "src"
    if not (src / "nomacell" / "__init__.py").is_file():
        print(f"error: no library source at {src / 'nomacell'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.mkdir(parents=True, exist_ok=True)

    failed = 0
    for command, preset, extra in RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "nomacell.cli", command, preset,
             "--out", str(out), "--deterministic", *extra],
            env=env, capture_output=True, text=True)
        print(f"{command} {preset}: exit {proc.returncode}")
        if proc.returncode != 0:
            failed += 1
            print(proc.stdout + proc.stderr, file=sys.stderr)
    print(f"{len(list(out.glob('*.csv')))} CSVs in {out}")
    return 1 if failed else 0


def _rows(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _column_moves(old_rows, new_rows):
    """{column: (largest |new - old|, sweep value there)}; a text, empty
    or NaN field that differs on the two sides counts as an infinite move."""
    moves = {}
    for old, new in zip(old_rows, new_rows):
        for column, old_text in old.items():
            new_text = new.get(column, "")
            if old_text == new_text:
                delta = 0.0
            else:
                a, b = _number(old_text), _number(new_text)
                delta = math.inf if a is None or b is None else abs(b - a)
                if math.isnan(delta):
                    delta = math.inf
            if delta > moves.get(column, (-1.0, None))[0]:
                moves[column] = (delta, old.get("sweep_value"))
    return moves


def diff(old_dir: Path, new_dir: Path) -> int:
    old_files = {p.name for p in old_dir.glob("*.csv")}
    new_files = {p.name for p in new_dir.glob("*.csv")}
    status = 0
    for name in sorted(old_files | new_files):
        if name not in old_files or name not in new_files:
            side = old_dir if name not in old_files else new_dir
            print(f"{name}: missing in {side}")
            status = 1
            continue
        old_path, new_path = old_dir / name, new_dir / name
        if old_path.read_bytes() == new_path.read_bytes():
            print(f"{name}: identical")
            continue
        old_rows, new_rows = _rows(old_path), _rows(new_path)
        if len(old_rows) != len(new_rows):
            print(f"{name}: {len(old_rows)} rows -> {len(new_rows)} rows")
            status = 1
        moves = _column_moves(old_rows, new_rows)
        changed = ", ".join(f"{column} {delta:.3g} (at {where})"
                            for column, (delta, where) in moves.items()
                            if delta > 0.0)
        print(f"{name}: max |delta| {changed or '0 (formatting only)'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", help="write the preset CSVs of a checkout")
    gen.add_argument("out", type=Path)
    gen.add_argument("--checkout", type=Path,
                     default=Path(__file__).resolve().parent.parent)
    cmp_ = sub.add_parser("diff", help="compare two directories of CSVs")
    cmp_.add_argument("old", type=Path)
    cmp_.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "generate":
        return generate(args.out.resolve(), args.checkout.resolve())
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
