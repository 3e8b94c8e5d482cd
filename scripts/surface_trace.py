"""List the library statements that no shipped entry point executes.

    python scripts/surface_trace.py [--checkout DIR]

Runs, in one process under a `sys.settrace` hook limited to
DIR/src/nomacell (default: the checkout holding this script):

- `nomacell.cli.main` on `analyze` fig1-fig6 (with fig5a/fig5b),
  `optimize fig7`, `simulate fig1` and `fig3` at `--trials 2000`, and
  `validate --trials 2000`
- every script in DIR/demos
- one round of each benchmark workload: its `setup`, then `run` on each
  op of `round` (DIR/perfbench is only read)

and then prints, per module, each statement that none of them executed.
A statement is an `ast` statement node other than a docstring.  It counts
as executed when a line event falls on its own lines: a simple
statement's lines, or a compound statement's header with its decorators.
The runs' own output is discarded, and their files go to a temporary
directory.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ANALYZE = ("fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6")
WORKLOAD_SEED = 1


def _statements(source: str) -> dict[int, tuple[int, int]]:
    """First line -> (first, last) line of the statement's own lines."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            node.body[0].is_docstring = True
        if not isinstance(node, ast.stmt) or getattr(node, "is_docstring",
                                                     False):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        children = [child for field in ("body", "orelse", "finalbody",
                                        "handlers", "cases")
                    for child in getattr(node, field, ()) or ()]
        last = (min(child.lineno for child in children) - 1 if children
                else node.end_lineno)
        spans[node.lineno] = (first, max(first, last))
    return spans


class LineTrace:
    """Records (file, line) of every line event in files under `root`."""

    def __init__(self, root: Path):
        self.root = str(root) + os.sep
        self.lines: dict[str, set[int]] = defaultdict(set)

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.root):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)


def _drive(checkout: Path, scratch: Path) -> None:
    """Every entry point this script covers, in one process."""
    from nomacell import cli

    def cli_run(*argv):
        if cli.main(list(argv)) != 0:
            raise RuntimeError(f"nomacell {' '.join(argv)} failed")

    for fig in ANALYZE:
        cli_run("analyze", fig, "--out", str(scratch), "--deterministic")
    cli_run("optimize", "fig7", "--out", str(scratch), "--deterministic")
    for fig in ("fig1", "fig3"):
        cli_run("simulate", fig, "--trials", "2000", "--out", str(scratch),
                "--deterministic")
    cli_run("validate", "--trials", "2000")
    for demo in sorted((checkout / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")

    import numpy as np
    sys.path.insert(0, str(checkout / "perfbench"))
    from nomabench.workloads import WORKLOADS
    for workload in WORKLOADS.values():
        ctx = workload.setup(WORKLOAD_SEED)
        for spec in workload.round(np.random.default_rng(WORKLOAD_SEED)):
            workload.run(ctx, spec)


def report(package: Path, lines: dict[str, set[int]]) -> None:
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        spans = _statements(source)
        hit = lines.get(str(path), set())
        missed = [start for start, (first, last) in sorted(spans.items())
                  if not any(first <= n <= last for n in hit)]
        print(f"{path.name}: {len(missed)} of {len(spans)} statements never "
              "executed")
        for start in missed:
            print(f"  {start:4d}  {text[start - 1].strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    package = checkout / "src" / "nomacell"
    if not (package / "__init__.py").is_file():
        print(f"error: no library source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    trace = LineTrace(package)
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="surface_trace_") as scratch:
        os.chdir(scratch)
        try:
            # the trace starts before the first import of the library, so
            # module-level statements count too
            with trace.installed(), contextlib.redirect_stdout(io.StringIO()):
                _drive(checkout, Path(scratch))
        finally:
            os.chdir(cwd)
    report(package, trace.lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
