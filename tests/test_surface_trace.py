import importlib.util
import runpy
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "surface_trace.py"
_spec = importlib.util.spec_from_file_location("surface_trace", _SCRIPT)
surface_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface_trace)

# A docstring, a decorated function, an if/elif/else chain and a call that
# spans two lines.
_SOURCE = '''"""Module docstring."""
import functools


@functools.cache
def pick(x):
    """Function docstring."""
    if x > 1:
        y = 1
    elif x > 0:
        y = 2
    else:
        y = 3
    return max(y,
               x)
'''


def _module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_SOURCE)
    return path


def test_statements_span_their_own_lines():
    # docstrings are not statements; a function's own lines run from its
    # decorator to its header, an if's and an elif's stop at their first
    # child, and a multi-line call keeps all of its lines
    assert surface_trace._statements(_SOURCE) == {
        2: (2, 2), 6: (5, 6), 8: (8, 8), 9: (9, 9), 10: (10, 10),
        11: (11, 11), 13: (13, 13), 14: (14, 15)}


def test_report_lists_statements_with_no_line_event(tmp_path, capsys):
    path = _module(tmp_path)
    # the decorator line counts for the function, a continuation line for
    # its call
    surface_trace.report(tmp_path, {str(path): {5, 8, 9, 15}})
    assert capsys.readouterr().out.splitlines() == [
        "mod.py: 4 of 8 statements never executed",
        "     2  import functools",
        "    10  elif x > 0:",
        "    11  y = 2",
        "    13  y = 3",
    ]


def test_traced_run_misses_only_the_branches_not_taken(tmp_path, capsys):
    path = _module(tmp_path)
    trace = surface_trace.LineTrace(tmp_path)
    with trace.installed():
        runpy.run_path(str(path))["pick"](0.5)
    surface_trace.report(tmp_path, trace.lines)
    assert capsys.readouterr().out.splitlines() == [
        "mod.py: 2 of 8 statements never executed",
        "     9  y = 1",
        "    13  y = 3",
    ]
