"""The `analyze` and `optimize` `--deterministic` preset CSVs against the
copies stored in `tests/golden/` (see its README for how to regenerate
them)."""
import importlib.util
from pathlib import Path

import pytest

from nomacell.cli import main

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "preset_diff.py"
_spec = importlib.util.spec_from_file_location("preset_diff", _SCRIPT)
preset_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_diff)

GOLDEN = Path(__file__).resolve().parent / "golden"
ANALYZE_PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6")

# A 1e-15 relative change of the interference factor (conditional or
# distance-averaged) moves no value of these files by more than 5e-11
# (fig1_exact p_near; 3.1e-11 for the averaged fig3 p_near, which
# test_outage's rounding test bounds by 1e-9).  So 1e-9 absolute lets
# platform rounding through and stops any real change of a kernel.
TOL = 1e-9
# fig6_exact p_near at R_kt = 1.74 moves by up to 2e-6 (goodput 7e-6) under
# the same change, and the file holds the known-wrong fig6 values of
# ROADMAP item 3; it is held to the 1e-4 inversion budget instead.
#
# `optimize fig7`: the same change moves the OMA files by at most 9e-11 and
# the proposed design's by at most 9.5e-10 (goodput), so each is held to
# about 20x its move.  The noma-plain file moves by 3e-4 (the optimizer's
# pattern search stalls at 20 dB) and is not held; see the README.
FILE_TOL = {"fig6_exact.csv": 1e-4,
            "fig7_optimize-oma-plain.csv": 2e-9,
            "fig7_optimize-oma-precoded.csv": 2e-9,
            "fig7_optimize-proposed.csv": 2e-8}
UNHELD = ("fig7_optimize-noma-plain.csv",)


def _check_against_golden(out, preset):
    golden = sorted(p.name for p in GOLDEN.glob(f"{preset}_*.csv"))
    assert golden
    assert sorted(p.name for p in out.glob("*.csv")
                  if p.name not in UNHELD) == golden
    moved = {}
    for name in golden:
        want = preset_diff._rows(GOLDEN / name)
        got = preset_diff._rows(out / name)
        assert len(got) == len(want) and got[0].keys() == want[0].keys(), name
        # a changed text field (method, empty stderr, NaN) moves by inf
        tol = FILE_TOL.get(name, TOL)
        moved.update({(name, column): move for column, move
                      in preset_diff._column_moves(want, got).items()
                      if move[0] > tol})
    assert not moved, moved


@pytest.mark.parametrize("preset", ANALYZE_PRESETS)
def test_analyze_matches_golden_csvs(tmp_path, preset):
    assert main(["analyze", preset, "--out", str(tmp_path),
                 "--deterministic"]) == 0
    _check_against_golden(tmp_path, preset)


def test_optimize_matches_golden_csvs(tmp_path):
    assert main(["optimize", "fig7", "--out", str(tmp_path),
                 "--deterministic"]) == 0
    _check_against_golden(tmp_path, "fig7")
