"""The `analyze`, `optimize` and `simulate` `--deterministic` preset CSVs
against the copies stored in `tests/golden/` (see its README for how to
regenerate them)."""
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
# The `simulate` runs of `scripts/preset_diff.py`; their files sit in their
# own directory, apart from the analyze files of the same preset.
SIMULATE_RUNS = [(preset, extra) for command, preset, extra
                 in preset_diff.RUNS if command == "simulate"]

# A 1e-15 relative change of the interference factor (conditional or
# distance-averaged), or of every 1D transform the outage operators invert,
# moves no value of these files by more than 4e-12 (fig2 p_near; fig6
# p_near by 2.5e-13, where the 2D route moved it by 2e-6).  So 1e-9
# absolute lets platform rounding through and stops any real change of a
# kernel.
TOL = 1e-9
# `optimize fig7`: the same changes move the OMA files by at most 1.1e-10
# (goodput), the proposed design's by at most 1.5e-10 and the noma-plain
# file's by at most 7.9e-12; each is held to 20x or more of its move.
FILE_TOL = {"fig7_optimize-noma-plain.csv": 3e-10,
            "fig7_optimize-oma-plain.csv": 2e-9,
            "fig7_optimize-oma-precoded.csv": 2e-9,
            "fig7_optimize-proposed.csv": 5e-9}


def _check_against_golden(out, preset):
    golden = sorted(p.name for p in GOLDEN.glob(f"{preset}_*.csv"))
    assert golden
    assert sorted(p.name for p in out.glob("*.csv")) == golden
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


@pytest.mark.parametrize("preset, extra", SIMULATE_RUNS,
                         ids=[preset for preset, _ in SIMULATE_RUNS])
def test_simulate_matches_golden_csvs(tmp_path, preset, extra):
    # Monte Carlo counts have no rounding budget: the same seed must give
    # the same bytes
    assert main(["simulate", preset, "--out", str(tmp_path), "--deterministic",
                 *extra]) == 0
    golden = GOLDEN / "simulate"
    names = sorted(p.name for p in golden.glob(f"{preset}_*.csv"))
    assert names
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == names
    for name in names:
        want, got = golden / name, tmp_path / name
        assert got.read_bytes() == want.read_bytes(), (
            name, preset_diff._column_moves(preset_diff._rows(want),
                                            preset_diff._rows(got)))
