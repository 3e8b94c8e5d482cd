import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "preset_diff.py"
_spec = importlib.util.spec_from_file_location("preset_diff", _SCRIPT)
preset_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_diff)

_HEADER = "sweep_value,p_far,p_near,goodput,method\n"


def _write(directory, name, *rows):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(_HEADER + "".join(r + "\n" for r in rows))


def test_diff_reports_identical_files_and_the_largest_move(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, "a.csv", "0.25,0.1,0.2,1,exact")
    _write(new, "a.csv", "0.25,0.1,0.2,1,exact")
    _write(old, "b.csv", "0.25,0.1,0.2,1,exact", "0.5,0.3,0.4,1,exact")
    _write(new, "b.csv", "0.25,0.1,0.25,1,exact", "0.5,0.3,nan,1,exact")
    assert preset_diff.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a.csv: identical"
    assert out[1] == "b.csv: max |delta| p_near inf (at 0.5)"


def test_diff_fails_on_a_missing_file_or_row(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, "a.csv", "0.25,0.1,0.2,1,exact", "0.5,0.3,0.4,1,exact")
    _write(new, "a.csv", "0.25,0.1,0.2,1,exact")
    _write(old, "b.csv", "0.25,0.1,0.2,1,exact")
    assert preset_diff.diff(old, new) == 1
    out = capsys.readouterr().out
    assert "a.csv: 2 rows -> 1 rows" in out
    assert "b.csv: missing in" in out
