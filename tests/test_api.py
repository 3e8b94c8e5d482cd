import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nomacell


def test_package_names_are_the_submodule_exports():
    # a name deleted from a module must leave its `__all__` and the package
    # imports together; `cli` is the entry point and keeps its names
    modules = [importlib.import_module(f"nomacell.{info.name}")
               for info in pkgutil.iter_modules(nomacell.__path__)]
    exported = {name for mod in modules if mod.__name__ != "nomacell.cli"
                for name in mod.__all__}
    submodules = {mod.__name__.rpartition(".")[2] for mod in modules}
    public = {name for name in vars(nomacell) if not name.startswith("_")}
    assert public == exported | submodules


def test_import_leaves_scipy_unloaded():
    # the distance average has its own quadrature rule and the binomials,
    # Gamma and erfc come from `math`; scipy.integrate would add ~0.3 s and
    # ~25 MB to every import, and scipy.special alone 0.22 s and 24 MB
    env = dict(os.environ, PYTHONPATH=str(Path(nomacell.__file__).parents[1]))
    code = ("import sys, nomacell; print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# Refuses every scipy module, then runs the argv it is given: `-m
# nomacell.cli ...` or a script path.
_WITHOUT_SCIPY = """
import runpy, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition('.')[0] == 'scipy':
            raise ImportError(f'scipy import refused: {name}')

sys.meta_path.insert(0, RefuseScipy())
args = sys.argv[1:]
if args[0] == '-m':
    sys.argv = args[1:]
    runpy.run_module(args[1], run_name='__main__', alter_sys=True)
else:
    sys.argv = args
    runpy.run_path(args[0], run_name='__main__')
"""


@pytest.mark.parametrize("argv", [
    ["-m", "nomacell.cli", "analyze", "fig1", "--deterministic"],
    ["-m", "nomacell.cli", "optimize", "fig7", "--deterministic"],
    [str(Path(__file__).parents[1] / "demos" / "02_laplace_inversion.py")],
], ids=["analyze-fig1", "optimize-fig7", "demo-02"])
def test_runs_without_scipy(argv, tmp_path):
    # scipy is a test dependency only: the CLI and the demos that need no
    # reference values run where it cannot be imported
    env = dict(os.environ, PYTHONPATH=str(Path(nomacell.__file__).parents[1]))
    if argv[0] == "-m":
        argv = argv + ["--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if argv[0] == "-m":
        assert list(tmp_path.glob("*.csv"))


def test_readme_table_lists_the_public_names():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| module | public names |\n| --- | --- |\n")[1]
    listed = {}
    for line in table.split("\n\n")[0].splitlines():
        module, names = (c.strip(" `") for c in line.strip("|").split("|"))
        listed[module] = [name.strip(" `") for name in names.split(",")]
    modules = [importlib.import_module(f"nomacell.{info.name}")
               for info in pkgutil.iter_modules(nomacell.__path__)]
    assert listed == {mod.__name__: list(mod.__all__) for mod in modules
                      if mod.__name__ != "nomacell.cli"}
