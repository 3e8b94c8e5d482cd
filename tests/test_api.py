import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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
