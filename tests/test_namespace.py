import importlib
import os
import subprocess
import sys

import pytest

import adiclab

SUBMODULES = ("digits", "stats", "construct", "entropy")


def _fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", [n for n in adiclab.__all__ if n != "__version__"])
def test_public_names_are_the_submodule_objects(name):
    (module,) = [m for m in map(importlib.import_module, (f"adiclab.{m}" for m in SUBMODULES)) if name in m.__all__]
    assert getattr(adiclab, name) is getattr(module, name)
    # A resolved name is kept in the package, so __getattr__ runs once per name.
    assert vars(adiclab)[name] is getattr(adiclab, name)


def test_version_is_set_at_import():
    assert _fresh("import sys, adiclab; print(adiclab.__version__, 'adiclab.digits' in sys.modules)") == "0.1.0 False\n"


def test_dir_lists_every_public_name():
    assert set(adiclab.__all__) <= set(dir(adiclab))
    assert _fresh("import adiclab; print(set(adiclab.__all__) <= set(dir(adiclab)))") == "True\n"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        adiclab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from adiclab import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    code = (
        "import adiclab\n"
        "namespace = {}\n"
        "exec('from adiclab import *', namespace)\n"
        "print(all(namespace[n] is getattr(adiclab, n) for n in adiclab.__all__))\n"
    )
    assert _fresh(code) == "True\n"
