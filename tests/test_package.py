"""The package's public surface: each module's ``__all__``, re-exported once.

The names are listed only in the modules that define them; these checks
join those lists rather than write the names out again.  The last check
runs every subcommand with only the standard library imported.
"""

import json
import subprocess
import sys
from pathlib import Path

import qrindex
from qrindex import bruteforce, errors, indexing, numbertheory, sampling

MODULES = (bruteforce, errors, indexing, numbertheory, sampling)


def test_all_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert qrindex.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(qrindex, name) is value, name
            # Listed by the module that defines it, not one that imports it.
            assert value.__module__ == module.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qrindex import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qrindex.__all__)


# Every subcommand, sample both seeded and from system entropy.
_COMMANDS = [
    ["decode", "--modulus", "3*5", "--index", "2"],
    ["encode", "--modulus", "3*5", "--residue", "4"],
    ["size", "--modulus", "2^4*3"],
    ["sample", "--modulus", "3*5*7", "--count", "4", "--seed", "7"],
    ["sample", "--modulus", "3*5*7", "--count", "4", "--method", "classical"],
    ["bench", "--modulus", "3*5*7", "--count", "20", "--seed", "1"],
    ["selftest", "--max-n", "30"],
]

_CHILD = """
import contextlib, io, json, sys
sys.path[:0] = {path!r}
from qrindex.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {commands!r}]
names = {{name.partition(".")[0] for name in sys.modules}}
print(json.dumps([codes, sorted(names - set(sys.stdlib_module_names) - {{"__main__"}})]))
"""


def test_runtime_needs_only_the_standard_library():
    # -S keeps site's .pth hooks, such as setuptools' _distutils_hack, out of
    # sys.modules.  The path is src, then this run's own, so an installed
    # package that qrindex imported, even behind an ImportError guard, would
    # be found and show up in sys.modules.
    src = str(Path(qrindex.__file__).resolve().parent.parent)
    child = _CHILD.format(path=[src, *sys.path], commands=_COMMANDS)
    proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(_COMMANDS), ["qrindex"]]
