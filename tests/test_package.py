"""The package's public surface: each module's ``__all__``, re-exported once.

The names are listed only in the modules that define them; these checks
join those lists rather than write the names out again.  The records
keep the behaviour of the dataclasses they once were.  README's library
quick start gives the values its comments show.  The last check runs
every subcommand with only the standard library imported, and
without the modules a dataclass would load.
"""

import ast
import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qrindex
from qrindex import (
    CertificationReport,
    RandomBitLedger,
    RootProfile,
    SampleReport,
    bruteforce,
    errors,
    indexing,
    numbertheory,
    sampling,
)

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


# Each record: its class, the arguments it is built from (defaults left
# out), its repr and whether it is frozen.
_RECORDS = [
    (
        RootProfile, (((1, 0), (2, 3)),),
        "RootProfile(odd_roots=((1, 0), (2, 3)), two_part_digit=None)", True,
    ),
    (
        CertificationReport, (15, 2),
        "CertificationReport(n=15, indices_checked=2, failures=[])", False,
    ),
    (RandomBitLedger, (), "RandomBitLedger(bits_consumed=0, attempts=0)", False),
    (
        SampleReport, ("index", 4, 12, 4, 3.0, 2.5),
        "SampleReport(method='index', samples=4, total_bits=12, total_attempts=4,"
        " mean_bits_per_sample=3.0, theoretical_floor=2.5)", True,
    ),
]


@pytest.mark.parametrize(
    "cls,args,shown,frozen", _RECORDS, ids=[record[0].__name__ for record in _RECORDS]
)
def test_records_keep_their_behaviour(cls, args, shown, frozen):
    record = cls(*args)
    assert repr(record) == shown
    names = cls.__match_args__
    values = tuple(getattr(record, name) for name in names)
    assert record == cls(*values) == cls(**dict(zip(names, values)))
    assert record != cls(*values[:-1], "other")
    # Equal only to its own class: not to a plain tuple, nor to a subclass.
    assert record != values
    assert record != type("Sub", (cls,), {"__slots__": ()})(*values)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    if frozen:
        assert hash(record) == hash(cls(*values))
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(record, names[0])
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, names[-1], "other")
        assert record != cls(*values)
    assert repr(cls(*args)) == shown  # a default is never shared between records


def _quick_start():
    """The lines of the Python block under README's "Library quick start"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_quick_start_holds():
    # A line whose comment is a Python literal is an expression that must
    # evaluate to it; every other line runs as written.  The values pin the
    # table order on 15015.
    namespace, shown = {}, []
    for line in _quick_start():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(line, namespace)
            continue
        assert eval(code, namespace) == value, line
        shown.append(value)
    assert shown == [180, 3004, 40, [1, 3004, 2146], [1, 2, 3]]


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
heavy = {{"dataclasses", "inspect", "typing"}}
def loaded():
    return {{name.partition(".")[0] for name in sys.modules}}
import qrindex
imported = loaded() & heavy
# What argparse loads by itself: on some versions its help formatter,
# which every parser builds, imports dataclasses.
import argparse
bare = argparse.ArgumentParser(prog="bare")
bare.add_subparsers(dest="command").add_parser("x").add_argument("--y", type=int)
bare.parse_args(["x", "--y", "1"])
by_argparse = loaded()
import qrindex.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qrindex.cli.main(argv) for argv in {commands!r}]
names = loaded()
print(json.dumps([
    codes,
    sorted(names - set(sys.stdlib_module_names) - {{"__main__"}}),
    sorted(imported),
    sorted((names - by_argparse) & heavy),
]))
"""


def test_runtime_needs_only_the_standard_library():
    # -S keeps site's .pth hooks, such as setuptools' _distutils_hack, out of
    # sys.modules.  The path is src, then this run's own, so an installed
    # package that qrindex imported, even behind an ImportError guard, would
    # be found and show up in sys.modules.  Nor does importing qrindex load
    # dataclasses, inspect or typing, which cost start-up time and memory,
    # nor does any command load them beyond what argparse itself loads.
    src = str(Path(qrindex.__file__).resolve().parent.parent)
    child = _CHILD.format(path=[src, *sys.path], commands=_COMMANDS)
    proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(_COMMANDS), ["qrindex"], [], []]
