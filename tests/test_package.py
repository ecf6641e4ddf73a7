"""The package's public surface: each module's ``__all__``, re-exported once.

The names are listed only in the modules that define them; these checks
join those lists rather than write the names out again.
"""

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
