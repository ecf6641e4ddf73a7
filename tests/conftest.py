import sys

import pytest


@pytest.fixture
def default_int_str_limit():
    # Tests of the library need the interpreter's int/str digit limit at
    # its default, whatever PYTHONINTMAXSTRDIGITS or -X set it to.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(saved)
