import sys

import pytest


def _int_str_limit(limit_of):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    limit = limit_of(sys.int_info)
    sys.set_int_max_str_digits(limit)
    yield limit
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def default_int_str_limit():
    # Tests of the library need the interpreter's int/str digit limit at
    # its default, whatever PYTHONINTMAXSTRDIGITS or -X set it to.
    yield from _int_str_limit(lambda info: info.default_max_str_digits)


@pytest.fixture
def least_int_str_limit():
    # The lowest limit the interpreter allows, 640 digits, which every
    # base past about 2,126 bits exceeds, within the per-base bound too.
    yield from _int_str_limit(lambda info: info.str_digits_check_threshold)


@pytest.fixture
def no_int_str_limit():
    # No limit, so a test can write and read numerals as long as the
    # command line's limit allows.
    yield from _int_str_limit(lambda info: 0)
