import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrindex import IndexRangeError
from qrindex.mixedradix import pack, schedule_size, unpack


def test_known_packing():
    # Little-endian: first digit is least significant.
    assert pack((2, 4), (3, 5)) == 2 + 4 * 3
    assert unpack(14, (3, 5)) == (2, 4)
    assert pack((0, 0, 3), (2, 1, 7)) == 6
    assert unpack(6, (2, 1, 7)) == (0, 0, 3)


def test_empty_schedule_has_one_codeword():
    assert schedule_size(()) == 1
    assert pack((), ()) == 0
    assert unpack(0, ()) == ()
    with pytest.raises(IndexRangeError):
        unpack(1, ())


def test_radix_one_positions_carry_nothing():
    radices = (1, 4, 1, 1, 3)
    assert schedule_size(radices) == 12
    for w in range(12):
        digits = unpack(w, radices)
        assert digits[0] == digits[2] == digits[3] == 0
        assert pack(digits, radices) == w


@pytest.mark.parametrize(
    "radices",
    [(2,), (7,), (1,), (2, 3), (3, 2), (5, 5, 5), (1, 2, 1, 3, 1), (10, 1, 9)],
)
def test_roundtrip_both_directions(radices):
    size = schedule_size(radices)
    seen = set()
    for w in range(size):
        digits = unpack(w, radices)
        assert len(digits) == len(radices)
        assert all(0 <= d < r for d, r in zip(digits, radices))
        assert pack(digits, radices) == w
        seen.add(digits)
    assert len(seen) == size
    for digits in itertools.product(*(range(r) for r in radices)):
        assert unpack(pack(digits, radices), radices) == digits


def test_value_out_of_range():
    with pytest.raises(IndexRangeError):
        unpack(6, (3, 2))
    with pytest.raises(IndexRangeError):
        unpack(-1, (3, 2))


def test_digit_out_of_range_names_the_position():
    with pytest.raises(IndexRangeError) as excinfo:
        pack((1, 5), (3, 4))
    assert "position 1" in str(excinfo.value)
    assert excinfo.value.position == 1
    with pytest.raises(IndexRangeError) as excinfo:
        pack((-1, 0), (3, 4))
    assert excinfo.value.position == 0


def test_non_integers_are_refused():
    # A float that int() would accept is still refused, as range(2.0) is.
    with pytest.raises(TypeError):
        pack((1.0, 0), (2, 3))
    with pytest.raises(TypeError):
        pack((1, 0.0), (2, 3))
    with pytest.raises(TypeError):
        unpack(1.0, (2, 3))


def test_shape_mismatch():
    with pytest.raises(ValueError):
        pack((1,), (3, 4))
    with pytest.raises(ValueError):
        pack((1, 1, 1), (3, 4))


def test_bad_radix_rejected():
    with pytest.raises(ValueError):
        schedule_size((3, 0, 2))
    with pytest.raises(ValueError):
        pack((0,), (0,))
    with pytest.raises(ValueError):
        unpack(0, (-2,))


@given(st.lists(st.integers(1, 50), max_size=8).map(tuple), st.data())
def test_random_roundtrip(radices, data):
    size = schedule_size(radices)
    w = data.draw(st.integers(0, size - 1))
    assert pack(unpack(w, radices), radices) == w
