from fractions import Fraction

import pytest

from mosva.scalars import binomial, exact_int, format_scalar, parse_scalar


def test_parse_plain_and_fraction():
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    assert parse_scalar("4/2") == Fraction(2)


def test_parse_rejects_garbage():
    for bad in ["1/0", "1.5", "", " 1", "1/ 2", "one", "1/2/3", "+1"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_format_roundtrip():
    for s in ["0", "5", "-3", "7/3", "-1/2"]:
        assert format_scalar(parse_scalar(s)) == s


def test_format_reduces():
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(Fraction(-6, 4)) == "-3/2"


def test_binomial_nonnegative():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1


def test_binomial_negative_upper():
    # C(-1, k) = (-1)^k, C(-2, k) = (-1)^k (k+1)
    assert [binomial(-1, k) for k in range(4)] == [1, -1, 1, -1]
    assert [binomial(-2, k) for k in range(4)] == [1, -2, 3, -4]


def test_exact_int_passes_integers_and_integral_rationals():
    assert exact_int(3, "x") == 3 and type(exact_int(3, "x")) is int
    assert exact_int(Fraction(-4, 2), "x") == -2
    assert type(exact_int(Fraction(6, 3), "x")) is int
    assert exact_int("5", "x") == 5


@pytest.mark.parametrize("bad, error", [
    (1.0, TypeError), (2.7, TypeError), (True, TypeError), (False, TypeError),
    (Fraction(5, 2), ValueError), ("3/2", ValueError),
])
def test_exact_int_rejects_instead_of_rounding(bad, error):
    with pytest.raises(error, match="pole order"):
        exact_int(bad, "pole order")
