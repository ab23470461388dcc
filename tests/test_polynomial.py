from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from klbraid.errors import InternalConsistencyError
from klbraid.polynomial import IntPoly


def test_trailing_zeros_stripped():
    assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
    assert IntPoly([0, 0]) == IntPoly()
    assert IntPoly([]) == IntPoly()


def test_coefficients_must_be_ints():
    # bool is an int subclass, and would serialize as "True"
    with pytest.raises(ValueError):
        IntPoly([True, 2])
    with pytest.raises(ValueError):
        IntPoly([1.0])
    assert IntPoly([0, 2]).to_json_obj() == ["0", "2"]


def test_degree_conventions():
    assert IntPoly().degree == -1
    assert IntPoly.one().degree == 0
    assert IntPoly([0, 0, 7]).degree == 2


def test_coeff_access():
    p = IntPoly([1, 0, 4])
    assert p.coeff(0) == 1
    assert p.coeff(1) == 0
    assert p.coeff(2) == 4
    assert p.coeff(99) == 0
    with pytest.raises(ValueError):
        p.coeff(-1)


def test_ring_ops():
    p = IntPoly([1, 2])
    q = IntPoly([3, 0, 1])
    assert p + q == IntPoly([4, 2, 1])
    assert q - p == IntPoly([2, -2, 1])
    assert -p == IntPoly([-1, -2])
    assert p * q == IntPoly([3, 6, 1, 2])
    assert p * 0 == IntPoly()
    assert 2 * p == IntPoly([2, 4])
    assert p - p == IntPoly()


def test_mul_matches_evaluation():
    p = IntPoly([2, -1, 3])
    q = IntPoly([-5, 4])
    r = p * q
    for t in range(-3, 4):
        assert r(t) == p(t) * q(t)


def test_evaluation_horner():
    p = IntPoly([1, 16, 15])
    assert p(0) == 1
    assert p(1) == 32
    assert p(-1) == 0
    assert p(10) == 1661


def test_reverse():
    p = IntPoly([1, 16, 15])
    assert p.reverse(2) == IntPoly([15, 16, 1])
    assert p.reverse(4) == IntPoly([0, 0, 15, 16, 1])
    assert IntPoly().reverse(3) == IntPoly()
    with pytest.raises(ValueError):
        p.reverse(1)


def test_shift_down():
    assert IntPoly([0, 2, 3]).shift_down() == IntPoly([2, 3])
    assert IntPoly().shift_down() == IntPoly()
    # exact division is an invariant of every call site, so a nonzero
    # constant term signals corrupted arithmetic rather than bad input
    with pytest.raises(InternalConsistencyError):
        IntPoly([1, 2]).shift_down()


def test_render():
    assert IntPoly([1, 16, 15]).render() == "1 + 16t + 15t^2"
    assert IntPoly([1, 16, 15]).render(descending=True) == "15t^2 + 16t + 1"
    assert IntPoly([0, -1, 0, 2]).render() == "-t + 2t^3"
    assert IntPoly([-3]).render() == "-3"
    assert IntPoly().render() == "0"


def test_json_round_trip():
    p = IntPoly([1, -42, 10**40])
    obj = p.to_json_obj()
    assert obj == ["1", "-42", str(10**40)]
    assert IntPoly(int(c) for c in obj) == p
    assert IntPoly(int(c) for c in []) == IntPoly()


def test_hash_and_bool():
    assert hash(IntPoly([1, 2])) == hash(IntPoly((1, 2)))
    assert not IntPoly()
    assert IntPoly.one()


def test_big_coefficients_stay_exact():
    big = 10**60 + 7
    p = IntPoly([big]) * IntPoly([big])
    assert p.coeff(0) == big * big


coeffs = st.integers(min_value=-(10**30), max_value=10**30)
polys = st.lists(coeffs, max_size=8).map(IntPoly)
scalars = st.integers(min_value=-(10**12), max_value=10**12)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == IntPoly()
    assert a * IntPoly.one() == a


@given(polys, scalars, scalars)
def test_int_scalars(a, k, m):
    assert k * a == a * k == a * IntPoly([k])
    assert k * a + m * a == (k + m) * a
    assert k * (m * a) == (k * m) * a


@given(polys, st.integers(min_value=0, max_value=12))
@example(IntPoly([3, 0, 0, 7, 1]), 2)
def test_reverse_round_trip(p, extra):
    d = max(p.degree, 0) + extra
    assert p.reverse(d).reverse(d) == p


@given(polys)
def test_json_round_trip_property(p):
    assert IntPoly(int(c) for c in p.to_json_obj()) == p


@given(polys, scalars)
@example(IntPoly([3, 0, 7]), 0)
def test_scalar_products_are_canonical(p, c):
    # the scalar product skips the constructor, so it must come out in the
    # constructor's own form: a tuple of ints with no trailing zero
    assert p * 0 == 0 * p == IntPoly()
    for q in (p * c, c * p):
        assert q == IntPoly([x * c for x in p.coeffs])
        assert type(q.coeffs) is tuple
        assert all(type(x) is int for x in q.coeffs)
        assert not q.coeffs or q.coeffs[-1] != 0
