import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.field import (
    DEFAULT_SIZE_CAP,
    _mul_raw,
    check_space,
    factor_prime_power,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    field_pow,
    field_sub,
    is_prime,
    make_field,
    parse_field_spec,
)
from kakeya.oracles import check_field_axioms, check_multiplicative_order


# Independent polynomial arithmetic used only to cross-check the package.
# Coefficient tuples are little-endian (constant term first).

def _digits(e, p, width):
    out = []
    for _ in range(width):
        e, r = divmod(e, p)
        out.append(r)
    return out


def _undigits(coeffs, p):
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


def _slow_mul(a, b, p, k, modulus):
    da, db = _digits(a, p, k), _digits(b, p, k)
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    # long division by the monic modulus
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return _undigits(prod[:k], p)


def _monic_polys(p, deg):
    for coeffs in itertools.product(range(p), repeat=deg):
        yield list(coeffs) + [1]


def _has_root(poly, p):
    return any(
        sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p == 0 for x in range(p)
    )


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: of the 4 monic quadratics over F_2, only x^2 + x + 1 is root-free
    irreducible = [tuple(m) for m in _monic_polys(2, 2) if not _has_root(m, 2)]
    assert irreducible == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_f9_modulus_is_smallest_irreducible():
    # oracle: first root-free monic quadratic over F_3 in constant-first order
    expected = next(tuple(m) for m in _monic_polys(3, 2) if not _has_root(m, 3))
    f = make_field(3, 2)
    assert f.modulus == expected == (1, 0, 1)


def test_f4_multiplication_example():
    f = make_field(2, 2)
    assert field_mul(f, 2, 2) == 3  # x * x = x + 1 mod x^2 + x + 1


def test_f5_multiplication_example():
    f = make_field(5, 1)
    assert field_mul(f, 2, 3) == 1


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_extension_mul_matches_independent_poly_arithmetic(p, k):
    f = make_field(p, k)
    for a in range(f.q):
        for b in range(f.q):
            assert field_mul(f, a, b) == _slow_mul(a, b, p, k, f.modulus)


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (3, 2), (7, 1)])
def test_additive_inverse(p, k):
    f = make_field(p, k)
    for a in range(f.q):
        assert field_add(f, a, field_neg(f, a)) == 0
        assert field_sub(f, a, a) == 0


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_field_axioms(p, k):
    check_field_axioms(make_field(p, k))


@pytest.mark.parametrize("p,k", [(2, 6), (2, 8), (3, 4)])
def test_field_axioms_larger_fields_sampled_triples(p, k):
    # pairs exhaustive, triples sampled above q = 32
    check_field_axioms(make_field(p, k), triple_sample=500)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 1), (13, 1)])
def test_multiplicative_group_order(p, k):
    f = make_field(p, k)
    check_multiplicative_order(f)
    for a in range(1, f.q):
        assert field_pow(f, a, f.q - 1) == 1


def _power_walk_tables(p, k, modulus):
    """Exp and log tables of the first g >= 2 whose powers reach all q - 1
    units, found by walking the powers of each candidate in turn."""
    q = p**k
    for g in range(2, q):
        exp = [1]
        e = g
        while e != 1:
            exp.append(e)
            e = _slow_mul(e, g, p, k, modulus)
        if len(exp) == q - 1:
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
            return tuple(exp), tuple(log)
    raise AssertionError(f"no generator of F_{p}^{k}")


def test_log_tables_match_the_power_walk():
    # every extension field up to 2^12: 40 fields
    cells = [(p, k) for p in range(2, 65) if is_prime(p) for k in range(2, 13) if p**k <= 1 << 12]
    assert len(cells) == 40
    for p, k in cells:
        f = make_field(p, k)
        assert (f.exp_table, f.log_table) == _power_walk_tables(p, k, f.modulus)


@pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 256) if is_prime(p)
                                 for k in range(1, 9) if p**k <= 256])
def test_mul_rows_match_polynomial_multiplication(p, k):
    # every field with byte tables: c * x by _mul_raw for c <= x, and the
    # rows equal to the columns for x < c
    f = make_field(p, k)
    rows, q = f.mul_rows, f.q
    assert len(rows) == q and set(map(len, rows)) == {q}
    for c in range(q):
        products = map(_mul_raw, itertools.repeat(c), range(c, q), itertools.repeat(p),
                       itertools.repeat(k), itertools.repeat(f.modulus))
        assert rows[c][c:] == bytes(products)
    assert list(zip(*rows)) == list(map(tuple, rows))


@pytest.mark.parametrize("p,k", [(2, 16), (3, 10), (7, 5), (251, 2)])
def test_log_tables_of_large_fields_are_the_powers_of_the_smallest_generator(p, k):
    # above the exhaustive walk's reach: every unit once, sampled steps
    # against independent multiplication, and every candidate below g of
    # smaller order (its log shares a factor with q - 1)
    f = make_field(p, k)
    q, exp, log = f.q, f.exp_table, f.log_table
    g = exp[1]
    assert sorted(exp) == list(range(1, q))
    assert all(log[e] == i for i, e in enumerate(exp))
    for i in random.Random(q).sample(range(q - 1), 300):
        assert _slow_mul(exp[i], g, p, k, f.modulus) == exp[(i + 1) % (q - 1)]
    assert all(math.gcd(log[c], q - 1) > 1 for c in range(2, g))


def test_inverses_multiply_to_one():
    for p, k in [(7, 1), (2, 3), (3, 2)]:
        f = make_field(p, k)
        for a in range(1, f.q):
            assert field_mul(f, a, field_inv(f, a)) == 1


def test_make_field_deterministic():
    assert make_field(3, 3).modulus == make_field(3, 3).modulus
    assert make_field(2, 8).modulus == make_field(2, 8).modulus


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(1, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 over the default cap


def test_inverse_of_zero_raises():
    f = make_field(5, 1)
    with pytest.raises(ZeroDivisionError):
        field_inv(f, 0)


def test_out_of_range_elements_raise():
    f = make_field(5, 1)
    with pytest.raises(ValueError):
        field_add(f, 5, 0)
    with pytest.raises(ValueError):
        field_mul(f, 0, -1)


def test_parse_field_spec_forms():
    a = parse_field_spec("3^2")
    b = parse_field_spec("9")
    assert (a.p, a.k, a.q) == (b.p, b.k, b.q) == (3, 2, 9)
    assert parse_field_spec("7").k == 1
    with pytest.raises(ValueError):
        parse_field_spec("6")
    with pytest.raises(ValueError):
        parse_field_spec("1")
    with pytest.raises(ValueError):
        parse_field_spec("x")


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(25) == (5, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("KAKEYA_SIZE_CAP", "100")
    with pytest.raises(ValueError):
        make_field(2, 7)  # 128 > 100
    assert make_field(2, 6).q == 64
    monkeypatch.setenv("KAKEYA_SIZE_CAP", "bogus")
    with pytest.raises(ValueError):
        make_field(2, 2)


def test_malformed_spaces_fields_and_caps_are_refused(monkeypatch):
    for q, n in [(1, 2), (2, 0)]:
        with pytest.raises(ValueError, match=f"invalid ambient parameters q={q}, n={n}"):
            check_space(q, n)
    for p, k in [(2.0, 1), (2, "1")]:
        with pytest.raises(ValueError, match="p and k must be integers"):
            make_field(p, k)
    with pytest.raises(ValueError, match="cannot parse field spec 'abc'"):
        parse_field_spec("abc")
    monkeypatch.setenv("KAKEYA_SIZE_CAP", "1")
    with pytest.raises(ValueError, match="KAKEYA_SIZE_CAP must be at least 2, got 1"):
        make_field(2, 1)


# Random fields p^k up to the size cap.  Extension fields of order in
# (2^12, 2^16] are left out: make_field builds their log tables in pure
# Python, which takes up to 10 s for one field.
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 31, 257, 1021]


def _next_prime(m):
    while not is_prime(m):
        m += 1
    return m


@functools.lru_cache(maxsize=None)
def _cached_field(p, k):
    return make_field(p, k)


@st.composite
def fields(draw):
    p = draw(st.one_of(st.sampled_from(_SMALL_PRIMES),
                       st.integers(2, DEFAULT_SIZE_CAP - 3).map(_next_prime)))
    degrees = [k for k in range(1, 21)
               if p**k <= DEFAULT_SIZE_CAP and (k == 1 or not 1 << 12 < p**k <= 1 << 16)]
    return _cached_field(p, draw(st.sampled_from(degrees)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_axioms_on_random_fields(data):
    f = data.draw(fields())
    a, b, c = (data.draw(st.integers(0, f.q - 1)) for _ in range(3))
    add = functools.partial(field_add, f)
    mul = functools.partial(field_mul, f)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(a, field_neg(f, a)) == 0 and field_sub(f, add(a, b), b) == a
    if a:
        assert mul(a, field_inv(f, a)) == 1
    # Frobenius x -> x^p is additive in characteristic p
    assert field_pow(f, add(a, b), f.p) == add(field_pow(f, a, f.p), field_pow(f, b, f.p))
