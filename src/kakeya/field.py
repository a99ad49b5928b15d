"""Construction of and arithmetic in the finite field F_q, q = p^k.

Elements are plain integers in [0, q).  Index e stands for the polynomial
sum_i d_i * x^i over F_p where (d_0, d_1, ...) are the base-p digits of e,
so 0 is the additive identity and 1 the multiplicative identity.  For
k = 1 this is ordinary arithmetic mod p.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

DEFAULT_SIZE_CAP = 1 << 20
SIZE_CAP_ENV = "KAKEYA_SIZE_CAP"

# Multiplication via log/antilog tables up to this order.  Above
# _LOG_TABLE_CAP arithmetic falls back to on-the-fly polynomial computation.
_LOG_TABLE_CAP = 1 << 16
# The level kernel's byte tables (geometry._level_kernel) need every
# element to fit in one byte.
_BYTE_TABLE_CAP = 256


def size_cap() -> int:
    """Largest permitted field order / point-space size (env override)."""
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{SIZE_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 2:
        raise ValueError(f"{SIZE_CAP_ENV} must be at least 2, got {cap}")
    return cap


def check_space(q: int, n: int) -> int:
    """Return q^n after refusing q < 2, n < 1 and q^n above size_cap().
    A dimension of at least the cap's bit length is refused without
    building q^n, since then q^n >= 2^n > cap."""
    if q < 2 or n < 1:
        raise ValueError(f"invalid ambient parameters q={q}, n={n}")
    cap = size_cap()
    if n >= cap.bit_length() or q**n > cap:
        raise ValueError(f"point space {q}^{n} exceeds size cap {cap}")
    return q**n


def is_prime(p: int) -> bool:
    """Deterministic trial division; p is small at the scales we support."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over F_p ------------------------------------------
# Coefficient lists are little-endian: index i holds the x^i coefficient.


def _digits(e: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        e, r = divmod(e, p)
        out.append(r)
    return out


def _undigits(coeffs, p: int) -> int:
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo monic b (destructive on a copy of a)."""
    r = list(a)
    db = len(b) - 1
    while len(r) > db:
        c = r[-1]
        if c:
            for j in range(db):
                r[len(r) - 1 - db + j] = (r[len(r) - 1 - db + j] - c * b[j]) % p
        r.pop()
    return r


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    rem = _poly_rem(prod, modulus, p)
    rem.extend(0 for _ in range(len(modulus) - 1 - len(rem)))
    return rem


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for m in range(p**d):
            divisor = _digits(m, p, d) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    # Lexicographically smallest monic irreducible, comparing coefficients
    # from the constant term upward.
    for m in range(p**k):
        cand = _digits(m, p, k) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of F_q; safe to share across workers."""

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]
    exp_table: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    log_table: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    # mul_rows[c][x] = c*x (q bytes each); add_tables[r] is the
    # bytes.translate table x -> r + x.  None when q > _BYTE_TABLE_CAP.
    mul_rows: tuple[bytes, ...] | None = field(default=None, repr=False, compare=False)
    add_tables: tuple[bytes, ...] | None = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        return f"F_{self.q}" if self.k == 1 else f"F_{self.p}^{self.k}"


def _mul_raw(a: int, b: int, p: int, k: int, modulus: tuple[int, ...]) -> int:
    pa = _digits(a, p, k)
    pb = _digits(b, p, k)
    return _undigits(_poly_mul_mod(pa, pb, list(modulus), p), p)


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _poly_pow_mod(a: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    """a^e modulo the modulus, for e >= 1."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else _poly_mul_mod(result, a, modulus, p)
        e >>= 1
        if not e:
            return result
        a = _poly_mul_mod(a, a, modulus, p)


def _build_log_tables(p: int, k: int, q: int, modulus: tuple[int, ...]):
    """Tabulate the powers of the smallest multiplicative generator g >= 2.
    g has order q-1 exactly when g^((q-1)/r) != 1 for every prime r | q-1;
    the smallest exponents go first, as they reject elements of small order
    (those of a subfield) soonest."""
    cofactors = [(q - 1) // r for r in reversed(_prime_factors(q - 1))]
    mod, one = list(modulus), _digits(1, p, k)
    for g in range(2, q):
        g_coeffs = _digits(g, p, k)
        if all(_poly_pow_mod(g_coeffs, e, mod, p) != one for e in cofactors):
            break
    else:
        raise AssertionError(f"no generator found for q={q}")
    exp = [1] * (q - 1)
    log = [0] * q
    power = one
    for i in range(1, q - 1):
        power = _poly_mul_mod(power, g_coeffs, mod, p)
        exp[i] = _undigits(power, p)
        log[exp[i]] = i
    return tuple(exp), tuple(log)


def make_field(p: int, k: int) -> FieldSpec:
    """Build F_{p^k} with a deterministic modulus choice.

    The modulus is the lexicographically smallest monic irreducible
    polynomial of degree k over F_p (constant term compared first), so
    element indices are reproducible across runs and platforms.
    """
    if not isinstance(p, int) or not isinstance(k, int):
        raise ValueError("p and k must be integers")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    q = p**k
    cap = size_cap()
    if q > cap:
        raise ValueError(f"field order {q} exceeds size cap {cap}")
    modulus = _find_modulus(p, k)

    exp_table = log_table = None
    if k > 1 and q <= _LOG_TABLE_CAP:
        exp_table, log_table = _build_log_tables(p, k, q, modulus)

    f = FieldSpec(p, k, q, modulus, exp_table, log_table)
    if q > _BYTE_TABLE_CAP:
        return f
    if k == 1:
        mul_rows = tuple(bytes(c * x % p for x in range(q)) for c in range(q))
    else:
        mul_rows = (bytes(q),) + tuple(
            bytes([0]) + bytes(exp_table[(log_table[c] + log_table[x]) % (q - 1)]
                               for x in range(1, q))
            for c in range(1, q)
        )
    return replace(f, mul_rows=mul_rows, add_tables=_add_tables(p, k, q))


def _add_tables(p: int, k: int, q: int) -> tuple[bytes, ...]:
    """Translate tables x -> r + x, built by composing unit steps: adding
    p^j raises digit j by one mod p, and r is r - p^j plus that step for the
    lowest nonzero digit j of r.  Bytes >= q map to themselves."""
    rest = bytes(range(q, 256))
    steps = [
        bytes(x - (p - 1) * p**j if x // p**j % p == p - 1 else x + p**j for x in range(q)) + rest
        for j in range(k)
    ]
    tables = [bytes(range(256))]
    for r in range(1, q):
        j = 0
        while r // p**j % p == 0:
            j += 1
        tables.append(tables[r - p**j].translate(steps[j]))
    return tuple(tables)


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "p^k" (e.g. "3^2") or a literal prime power q (e.g. "9")."""
    s = text.strip()
    if "^" in s:
        left, _, right = s.partition("^")
        try:
            p, k = int(left), int(right)
        except ValueError:
            raise ValueError(f"cannot parse field spec {text!r}") from None
        return make_field(p, k)
    try:
        q = int(s)
    except ValueError:
        raise ValueError(f"cannot parse field spec {text!r}") from None
    factored = factor_prime_power(q)
    if factored is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*factored)


def _check(f: FieldSpec, a: int) -> None:
    if not 0 <= a < f.q:
        raise ValueError(f"element index {a} out of range for {f}")


def field_add(f: FieldSpec, a: int, b: int) -> int:
    _check(f, a)
    _check(f, b)
    if f.p == 2:
        return a ^ b
    if f.k == 1:
        return (a + b) % f.p
    p = f.p
    out = 0
    mult = 1
    while a or b:
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def field_neg(f: FieldSpec, a: int) -> int:
    _check(f, a)
    if f.p == 2:
        return a
    if f.k == 1:
        return (-a) % f.p
    p = f.p
    out = 0
    mult = 1
    while a:
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def field_sub(f: FieldSpec, a: int, b: int) -> int:
    return field_add(f, a, field_neg(f, b))


def field_mul(f: FieldSpec, a: int, b: int) -> int:
    _check(f, a)
    _check(f, b)
    if f.k == 1:
        return (a * b) % f.p
    if a == 0 or b == 0:
        return 0
    if f.exp_table is not None:
        return f.exp_table[(f.log_table[a] + f.log_table[b]) % (f.q - 1)]
    return _mul_raw(a, b, f.p, f.k, f.modulus)


def field_inv(f: FieldSpec, a: int) -> int:
    _check(f, a)
    if a == 0:
        raise ZeroDivisionError(f"0 has no multiplicative inverse in {f}")
    if f.k == 1:
        return pow(a, f.p - 2, f.p)
    if f.exp_table is not None:
        return f.exp_table[(f.q - 1 - f.log_table[a]) % (f.q - 1)]
    return field_pow(f, a, f.q - 2)


def field_pow(f: FieldSpec, a: int, e: int) -> int:
    _check(f, a)
    if e < 0:
        return field_pow(f, field_inv(f, a), -e)
    result = 1
    base = a
    while e:
        if e & 1:
            result = field_mul(f, result, base)
        base = field_mul(f, base, base)
        e >>= 1
    return result
