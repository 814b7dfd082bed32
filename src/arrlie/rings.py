"""Coefficient ring tags: Z, Q, or F_p for a prime p < 2**31.

Rings are plain tuples so they hash and compare cheaply: ('Z',), ('Q',),
('Fp', p).  All exact; floats are never accepted.  name and char refuse
any other tag (check); coeff, which runs per coefficient, does not.
"""

from __future__ import annotations

from fractions import Fraction

Z = ("Z",)
Q = ("Q",)

_MAX_P = 2 ** 31
_TOO_LARGE = "modulus %s too large, need p < 2**31"


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 2**31 with these bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fp(p):
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError("modulus %r is not an int" % (p,))
    if p >= _MAX_P:
        try:
            text = str(p)
        except ValueError:  # more digits than the interpreter converts
            text = "of %d bits" % p.bit_length()
        raise ValueError(_TOO_LARGE % text)
    if not _is_prime(p):
        raise ValueError("modulus %d is not prime" % p)
    return ("Fp", p)


def parse(text):
    """Parse a ring spec: 'z', 'q', or 'fp:<p>'."""
    t = text.strip().lower()
    if t == "z":
        return Z
    if t == "q":
        return Q
    if t.startswith("fp:") and t[3:].isascii() and t[3:].isdigit():
        digits = t[3:].lstrip("0") or "0"
        # 2**31 has 10 digits, so a longer modulus is refused unread
        if len(digits) > 10:
            raise ValueError(_TOO_LARGE % digits)
        return fp(int(digits))
    raise ValueError("unknown ring %r (expected z, q, or fp:<p>)" % text)


def check(ring):
    """ring itself if it is Z, Q or a tag that fp returns; anything else
    raises ValueError naming it."""
    try:
        if ring in (Z, Q) or ring == fp(ring[1]):
            return ring
    except (LookupError, TypeError, ValueError):
        pass
    raise ValueError("unknown ring %r (expected Z, Q or fp(p))" % (ring,))


def name(ring):
    if check(ring)[0] == "Fp":
        return "fp:%d" % ring[1]
    return ring[0].lower()


def char(ring):
    """Characteristic p for F_p, else None (check)."""
    return ring[1] if check(ring)[0] == "Fp" else None


def coeff(ring, v):
    """Normalize a coefficient, an int or a Fraction, into the ring; a bool
    is not read as an int."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ValueError("coefficient %r is not an int or a Fraction" % (v,))
    if ring[0] == "Fp":
        if isinstance(v, Fraction):
            p = ring[1]
            if v.denominator % p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % p)
            return v.numerator * pow(v.denominator, -1, p) % p
        return v % ring[1]
    if ring[0] == "Q":
        return Fraction(v)
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise ValueError("non-integer coefficient %s over Z" % v)
        return v.numerator
    return int(v)
