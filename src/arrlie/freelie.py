"""Size guard and Witt ranks of the free Lie algebra.

check_guard refuses a degree-n computation over k letters once
max(k, 2) ** n exceeds the guard, raising SizeGuardError.  Degree-n ranks
of the free Lie algebra on k letters follow the Witt formula
(1/n) * sum_{d|n} mu(d) k^(n/d), the orientation consistent with
prod_n (1-t^n)^{rank_n} = 1 - k*t.
"""

from __future__ import annotations

DEFAULT_GUARD = 10 ** 7


class SizeGuardError(ValueError):
    """Raised when a requested computation exceeds the size guard."""


def check_guard(alphabet, degree, guard=DEFAULT_GUARD):
    """Refuse when max(alphabet, 2) ** degree exceeds the guard.

    A one-letter alphabet counts as two, so the guard also bounds the
    degree there; the bit-length test refuses huge degrees before any
    power is computed.
    """
    if alphabet < 1 or degree < 1:
        raise ValueError("alphabet and degree must be positive")
    base = max(alphabet, 2)
    if degree > guard.bit_length() or base ** degree > guard:
        raise SizeGuardError(
            "alphabet %d at degree %d exceeds the guard (%d^%d > %d); "
            "raise the guard explicitly to proceed"
            % (alphabet, degree, base, degree, guard))


def _moebius(n):
    m, res = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1 if p == 2 else 2
    if m > 1:
        res = -res
    return res


def witt_rank(k, n):
    """Rank of degree n of the free Lie algebra on k generators."""
    if n < 1:
        raise ValueError("degree must be positive")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _moebius(d)
            if mu:
                total += mu * k ** (n // d)
    assert total % n == 0
    return total // n
