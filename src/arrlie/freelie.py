"""The size guard's error and default, and Witt ranks of the free Lie algebra.

Every size-driven step refuses, before it computes, a run whose cost
exceeds its guard (DEFAULT_GUARD units unless given), raising
SizeGuardError; each step counts its own cost (the holonomy tower in
holonomy.tower_cost), and refuses a guard, a degree or another count
that is not an int (require_int).  Degree-n ranks of the free Lie
algebra on k letters follow the Witt formula (1/n) * sum_{d|n} mu(d)
k^(n/d), the orientation consistent with prod_n (1-t^n)^{rank_n} = 1 - k*t.
"""

from __future__ import annotations

DEFAULT_GUARD = 10 ** 7


class SizeGuardError(ValueError):
    """Raised when a requested computation exceeds the size guard."""


def require_int(name, v):
    """Refuse v, naming it, unless it is an int that is not a bool."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError("%s %r is not an int" % (name, v))


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
    require_int("k", k)
    require_int("n", n)
    if k < 0:
        raise ValueError("k %d is negative" % k)
    if n < 1:
        raise ValueError("degree must be positive")
    total = sum(_moebius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n
