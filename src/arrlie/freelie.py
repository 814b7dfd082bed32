"""Free Lie algebra on an ordered alphabet, over exact coefficients.

Degree-n basis: Lyndon words of length n over letters 0..k-1, in lex
order, each word carrying its standard bracketing (split at the
lexicographically least proper suffix, which is the longest proper
Lyndon suffix).

Tensor polynomials are {word: coeff} dicts, and commutator(p, q) = pq - qp
is their one product.

Degree-n ranks follow the Witt formula (1/n) * sum_{d|n} mu(d) k^(n/d),
the orientation consistent with prod_n (1-t^n)^{rank_n} = 1 - k*t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_GUARD = 10 ** 7

_basis_cache = {}


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


def lyndon_words(k, n):
    """All Lyndon words of length exactly n over 0..k-1, in lex order (Duval)."""
    if k < 1 or n < 1:
        return []
    out = []
    w = [0]
    while True:
        if len(w) == n:
            out.append(tuple(w))
        # periodic extension to length n, then increment the last slot
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def is_lyndon(w):
    """A nonempty word is Lyndon iff it is strictly smaller than every proper suffix."""
    if not w:
        return False
    return all(tuple(w) < tuple(w[i:]) for i in range(1, len(w)))


def standard_factorization(w):
    """Split a Lyndon word of length >= 2 at its lex-least proper suffix."""
    assert len(w) >= 2
    best = 1
    for i in range(2, len(w)):
        if w[i:] < w[best:]:
            best = i
    return w[:best], w[best:]


def _bracketing(w, memo):
    t = memo.get(w)
    if t is None:
        if len(w) == 1:
            t = w[0]
        else:
            u, v = standard_factorization(w)
            t = (_bracketing(u, memo), _bracketing(v, memo))
        memo[w] = t
    return t


@dataclass(frozen=True)
class LyndonBasis:
    alphabet: int
    degree: int
    words: tuple
    trees: tuple
    index: dict = field(repr=False)

    def __len__(self):
        return len(self.words)


def lyndon_basis(k, n, guard=DEFAULT_GUARD):
    """Memoized Lyndon basis in degree n."""
    check_guard(k, n, guard)
    key = (k, n)
    b = _basis_cache.get(key)
    if b is not None:
        return b
    words = lyndon_words(k, n)
    memo = {}
    trees = tuple(_bracketing(w, memo) for w in words)
    b = LyndonBasis(alphabet=k, degree=n, words=tuple(words), trees=trees,
                    index={w: i for i, w in enumerate(words)})
    _basis_cache[key] = b
    return b


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


def commutator(p, q):
    """pq - qp of tensor polynomials {word: coeff}, without zero terms."""
    out = {}
    for wa, ca in p.items():
        for wb, cb in q.items():
            c = ca * cb
            w = wa + wb
            out[w] = out.get(w, 0) + c
            w = wb + wa
            out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}
