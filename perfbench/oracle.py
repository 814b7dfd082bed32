"""Expected answers, derived from theorems and not from the code under test.

Everything here is plain stdlib arithmetic on the combinatorics of the
catalog families, so a wrong answer from arrlie cannot leak into the
value it is compared with.

* Witt's formula gives the ranks of the free Lie algebra.
* Fiber-type arrangements have LCS ranks phi_d = sum_i witt(e_i, d) over
  their exponents e_i (Kohno; Falk-Randell, Invent. Math. 1985), and the
  holonomy Lie algebra is torsion-free with the same ranks.  braid(n) has
  exponents 1..n-1; near_pencil(k) has exponents (1, 1, k-2).
* Ranks over F_p equal the ranks over Q on torsion-free pieces (universal
  coefficients).
* For a decomposable arrangement the CE bridge reads rank H2 = h_n + b2,
  with b2 = sum over pencils of (size - 1).
"""

from __future__ import annotations

import itertools


def moebius(n):
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def witt(k, n):
    """Rank of the degree-n piece of the free Lie algebra on k letters."""
    total = sum(moebius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def exponents(family, param):
    """Exponents of a fiber-type catalog arrangement."""
    if family == "braid":
        return list(range(1, param))
    if family == "near_pencil":
        return [1, 1, param - 2]
    raise ValueError("no exponents known for %s(%d)" % (family, param))


def holonomy_rank(family, param, degree):
    """Rank of the degree-d holonomy piece (= LCS rank phi_d), torsion-free."""
    return sum(witt(e, degree) for e in exponents(family, param))


def holonomy_payload(family, param, max_degree):
    """The exact `holonomy --max-degree N` answer, over any ring."""
    return {str(d): {"rank": holonomy_rank(family, param, d), "torsion": []}
            for d in range(1, max_degree + 1)}


def atom_names(family, param):
    """Atom names of the catalog family, in catalog order."""
    if family == "braid":
        return ["H%d%d" % (i, j) for i in range(1, param + 1)
                for j in range(i + 1, param + 1)]
    return ["H%d" % (i + 1) for i in range(param)]


def pencils(family, param):
    """Rank-2 flats as sets of atom names, from the combinatorics alone.

    braid(n): a triple point {ij, ik, jk} for each i < j < k and a double
    point for each pair of disjoint edges.  near_pencil(k): the big pencil
    of the first k-1 atoms and a double point of each with the last.
    """
    if family == "braid":
        n = param
        out = [{"H%d%d" % (i, j), "H%d%d" % (i, k), "H%d%d" % (j, k)}
               for i, j, k in itertools.combinations(range(1, n + 1), 3)]
        edges = list(itertools.combinations(range(1, n + 1), 2))
        for (a, b), (c, d) in itertools.combinations(edges, 2):
            if len({a, b, c, d}) == 4:
                out.append({"H%d%d" % (a, b), "H%d%d" % (c, d)})
        return out
    if family == "near_pencil":
        names = atom_names(family, param)
        return [set(names[:-1])] + [{h, names[-1]} for h in names[:-1]]
    raise ValueError("no pencils known for %s(%d)" % (family, param))


def betti(family, param):
    """(b1, b2): the atom count and the sum of Mobius values size - 1."""
    return (len(atom_names(family, param)),
            sum(len(p) - 1 for p in pencils(family, param)))


def h2check_expected(family, param, degree):
    """Fields of a passing `h2check` report: h_n, b2 and their sum."""
    hn = holonomy_rank(family, param, degree)
    b2 = betti(family, param)[1]
    return {"h_n_rank": hn, "b2": b2, "expected": hn + b2,
            "ce_h2_rank": hn + b2, "pass": True}


def relator_words(family, param):
    """Dotted relator words [x_H, prod of x_K over K in Y] per flat Y and H.

    In the class-2 quotient the order of the product is irrelevant, so
    every one of these must evaluate to the identity.
    """
    out = []
    for flat in pencils(family, param):
        members = sorted(flat)
        prod = ".".join(members)
        inv_prod = ".".join("%s^-1" % m for m in reversed(members))
        for h in members:
            out.append("%s^-1.%s.%s.%s" % (h, inv_prod, h, prod))
    return out


def exponent_sums(word, names):
    """Exponent sum of each generator in a dotted word, in `names` order."""
    sums = dict.fromkeys(names, 0)
    for token in word.split("."):
        name, _, exp = token.partition("^")
        sums[name] += int(exp) if exp else 1
    return tuple(sums[n] for n in names)


def inverse_word(word):
    """The dotted word of the inverse element."""
    out = []
    for token in reversed(word.split(".")):
        name, _, exp = token.partition("^")
        out.append("%s^%d" % (name, -(int(exp) if exp else 1)))
    return ".".join(out)
