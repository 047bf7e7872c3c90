"""Multidegrees (equivariant duals) of monomial ideals, plus the built-in
table of duals for Nakajima-type geometric subsets.

The multidegree of a monomial ideal I of codimension c is

    sum over codim-c coordinate primes P_S minimal over I of
        mult_{P_S}(I) * prod_{i in S} eta_i

where the multiplicity is the number of standard monomials of the
localization at P_S (variables outside S set to 1).  Supported weights
are arbitrary polynomials, so duals in residue variables come out as
exact MPoly values.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import mul

from .record import Record


def _minimal_generators(gens):
    gens = [tuple(g) for g in gens]
    out = []
    for g in gens:
        if any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens):
            continue
        if g not in out:
            out.append(g)
    return tuple(sorted(out))


class MonomialIdeal(Record):
    num_vars: int
    generators: tuple  # exponent vectors, minimalized on construction
    weights: tuple  # one weight value (MPoly or number) per variable

    def __post_init__(self):
        gens = []
        for g in self.generators:
            g = tuple(int(e) for e in g)
            if len(g) != self.num_vars or any(e < 0 for e in g):
                raise ValueError("bad exponent vector %r" % (g,))
            gens.append(g)
        object.__setattr__(self, "generators", _minimal_generators(gens))
        if len(self.weights) != self.num_vars:
            raise ValueError("need one weight per variable")

    def is_unit(self) -> bool:
        return any(not any(g) for g in self.generators)


def _support(g):
    return frozenset(i for i, e in enumerate(g) if e)


def codimension(ideal: MonomialIdeal) -> int:
    """num_vars minus the largest variable subset containing no generator support."""
    if ideal.is_unit():
        raise ValueError("unit ideal")
    if not ideal.generators:
        return 0
    n = ideal.num_vars
    supports = [_support(g) for g in ideal.generators]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            t = frozenset(subset)
            if all(not s <= t for s in supports):
                return n - size
    raise AssertionError("unreachable")


def _standard_monomial_count(gens, nvars) -> int | None:
    """Number of monomials not divisible by any generator; None if infinite."""
    bounds = [None] * nvars
    for g in gens:
        sup = [i for i, e in enumerate(g) if e]
        if len(sup) == 1:
            i = sup[0]
            if bounds[i] is None or g[i] < bounds[i]:
                bounds[i] = g[i]
    if any(b is None for b in bounds):
        return None
    count = 0
    for mono in itertools.product(*(range(b) for b in bounds)):
        if not any(all(m >= e for m, e in zip(mono, g)) for g in gens):
            count += 1
    return count


def multidegree(ideal: MonomialIdeal):
    """Sum of multiplicity-weighted products of weights over the minimal
    codim-c coordinate primes.  Exact; value type follows the weights."""
    if ideal.is_unit():
        raise ValueError("unit ideal")
    if not ideal.generators:
        raise ValueError("zero ideal has no multidegree here")
    c = codimension(ideal)
    n = ideal.num_vars
    supports = [_support(g) for g in ideal.generators]
    total = None
    for subset in itertools.combinations(range(n), c):
        s = frozenset(subset)
        if not all(sup & s for sup in supports):
            continue  # I is not contained in P_S
        restricted = []
        for g in ideal.generators:
            rg = tuple(g[i] for i in subset)  # variables off S are units locally
            if any(rg):
                restricted.append(rg)
            else:
                restricted = None  # a generator became a unit: localization is trivial
                break
        if restricted is None:
            continue
        restricted = _minimal_generators(restricted)
        count = _standard_monomial_count(restricted, c)
        if count is None:
            continue  # positive-dimensional localization: P_S not minimal
        term = reduce(mul, [ideal.weights[i] for i in subset]) * count
        total = term if total is None else total + term
    if total is None:
        raise AssertionError("no minimal primes found for a proper ideal")
    return total


# -- duals for Nakajima-type subsets -------------------------------------

UNKNOWN = None

# Rows exactly as tabulated; keys are sorted order tuples.  The (1,5)
# row is irregular (its printed dual breaks the (1,d) pattern of the
# other rows) and is kept verbatim.  (2,4) is an explicit gap.
_NAKAJIMA_TABLE = {
    (1, 1): "z1",
    (1, 2): "z2",
    (1, 1, 1): "z1*z2",
    (1, 3): "z3",
    (2, 2): "z1",
    (1, 1, 2): "z1*z2",
    (1, 1, 1, 1): "z1*z2*z3",
    (1, 4): "z4",
    (2, 3): "z1",
    (1, 2, 2): "z1*z2",
    (1, 1, 3): "z1*z3",
    (1, 1, 1, 2): "z1*z2*z3",
    (1, 1, 1, 1, 1): "z1*z2*z3*z4",
    (1, 5): "z1",
    (2, 4): UNKNOWN,
    (3, 3): "z1",
    (2, 2, 2): "z1*z2",
}


def nakajima_dual(d) -> str | None:
    """Dual of the curvilinear locus inside the geometric subset with
    Morin algebras of the given orders, as canonical text in z1..z_{sum-1}.

    Table rows take precedence; balanced tuples (d,...,d) fall back to
    z1...z_{s-1}; anything else is None (unknown).
    """
    key = tuple(sorted(int(x) for x in d))
    if not key or any(x < 1 for x in key):
        raise ValueError("orders must be positive")
    if len(key) == 1:
        return "1"
    if key in _NAKAJIMA_TABLE:
        return _NAKAJIMA_TABLE[key]
    if len(set(key)) == 1:
        s = len(key)
        return "*".join("z%d" % i for i in range(1, s))
    return UNKNOWN


def balanced_dual_text(s: int) -> str:
    """Euler factor z1...z_{s-1} for a block of s equal-dimension algebras."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if s == 1:
        return "1"
    return "*".join("z%d" % i for i in range(1, s))
