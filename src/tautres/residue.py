"""Iterated residue at infinity for rational forms with linear denominators.

The contour convention: residue variables are ordered by modulus,
``|z_1| << |z_2| << ... << |z_k|`` with every geometry symbol far
smaller than ``z_1``.  Each inverse denominator factor is expanded as a
geometric series in its leading variable (the largest-modulus variable
it contains), which is the only expansion compatible with that contour.
The residue is then

    Res = (-1)^k * [coefficient of (z_1 ... z_k)^{-1}],

so ``Res dz / (z_1 ... z_k) = (-1)^k``.

Elimination runs outermost variable first.  At the step for variable t
every remaining denominator factor either has leading variable t (it is
expanded now, truncated to the exponents that can still reach t^{-1})
or does not contain t at all.  Truncation is exact: dropped tails can
only produce total t-exponents below -1.

A problem's integrand is its numerator times its factors, polynomial
or Laurent (phi, epds, Segre series, inverse monomials).  Each factor
joins the step of its outermost variable, the largest contour index
with a nonzero exponent in it; the numerator and the factors in
geometry symbols only are one MPoly.product before the first step.  At
the step for t the factors, then the expansions, are multiplied into
the numerator one at a time, each product cut to the t-exponents from
which the factors still to come can reach t^{-1}.  Deferring a factor is
exact: it does not contain the variables eliminated before its step, so
it commutes with taking their coefficients, and the ``dim_cap``
truncation of products is a quotient by an ideal, so the order of the
products does not change the result.  For the same reason fold_factors,
which multiplies the polynomial factors out up front, keeps the residue.

Vanishing by degree.  Each expansion of a form led by t has t-exponents
at most minus its multiplicity, so after a step's products no term has
a t-exponent above d_max (the top t-exponent of the numerator plus
those of the step's factors) minus the summed multiplicities of the
forms led by t.  When that bound is below -1, or the numerator is
already zero, the t^{-1} coefficient is zero, every later step
multiplies zero, and the residue is zero: elimination returns it before
the step's expansions and products.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# DEFAULT_TERM_BUDGET is re-exported; MPoly.mul reads it from poly
from .poly import DEFAULT_TERM_BUDGET, LinearForm, MPoly, TermBudgetExceeded, VariableContext
from .record import Record, replace


class Expansion(Record):
    """Truncated Laurent tail of 1/form^mult in one variable.

    poly holds exponents of ``var`` in [floor, -mult]; everything below
    floor was certified irrelevant and dropped.
    """

    poly: MPoly
    var: int
    floor: int


def expand_inverse_at_infinity(
    form: LinearForm, lower_cutoff: int, budget: int | None = None
) -> Expansion:
    """Expand 1/form^mult at infinity in the form's leading variable.

    Keeps exponents >= lower_cutoff.  budget is passed to MPoly.mul, and
    TermBudgetExceeded names t, the variable whose elimination step the
    expansion belongs to.  With form = a*t + r
    (t leading, r the smaller-variable rest):

        1/(a t + r)^m = sum_j C(m+j-1, j) (-r)^j a^(-m-j) t^(-m-j)
    """
    ctx = form.ctx
    i = form.leading_index()
    if i is None:
        raise ValueError("no residue variable in %r" % form)
    a = form.z_coeffs[i]
    rest = form.as_poly() - MPoly.var(ctx, ctx.names[i]).scale(a)
    m = form.multiplicity
    out = MPoly.zero(ctx)
    rest_pow = MPoly.const(ctx, 1)
    j = 0
    try:
        while -m - j >= lower_cutoff:
            coef = Fraction(comb(m + j - 1, j), 1) / a ** (m + j)
            if j % 2:
                coef = -coef
            t_pow = MPoly.var(ctx, ctx.names[i], -m - j).scale(coef)
            out = out + t_pow.mul(rest_pow, budget=budget)
            j += 1
            if -m - j >= lower_cutoff:
                rest_pow = rest_pow.mul(rest, budget=budget)
                if rest_pow.is_zero():
                    break
    except TermBudgetExceeded as exc:
        raise TermBudgetExceeded("%s while eliminating %s" % (exc, ctx.names[i])) from None
    return Expansion(out, i, lower_cutoff)


class ResidueProblem(Record):
    """A fully assembled iterated-residue integrand.

    numerator: polynomial part (may involve geometry symbols); what the
        builder multiplied out.
    denominator: linear-form factors with multiplicities.
    factors: exact factors the numerator is still to be multiplied by,
        polynomial (phi, an epd) or Laurent (truncated Segre series,
        inverse monomials; nonpositive residue exponents).  Each joins
        the elimination step of its outermost residue variable; one
        without residue variables is multiplied in before the first step.
    prefactor: global rational constant, applied at the very end.
    relabel_of: (source, slots) when this problem is the problem source
        with its slot i renamed to slots[i] (MPoly.relabel), so that its
        residue is source's residue relabelled the same way.  The source
        has the same prefactor (checked); a copy that changes the
        integrand must drop it.
    """

    ctx: VariableContext
    numerator: MPoly
    denominator: tuple = ()
    factors: tuple = ()
    prefactor: Fraction = Fraction(1)
    relabel_of: tuple | None = None

    def __post_init__(self):
        if self.relabel_of is not None and self.relabel_of[0].prefactor != self.prefactor:
            raise ValueError("a relabelled problem needs its source's prefactor")
        for f in self.denominator:
            if f.ctx != self.ctx:
                raise ValueError("denominator factor in foreign context")
            if f.leading_index() is None:
                raise ValueError(
                    "constant denominator factor %r; fold it into the prefactor" % f
                )
        for p in self.factors:
            if p.ctx != self.ctx:
                raise ValueError("factor in foreign context")


def _outermost_variable(p: MPoly) -> int | None:
    """Largest contour index whose exponent is nonzero in some term of p."""
    return max(
        (i for i in range(p.ctx.k) if p.max_exponent(i) or p.min_exponent(i)), default=None
    )


def fold_factors(problem: ResidueProblem, source: ResidueProblem | None = None) -> ResidueProblem:
    """The problem with its polynomial factors multiplied into its numerator.

    The Laurent factors stay, in order; the residue is the problem's.  A
    product that outgrows the term budget raises TermBudgetExceeded with
    this layer named.

    source, for a problem with a relabel_of, is that relabel's source
    already folded: its numerator is relabelled instead of multiplying
    the factors again, and the result is a relabel of source.
    """
    polys, laurents = [], []
    for p in problem.factors:
        (polys if p.is_polynomial() else laurents).append(p)
    if source is not None:
        slots = problem.relabel_of[1]
        num = source.numerator.relabel(problem.ctx, slots)
        return replace(problem, numerator=num, factors=tuple(laurents), relabel_of=(source, slots))
    try:
        num = MPoly.product(problem.ctx, [problem.numerator, *polys])
    except TermBudgetExceeded as exc:
        raise TermBudgetExceeded("%s while folding the factors" % exc) from None
    return replace(problem, numerator=num, factors=tuple(laurents))


def iterated_residue(problem: ResidueProblem, term_budget: int | None = None) -> MPoly:
    """Evaluate the iterated residue; result involves geometry symbols only.

    term_budget is passed to every product (None: the kernel's default).
    Raises TermBudgetExceeded rather than degrading precision.
    """
    ctx = problem.ctx
    deferred: dict = {None: [problem.numerator]}
    for p in problem.factors:
        deferred.setdefault(_outermost_variable(p), []).append(p)
    num = MPoly.product(ctx, deferred[None], term_budget)
    remaining = list(problem.denominator)
    for i in range(ctx.k - 1, -1, -1):
        led = [f for f in remaining if f.leading_index() == i]
        remaining = [f for f in remaining if f.leading_index() != i]
        # factors multiplied in at this step, each with its z_i exponent range
        factors = [(p, p.min_exponent(i), p.max_exponent(i)) for p in deferred.get(i, ())]
        d_max = num.max_exponent(i) + sum(top for _, _, top in factors)
        total_mult = sum(f.multiplicity for f in led)
        if num.is_zero() or d_max - total_mult < -1:
            return MPoly.zero(ctx)  # no term reaches t^-1 (module docstring)
        for f in led:
            cutoff = -1 - d_max + (total_mult - f.multiplicity)
            expansion = expand_inverse_at_infinity(f, cutoff, budget=term_budget)
            factors.append((expansion.poly, cutoff, -f.multiplicity))
        # window pruning: after factor j, the factors still to come
        # contribute exponents in [sum of their lows, sum of their highs]
        for j, (factor, _, _) in enumerate(factors):
            lo_rest = sum(low for _, low, _ in factors[j + 1 :])
            hi_rest = sum(top for _, _, top in factors[j + 1 :])
            num = num.mul(factor, window=(i, -1 - hi_rest, -1 - lo_rest), budget=term_budget)
        num = num.coefficient_of(i, -1)
    for i in range(ctx.k):
        if num.max_exponent(i) or num.min_exponent(i):
            raise AssertionError("residue variable %s survived elimination" % ctx.names[i])
    sign = -1 if ctx.k % 2 else 1
    return num.scale(problem.prefactor * sign)
