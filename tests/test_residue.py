"""Iterated residue at infinity, checked against an independent series oracle.

The oracle re-expands each test integrand with sympy: substitute
z -> 1/t, take the Laurent series at t = 0 (largest variable first,
matching the contour |z_1| << ... << |z_k|), read off the z^{-1}
coefficient, and repeat for the next variable.  No code is shared with
the engine beyond the problem description.
"""

from fractions import Fraction

import pytest
import sympy

from tautres.assemble import AlgebraSpec, assemble_punctual, evaluate, severi_bundle
from tautres.chern import generic_surface
from tautres.poly import MPoly, VariableContext, linear_form, parse_poly
from tautres.record import replace
from tautres.residue import (
    Expansion,
    ResidueProblem,
    TermBudgetExceeded,
    expand_inverse_at_infinity,
    fold_factors,
    iterated_residue,
)
from tautres.verify import (
    grassmann_context,
    grassmann_fixed_point_sum,
    grassmann_residue_problem,
)


# -- series expansion of a single factor -------------------------------------


def test_expand_simple_pole():
    ctx = VariableContext(residue_vars=("z",), geometry=(("L", 1),))
    L = MPoly.var(ctx, "L")
    z = MPoly.var(ctx, "z")
    exp = expand_inverse_at_infinity(linear_form(ctx, L - z), -3)
    assert exp.var == ctx.index("z")
    assert exp.floor == -3
    want = -MPoly.var(ctx, "z", -1) - L * MPoly.var(ctx, "z", -2) - L * L * MPoly.var(ctx, "z", -3)
    assert exp.poly == want


def test_expand_difference_leads_with_larger_variable():
    ctx = VariableContext(residue_vars=("z1", "z2"))
    z1 = MPoly.var(ctx, "z1")
    exp = expand_inverse_at_infinity(
        linear_form(ctx, MPoly.var(ctx, "z2") - z1), -3
    )
    assert exp.var == ctx.index("z2")
    want = (
        MPoly.var(ctx, "z2", -1)
        + z1 * MPoly.var(ctx, "z2", -2)
        + z1 * z1 * MPoly.var(ctx, "z2", -3)
    )
    assert exp.poly == want


def test_expand_with_multiplicity():
    ctx = VariableContext(residue_vars=("z",), geometry=(("L", 1),))
    L = MPoly.var(ctx, "L")
    z = MPoly.var(ctx, "z")
    exp = expand_inverse_at_infinity(linear_form(ctx, z + L, multiplicity=2), -3)
    # 1/(z+L)^2 = z^-2 - 2L z^-3 + ...
    assert exp.poly == MPoly.var(ctx, "z", -2) - L.scale(2) * MPoly.var(ctx, "z", -3)


def test_expand_rejects_constant_form():
    ctx = VariableContext(residue_vars=("z1", "z2"), geometry=(("L", 1),))
    with pytest.raises(ValueError):
        expand_inverse_at_infinity(linear_form(ctx, MPoly.var(ctx, "L")), -2)


def test_truncated_expansion_times_form_is_one_above_floor():
    ctx = VariableContext(residue_vars=("z",), geometry=(("L", 1),))
    f = linear_form(ctx, 2 * MPoly.var(ctx, "z") - 3 * MPoly.var(ctx, "L"))
    exp = expand_inverse_at_infinity(f, -6)
    prod = exp.poly * f.as_poly()
    i = ctx.index("z")
    kept = {k: c for k, c in prod.terms.items() if k[i] > -6}
    assert kept == {(0, 0): Fraction(1)}


# -- pinned residues ----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_residue_of_inverse_coordinate_product(k):
    names = tuple("z%d" % i for i in range(1, k + 1))
    ctx = VariableContext(residue_vars=names)
    inv = MPoly(ctx, {tuple([-1] * k): 1})
    prob = ResidueProblem(ctx=ctx, numerator=MPoly.const(ctx, 1), factors=(inv,))
    assert iterated_residue(prob) == (-1) ** k


def test_residue_two_simple_poles():
    ctx = VariableContext(residue_vars=("z",), geometry=(("l1", 1), ("l2", 1)))
    z = MPoly.var(ctx, "z")
    forms = (
        linear_form(ctx, MPoly.var(ctx, "l1") - z),
        linear_form(ctx, MPoly.var(ctx, "l2") - z),
    )
    prob = ResidueProblem(ctx=ctx, numerator=z, denominator=forms)
    assert iterated_residue(prob) == -1


def test_residue_scaled_double_pole():
    ctx = VariableContext(residue_vars=("z",), geometry=(("L", 1),))
    z = MPoly.var(ctx, "z")
    f = linear_form(ctx, 2 * z - MPoly.var(ctx, "L"), multiplicity=2)
    prob = ResidueProblem(ctx=ctx, numerator=z, denominator=(f,))
    assert iterated_residue(prob) == Fraction(-1, 4)


def test_prefactor_and_geometry_output():
    ctx = VariableContext(residue_vars=("z",), geometry=(("L", 1),))
    z = MPoly.var(ctx, "z")
    L = MPoly.var(ctx, "L")
    f = linear_form(ctx, z - L, multiplicity=2)
    # z^2/(z-L)^2 ~ z^-1 coefficient 2L
    prob = ResidueProblem(
        ctx=ctx, numerator=z * z, denominator=(f,), prefactor=Fraction(-1, 2)
    )
    assert iterated_residue(prob) == L


def test_term_budget_is_enforced(monkeypatch):
    geometry = tuple(("l%d" % i, 1) for i in range(1, 5))
    ctx = VariableContext(residue_vars=("z",), geometry=geometry)
    z = MPoly.var(ctx, "z")
    spread = sum((MPoly.var(ctx, n) for n, _ in geometry), MPoly.zero(ctx))
    form = linear_form(ctx, z - spread)
    prob = ResidueProblem(ctx=ctx, numerator=z ** 3, denominator=(form,))
    assert iterated_residue(prob) == -(spread ** 3)
    # the z^-1 window still carries all 20 monomials of (l1+..+l4)^3
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 2)
    with pytest.raises(TermBudgetExceeded, match="while eliminating z$"):
        iterated_residue(prob)
    # elimination and expansion hold the kernel's budget; the expansion
    # down to z^-3 squares the 4-term rest, 10 terms
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 9)
    with pytest.raises(TermBudgetExceeded, match="size 10 exceeds budget 9 while eliminating z$"):
        expand_inverse_at_infinity(form, -3)
    with pytest.raises(TermBudgetExceeded, match="while eliminating z$"):
        iterated_residue(prob)
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 10)
    assert len(expand_inverse_at_infinity(form, -3).poly) == 15


@pytest.mark.parametrize("filtration,budget", [((2, 3, 1), 20_000), ((2, 3), 5_000)])
def test_deferred_prefactors_fit_a_budget_an_up_front_fold_exceeds(monkeypatch, filtration, budget):
    # multiplying every Laurent prefactor into the numerator before any
    # elimination peaks at 66,755 terms for (2,3,1) and 9,804 for (2,3),
    # whose value is nonzero; each variable's own step stays below the
    # budget, and (2,3,1) vanishes by degree at its first step, before
    # any product
    surface = generic_surface()
    algebra = AlgebraSpec(sum(filtration) + 1, filtration)
    problem = assemble_punctual(algebra, severi_bundle(), surface, "c2")
    unbounded = evaluate(problem, surface)
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", budget)
    assert evaluate(problem, surface) == unbounded


def test_numerator_factors_run_under_the_term_budget(monkeypatch):
    # the (2,3,1) difference product (5,520 terms) times phi grows past
    # 10,000 terms; assembly no longer takes that product, fold_factors
    # does, under the kernel's budget and naming its layer.  Elimination
    # never takes it: the value vanishes by degree, which the outermost
    # step sees before its expansions and products
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 10_000)
    surface = generic_surface()
    problem = assemble_punctual(AlgebraSpec(7, (2, 3, 1)), severi_bundle(), surface, "c2")
    assert len(problem.numerator) == 5_520
    with pytest.raises(TermBudgetExceeded, match="exceeds budget 10000 while folding the factors$"):
        fold_factors(problem)
    assert iterated_residue(problem).is_zero()
    # the nonzero (2,3): its z5 step multiplies phi in and peaks at 2,762 terms
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 2_000)
    problem = assemble_punctual(AlgebraSpec(6, (2, 3)), severi_bundle(), surface, "c2")
    with pytest.raises(TermBudgetExceeded, match="size 2\\d{3} exceeds budget 2000 while eliminating z5$"):
        iterated_residue(problem)


@pytest.mark.parametrize("filtration", [(2, 2), (2, 3), (1, 2, 1)])
def test_the_order_of_the_factors_does_not_change_the_residue(filtration):
    # each step cuts each product to the window left by the factors
    # still to come, so any listed order is exact
    algebra = AlgebraSpec(sum(filtration) + 1, filtration)
    problem = assemble_punctual(algebra, severi_bundle(), generic_surface(), "3*c2 + 7*c1^2")
    want = iterated_residue(problem)
    factors = problem.factors
    for order in (factors[::-1], factors[2:] + factors[:2], factors[1::2] + factors[::2]):
        assert iterated_residue(replace(problem, factors=order)) == want


def test_a_residue_that_vanishes_by_degree_takes_no_product(monkeypatch):
    # z^2/(z-L)^3 reaches z^-1 exactly and is computed; z/(z-L)^3 tops
    # out at z^-2, so elimination returns zero before expanding the form
    ctx = VariableContext(residue_vars=("z",), geometry=(("L", 1),))
    z = MPoly.var(ctx, "z")
    form = linear_form(ctx, z - MPoly.var(ctx, "L"), multiplicity=3)
    reaching = ResidueProblem(ctx=ctx, numerator=z * z, denominator=(form,))
    assert iterated_residue(reaching) == -1
    _agrees_with_oracle(reaching)

    def refuse(*args, **kwargs):
        raise AssertionError("a product or an expansion was taken")

    short = ResidueProblem(ctx=ctx, numerator=z, denominator=(form,))
    with monkeypatch.context() as patch:
        patch.setattr(MPoly, "mul", refuse)
        patch.setattr("tautres.residue.expand_inverse_at_infinity", refuse)
        assert iterated_residue(short) == MPoly.zero(ctx)
    _agrees_with_oracle(short)


def test_problem_validation():
    ctx = VariableContext(residue_vars=("z",), geometry=(("L", 1),))
    other = VariableContext(residue_vars=("z",))
    with pytest.raises(ValueError, match="constant denominator"):
        ResidueProblem(
            ctx=ctx,
            numerator=MPoly.const(ctx, 1),
            denominator=(linear_form(ctx, MPoly.var(ctx, "L")),),
        )
    with pytest.raises(ValueError, match="foreign context"):
        ResidueProblem(
            ctx=ctx,
            numerator=MPoly.const(ctx, 1),
            denominator=(linear_form(other, MPoly.var(other, "z")),),
        )


# -- independent series oracle ------------------------------------------------


def _to_sympy(p: MPoly, syms: dict):
    expr = sympy.Integer(0)
    for key, coef in p.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for i, e in enumerate(key):
            if e:
                term *= syms[p.ctx.names[i]] ** e
        expr += term
    return expr


def oracle_residue(prob: ResidueProblem):
    syms = {n: sympy.symbols(n) for n in prob.ctx.names}
    F = _to_sympy(prob.numerator, syms)
    for lp in prob.factors:
        F *= _to_sympy(lp, syms)
    for f in prob.denominator:
        F /= _to_sympy(f.as_poly(), syms) ** f.multiplicity
    t = sympy.symbols("_t", positive=True)
    for name in reversed(prob.ctx.residue_vars):
        z = syms[name]
        G = sympy.together(F.subs(z, 1 / t))
        ser = sympy.series(G, t, 0, 2).removeO()
        F = sympy.expand(ser.coeff(t, 1))
    F *= (-1) ** len(prob.ctx.residue_vars)
    F *= sympy.Rational(prob.prefactor.numerator, prob.prefactor.denominator)
    return sympy.expand(F)


def _agrees_with_oracle(prob):
    got = iterated_residue(prob)  # already includes the prefactor
    syms = {n: sympy.symbols(n) for n in prob.ctx.names}
    want = oracle_residue(prob)
    assert sympy.expand(_to_sympy(got, syms) - want) == 0


def test_oracle_single_variable_mixed_poles():
    ctx = VariableContext(residue_vars=("z",), geometry=(("c1", 1), ("c2", 2)))
    z = MPoly.var(ctx, "z")
    c1 = MPoly.var(ctx, "c1")
    prob = ResidueProblem(
        ctx=ctx,
        numerator=z * z + c1 * z + MPoly.var(ctx, "c2"),
        denominator=(linear_form(ctx, z - c1, multiplicity=2),),
        factors=(MPoly.var(ctx, "z", -1),),
        prefactor=Fraction(3, 7),
    )
    _agrees_with_oracle(prob)


def test_oracle_two_variables_with_difference_form():
    ctx = VariableContext(residue_vars=("z1", "z2"), geometry=(("c1", 1), ("c2", 2)))
    z1 = MPoly.var(ctx, "z1")
    z2 = MPoly.var(ctx, "z2")
    c1 = MPoly.var(ctx, "c1")
    num = (z2 - z1) ** 2 + MPoly.var(ctx, "c2")
    forms = (
        linear_form(ctx, 2 * z1 - z2),
        linear_form(ctx, z1 + z2 + c1, multiplicity=2),
    )
    inv = MPoly(ctx, {(-1, -2, 0, 0): 1})
    prob = ResidueProblem(
        ctx=ctx, numerator=num, denominator=forms, factors=(inv,)
    )
    _agrees_with_oracle(prob)


def test_oracle_with_series_prefactor():
    # Laurent tail playing the role of a truncated Segre series
    ctx = VariableContext(residue_vars=("z1", "z2"), geometry=(("c1", 1), ("c2", 2)))
    z1 = MPoly.var(ctx, "z1")
    z2 = MPoly.var(ctx, "z2")
    c1 = MPoly.var(ctx, "c1")
    c2 = MPoly.var(ctx, "c2")
    segre = MPoly.const(ctx, 1) + c1 * MPoly.var(ctx, "z2", -1) + (c1 * c1 - c2) * MPoly.var(ctx, "z2", -2)
    inv = MPoly(ctx, {(-2, -1, 0, 0): 1})
    prob = ResidueProblem(
        ctx=ctx,
        numerator=(z2 - z1) * (z2 + z1),
        denominator=(linear_form(ctx, z2 - z1, multiplicity=1),),
        factors=(inv, segre),
        prefactor=Fraction(-1, 2),
    )
    _agrees_with_oracle(prob)


def test_oracle_with_prefactors_deferred_past_outer_steps():
    # Segre factors on z1 and on z2, an inverse monomial spanning both and
    # a geometry-only factor: the z1 factor joins the z1 step, after the
    # (z2 - z1) pole has been expanded at the z2 step
    ctx = VariableContext(residue_vars=("z1", "z2"), geometry=(("c1", 1), ("c2", 2)))
    z1 = MPoly.var(ctx, "z1")
    z2 = MPoly.var(ctx, "z2")
    c1 = MPoly.var(ctx, "c1")
    c2 = MPoly.var(ctx, "c2")

    def segre(name):
        return 1 + c1 * MPoly.var(ctx, name, -1) + (c1 * c1 - c2) * MPoly.var(ctx, name, -2)

    inv = MPoly(ctx, {(-1, -2, 0, 0): 1})
    prob = ResidueProblem(
        ctx=ctx,
        numerator=(z2 - z1) * (z2 + 2 * z1) * (z1 + c1) * z1 * z2 * z2,
        denominator=(
            linear_form(ctx, z2 - z1, multiplicity=2),
            linear_form(ctx, z1 - c1),
        ),
        factors=(segre("z1"), inv, 1 + c2, segre("z2")),
        prefactor=Fraction(3, 2),
    )
    assert not iterated_residue(prob).is_zero()
    _agrees_with_oracle(prob)


def test_oracle_with_polynomial_factors():
    # a polynomial factor spanning both variables joins the z2 step, one
    # on z1 alone the z1 step, and a constant one scales before the first
    ctx = VariableContext(residue_vars=("z1", "z2"), geometry=(("c1", 1), ("c2", 2)))
    z1 = MPoly.var(ctx, "z1")
    z2 = MPoly.var(ctx, "z2")
    c1 = MPoly.var(ctx, "c1")
    inv = MPoly(ctx, {(-1, -2, 0, 0): 1})
    prob = ResidueProblem(
        ctx=ctx,
        numerator=z2 - z1,
        denominator=(linear_form(ctx, 2 * z1 - z2), linear_form(ctx, z1 + c1)),
        factors=(z1 * z2 + c1 * z2 + MPoly.var(ctx, "c2"), MPoly.const(ctx, -3), inv, z1 + c1),
        prefactor=Fraction(1, 2),
    )
    assert not iterated_residue(prob).is_zero()
    _agrees_with_oracle(prob)
    folded = fold_factors(prob)
    assert folded.factors == (inv,)
    assert iterated_residue(folded) == iterated_residue(prob)


def test_oracle_three_variables():
    ctx = VariableContext(residue_vars=("z1", "z2", "z3"), geometry=(("c1", 1),))
    z1 = MPoly.var(ctx, "z1")
    z2 = MPoly.var(ctx, "z2")
    z3 = MPoly.var(ctx, "z3")
    forms = (
        linear_form(ctx, 2 * z1 - z2),
        linear_form(ctx, z1 + z2 - z3),
        linear_form(ctx, z3 + MPoly.var(ctx, "c1")),
    )
    inv = MPoly(ctx, {(-1, -1, -1, 0): 1})
    prob = ResidueProblem(
        ctx=ctx,
        numerator=(z2 - z1) * (z3 - z1) * (z3 - z2),
        denominator=forms,
        factors=(inv,),
    )
    _agrees_with_oracle(prob)


# -- subspace localization cross-check ----------------------------------------


def test_point_scheme_pinned_values():
    ctx = grassmann_context(2, 1)
    z = MPoly.var(ctx, "z1")
    assert iterated_residue(grassmann_residue_problem(2, 1, z)) == -1
    one = MPoly.const(ctx, 1)
    assert iterated_residue(grassmann_residue_problem(2, 1, one)) == 0
    ctx3 = grassmann_context(3, 1)
    zsq = MPoly.var(ctx3, "z1", 2)
    assert iterated_residue(grassmann_residue_problem(3, 1, zsq)) == 1


def test_plane_scheme_top_class():
    # top symmetric class on the planes in 3-space: residue carries the
    # full ordered-tuple normalization, twice the one-per-subset sum
    ctx = grassmann_context(3, 2)
    alpha = MPoly.var(ctx, "z1") * MPoly.var(ctx, "z2")
    assert iterated_residue(grassmann_residue_problem(3, 2, alpha)) == 2
    assert grassmann_fixed_point_sum(3, 2, alpha) == 2


@pytest.mark.parametrize(
    "n,d,alpha_text",
    [
        (2, 1, "z1"),
        (3, 1, "z1^2"),
        (3, 1, "z1"),
        (3, 2, "z1*z2"),
        (3, 2, "z1^2*z2^2"),
        (3, 2, "z1 + z2"),
        (4, 2, "z1^2*z2"),
        (4, 3, "z1*z2*z3"),
    ],
)
def test_residue_equals_fixed_point_sum(n, d, alpha_text):
    ctx = grassmann_context(n, d)
    alpha = parse_poly(ctx, alpha_text)
    left = iterated_residue(grassmann_residue_problem(n, d, alpha))
    right = grassmann_fixed_point_sum(n, d, alpha)
    assert left == right
