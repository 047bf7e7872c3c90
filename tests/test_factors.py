"""Numerator factors: phi and the block epds join elimination as factors.

A builder's numerator is the product of its blocks' difference products;
phi and the epds are factors that iterated_residue multiplies in at
their elimination step, and fold_factors multiplies out.  Folding must
not change any residue, and the benchmark's punctual values must hold
with the factors deferred.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from tautres.assemble import (
    AlgebraSpec,
    _difference_rows,
    assemble_ghilb,
    assemble_punctual,
    evaluate,
    severi_bundle,
)
from tautres.chern import elementary_symmetric, generic_surface, segre_factor, twisted_roots
from tautres.diagrams import weight_map
from tautres.poly import MPoly, VariableContext, format_poly
from tautres.residue import fold_factors, iterated_residue

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SURFACE = generic_surface()

# the distinct filtrations of the benchmark's punctual workload
PUNCTUAL_FILTRATIONS = ((2, 2, 1), (2, 2), (2, 2, 2), (2, 1, 1), (2, 3, 1), (1, 2, 1), (3, 2), (2, 3))


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def punctual(filtration, phi):
    algebra = AlgebraSpec(sum(filtration) + 1, filtration)
    return assemble_punctual(algebra, severi_bundle(), SURFACE, phi)


def test_punctual_values_match_the_benchmark_golden_file():
    checks = load_checks()
    with open(PERFBENCH / "golden.json") as fh:
        golden = json.load(fh)["punctual"]
    assert set(golden) == {",".join(map(str, f)) for f in PUNCTUAL_FILTRATIONS}
    for f in PUNCTUAL_FILTRATIONS:
        for phi, a, b in (("c2", 1, 0), ("c1^2", 0, 1)):
            sel = evaluate(punctual(f, phi), SURFACE)
            entry = golden[",".join(map(str, f))]
            fails = checks.check_punctual(sel.coefficients, format_poly(sel.remainder), a, b, entry)
            assert fails == [], (f, phi, fails)


@pytest.mark.parametrize("phi", ["c2", "c1^2", "3*c2 + 7*c1^2"])
def test_folding_punctual_factors_keeps_the_residue(phi):
    for f in PUNCTUAL_FILTRATIONS:
        problem = punctual(f, phi)
        folded = fold_factors(problem)
        assert not any(p.is_polynomial() for p in folded.factors)
        assert iterated_residue(folded) == iterated_residue(problem), f


@pytest.mark.parametrize("q_polys", [None, {1: "z1", 2: "z1*z2", 3: "z1^2*z3"}])
def test_folding_ghilb_factors_keeps_the_residue(q_polys):
    relabels = 0
    for k in range(1, 6):
        q = {m: text for m, text in (q_polys or {}).items() if m < k}
        folded = {}
        for _, problem in assemble_ghilb(k, severi_bundle(), SURFACE, "2*c2 - c1^2", q):
            if id(problem) in folded:
                continue
            residue = iterated_residue(problem)
            folded[id(problem)] = fold_factors(problem)
            assert iterated_residue(folded[id(problem)]) == residue
            if problem.relabel_of is not None:
                # the relabel of the folded source is the folded relabel
                relabels += 1
                source, slots = problem.relabel_of
                moved = fold_factors(problem, folded[id(source)])
                assert moved.relabel_of == (folded[id(source)], slots)
                assert moved.numerator == folded[id(problem)].numerator
                assert moved.factors == folded[id(problem)].factors
                assert iterated_residue(moved) == residue
    assert relabels == 13  # 0 + 0 + 1 + 3 + 9


def permutation_order_product(ctx, weights):
    """The difference product, its pairs taken in itertools.permutations order."""
    z = [MPoly.var(ctx, n) for n in ctx.residue_vars]
    diff = MPoly.const(ctx, 1)
    for i, j in itertools.permutations(range(len(z)), 2):
        if weights[i] <= weights[j]:
            diff = diff * (z[i] - z[j])
    return diff


@pytest.mark.parametrize("filtration", PUNCTUAL_FILTRATIONS)
def test_vandermonde_order_gives_the_punctual_difference_products(filtration):
    problem = punctual(filtration, "c2")
    wmap = weight_map(filtration)
    weights = [wmap[i] for i in range(1, problem.ctx.k + 1)]
    assert problem.numerator == permutation_order_product(problem.ctx, weights)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_vandermonde_order_gives_the_severi_difference_products(r):
    boxes = sorted(
        [(a, 0) for a in range(1, 2 * r)] + [(b, 1) for b in range(r)],
        key=lambda box: 3 * box[0] + 5 * box[1],
    )
    names = tuple("z%d%d" % box for box in boxes)
    weights = [3 * a + 5 * b for a, b in boxes]
    ctx = VariableContext(names, (("L", 1), ("c1", 1), ("c2", 2)), 2)
    rows = _difference_rows(ctx, names, weights)
    # row m holds the pairs of variable k-2-m with the later ones, so each
    # prefix is the whole difference product of the last few variables
    k = len(names)
    assert [len(row) for row in rows] == list(range(1, k))
    for m, row in enumerate(rows):
        for f in row:
            assert {i for i in range(k) if f.max_exponent(i)} <= set(range(k - 2 - m, k))
            assert f.max_exponent(k - 2 - m)
    factors = [f for row in rows for f in row]
    assert MPoly.product(ctx, factors) == permutation_order_product(ctx, weights)


def test_punctual_numerator_is_the_difference_product_and_phi_comes_first():
    problem = punctual((2, 2, 1), "3*c2 + 7*c1^2")
    ctx = problem.ctx
    z = [MPoly.var(ctx, n) for n in ctx.residue_vars]
    diff = permutation_order_product(ctx, (1, 1, 2, 2, 3))
    assert problem.numerator == diff
    roots = twisted_roots(ctx, severi_bundle(), z)
    phi = elementary_symmetric(2, roots).scale(3) + elementary_symmetric(1, roots) ** 2 * 7
    assert problem.factors[0] == phi
    # then the Laurent monomial and one Segre factor per variable
    assert format_poly(problem.factors[1]) == "z1^-2*z2^-2*z3^-2*z4^-2*z5^-2"
    assert list(problem.factors[2:]) == [segre_factor(ctx, n, SURFACE) for n in ctx.residue_vars]
    assert fold_factors(problem).numerator == diff * phi
