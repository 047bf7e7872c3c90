"""Built-in verification suite.

Each criterion is a function returning a CriterionResult; verify_suite
runs all of them.  Every check is exact (Fraction arithmetic); the two
timed criteria also enforce their runtime budgets.  Random instances
use fixed seeds so the suite is deterministic.

The Grassmannian localization oracle behind the localization criterion
lives here too: a torus fixed point sum computed independently of the
residue engine, and the residue problem it is compared with.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from .assemble import (
    AlgebraSpec,
    GeometricSubsetSpec,
    assemble_geometric,
    assemble_ghilb,
    severi_bundle,
    severi_coefficient,
)
from .chern import generic_surface, p2_surface, pair_integral
from .diagrams import (
    DiagramND,
    bell_transform,
    curvilinear_sum,
    from_partition,
    set_partitions,
    sieve_coefficient,
)
from .multidegree import MonomialIdeal, codimension, multidegree
from .poly import LinearForm, MPoly, VariableContext, format_poly, parse_poly
from .record import Record
from .residue import ResidueProblem, iterated_residue

A1_COEFFS = {"L^2": Fraction(3), "L*c1": Fraction(2), "c1^2": Fraction(0), "c2": Fraction(1)}
A2_COEFFS = {
    "L^2": Fraction(-42),
    "L*c1": Fraction(-39),
    "c1^2": Fraction(-6),
    "c2": Fraction(-7),
}


class CriterionResult(Record):
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name, t0, passed, detail) -> CriterionResult:
    return CriterionResult(name, passed, detail, time.monotonic() - t0)


def check_one_node_coefficient() -> CriterionResult:
    t0 = time.monotonic()
    sel = severi_coefficient(1)
    dt = time.monotonic() - t0
    ok = sel.coefficients == A1_COEFFS and sel.remainder.is_zero() and dt < 1.0
    return _result(
        "one-node coefficient a1",
        t0,
        ok,
        "got %s in %.3fs (budget 1s)" % (sel.as_poly_text(), dt),
    )


def check_two_node_coefficient() -> CriterionResult:
    t0 = time.monotonic()
    sel = severi_coefficient(2)
    dt = time.monotonic() - t0
    ok = sel.coefficients == A2_COEFFS and sel.remainder.is_zero() and dt < 60.0
    return _result(
        "two-node coefficient a2",
        t0,
        ok,
        "got %s in %.3fs (budget 60s)" % (sel.as_poly_text(), dt),
    )


def check_exponential_transform() -> CriterionResult:
    t0 = time.monotonic()
    ctx = VariableContext(geometry=(("a1", 1), ("a2", 1), ("a3", 1)))
    a = [MPoly.var(ctx, n) for n in ("a1", "a2", "a3")]
    p = bell_transform(a)
    want2 = parse_poly(ctx, "a1^2 + a2")
    want3 = parse_poly(ctx, "a1^3 + 3*a2*a1 + a3")
    ok = p[0] == a[0] and p[1] == want2 and p[2] == want3
    return _result(
        "exponential transform P2, P3",
        t0,
        ok,
        "P2 = %s; P3 = %s" % (format_poly(p[1]), format_poly(p[2])),
    )


def check_plane_one_node_counts() -> CriterionResult:
    t0 = time.monotonic()
    coeffs = severi_coefficient(1).coefficients
    got = []
    ok = True
    for d in (3, 4, 5, 6):
        n1 = pair_integral(coeffs, p2_surface(d))
        got.append("d=%d: %s" % (d, n1))
        ok = ok and n1 == 3 * (d - 1) ** 2
    return _result(
        "plane one-node counts 3(d-1)^2",
        t0,
        ok,
        "; ".join(got),
    )


# -- independent localization oracle ------------------------------------


def _divide_linear(p: MPoly, i: int, j: int) -> MPoly:
    """Exact division of p by (x_i - x_j); raises if not divisible."""
    ctx = p.ctx
    quotient = MPoly.zero(ctx)
    xi = MPoly.var(ctx, ctx.names[i])
    xj = MPoly.var(ctx, ctx.names[j])
    divisor = xi - xj
    while True:
        e = p.max_exponent(i)
        if e <= 0:
            if not p.is_zero():
                raise ArithmeticError("inexact division by (%s - %s)" % (ctx.names[i], ctx.names[j]))
            return quotient
        lead = p.coefficient_of(i, e)
        step = lead * MPoly.var(ctx, ctx.names[i], e - 1)
        quotient = quotient + step
        p = p - step * divisor


def grassmann_context(n: int, d: int) -> VariableContext:
    zs = tuple("z%d" % (m + 1) for m in range(d))
    lams = tuple(("lam%d" % (i + 1), 1) for i in range(n))
    return VariableContext(residue_vars=zs, geometry=lams)


def grassmann_fixed_point_sum(n: int, d: int, alpha: MPoly) -> MPoly:
    """Torus fixed point sum for integrals over the Grassmannian Gr(d, n).

    alpha is a polynomial in z_1..z_d (context from grassmann_context).
    Returns the exact polynomial in lam_1..lam_n equal to

        sum over injective tuples s: alpha(lam_s) /
            prod_{m chosen, i not chosen} (lam_i - lam_m),

    computed over the common denominator prod_{i != j}(lam_i - lam_j)
    followed by exact linear divisions.  The tuple sum is not divided
    by d!: the residue counterpart carries the full ordered pair
    product over the z variables, so for symmetric alpha this equals
    d! times the plain one-term-per-subset sum.  Non-symmetric alpha
    is symmetrized by the tuple sum itself.
    """
    ctx = alpha.ctx
    lam_idx = [ctx.index("lam%d" % (i + 1)) for i in range(n)]
    z_idx = [ctx.index("z%d" % (m + 1)) for m in range(d)]
    all_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]

    def lam_poly(i: int) -> MPoly:
        return MPoly.var(ctx, ctx.names[lam_idx[i]])

    total = MPoly.zero(ctx)
    for chosen in itertools.combinations(range(n), d):
        chosen_set = set(chosen)
        denom_pairs = {(i, m) for m in chosen for i in range(n) if i not in chosen_set}
        sym = MPoly.zero(ctx)
        for order in itertools.permutations(chosen):
            # substitute z_m -> lam_{order[m]}
            terms: dict = {}
            for key, coef in alpha.terms.items():
                nk = list(key)
                for m, zi in enumerate(z_idx):
                    e = nk[zi]
                    if e:
                        if e < 0:
                            raise ValueError("alpha must be polynomial in the z variables")
                        nk[zi] = 0
                        nk[lam_idx[order[m]]] += e
                tk = tuple(nk)
                terms[tk] = terms.get(tk, Fraction(0)) + coef
            sym = sym + MPoly(ctx, {k: c for k, c in terms.items() if c})
        complement = MPoly.const(ctx, 1)
        for (i, j) in all_pairs:
            if (i, j) not in denom_pairs:
                complement = complement * (lam_poly(i) - lam_poly(j))
        total = total + sym * complement
    for (i, j) in all_pairs:
        total = _divide_linear(total, lam_idx[i], lam_idx[j])
    return total


def grassmann_residue_problem(n: int, d: int, alpha: MPoly) -> ResidueProblem:
    """Residue-side counterpart of the fixed point sum, same context.

    Numerator: alpha * prod over ordered pairs m != l of (z_m - z_l).
    Denominator: (lam_i - z_m) for every i, m, each to the first power.
    """
    ctx = alpha.ctx
    z = [MPoly.var(ctx, "z%d" % (m + 1)) for m in range(d)]
    num = MPoly.product(ctx, [alpha] + [z[m] - z[l] for m in range(d) for l in range(d) if m != l])
    forms = []
    for m in range(d):
        coeffs = [Fraction(0)] * ctx.k
        coeffs[ctx.index("z%d" % (m + 1))] = Fraction(-1)
        for i in range(n):
            forms.append(
                LinearForm(ctx, tuple(coeffs), MPoly.var(ctx, "lam%d" % (i + 1)), 1)
            )
    return ResidueProblem(ctx=ctx, numerator=num, denominator=tuple(forms))


def _random_monomial(ctx, rng, d, degree) -> MPoly:
    exps = [0] * d
    for _ in range(degree):
        exps[rng.randrange(d)] += 1
    key = [0] * ctx.nvars
    for m in range(d):
        key[m] = exps[m]
    return MPoly(ctx, {tuple(key): Fraction(1)})


def check_grassmannian_oracle() -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(58201)
    failures = []
    cases = 0
    for n, d in ((2, 1), (3, 1), (3, 2), (4, 2)):
        ctx = grassmann_context(n, d)
        dim = d * (n - d)
        for _ in range(20):
            alpha = _random_monomial(ctx, rng, d, dim)
            res = iterated_residue(grassmann_residue_problem(n, d, alpha))
            fix = grassmann_fixed_point_sum(n, d, alpha)
            cases += 1
            if res != fix:
                failures.append(
                    "(n=%d,d=%d) alpha=%s: residue %s vs localization %s"
                    % (n, d, format_poly(alpha), format_poly(res), format_poly(fix))
                )
    dt = time.monotonic() - t0
    ok = not failures and dt < 10.0
    detail = "%d cases agree in %.2fs (budget 10s)" % (cases, dt)
    if failures:
        detail = failures[0]
    return _result("localization oracle", t0, ok, detail)


def check_residue_orientation() -> CriterionResult:
    t0 = time.monotonic()
    got = []
    ok = True
    for k in range(1, 5):
        ctx = VariableContext(residue_vars=tuple("z%d" % i for i in range(1, k + 1)))
        mono = MPoly(ctx, {tuple([-1] * k): Fraction(1)})
        problem = ResidueProblem(
            ctx=ctx,
            numerator=MPoly.const(ctx, 1),
            denominator=(),
            factors=(mono,),
            prefactor=Fraction(1),
        )
        val = iterated_residue(problem)
        got.append("k=%d: %s" % (k, format_poly(val)))
        ok = ok and val == MPoly.const(ctx, (-1) ** k)
    return _result("orientation of the basic residue", t0, ok, "; ".join(got))


def _weight_ctx(names):
    return VariableContext(geometry=tuple((n, 1) for n in names))


def check_multidegree() -> CriterionResult:
    t0 = time.monotonic()
    problems = []

    ctx = _weight_ctx(("a", "b"))
    eta = (MPoly.var(ctx, "a"), MPoly.var(ctx, "b"))
    square = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)), eta)
    if codimension(square) != 2:
        problems.append("codim(m^2) != 2")
    if multidegree(square) != parse_poly(ctx, "3*a*b"):
        problems.append("mdeg(m^2) = %s, want 3*a*b" % format_poly(multidegree(square)))

    # additivity across the two components of (x) cap (y) = (xy)
    if multidegree(MonomialIdeal(2, ((1, 1),), eta)) != parse_poly(ctx, "a + b"):
        problems.append("mdeg(xy) != a + b")

    rng = random.Random(77003)
    for trial in range(25):
        nv = rng.randint(2, 4)
        names = tuple("w%d" % i for i in range(nv))
        wctx = _weight_ctx(names)
        weights = tuple(MPoly.var(wctx, n) for n in names)
        order = list(range(nv))
        rng.shuffle(order)
        c = rng.randint(1, nv)
        cuts = sorted(rng.sample(range(1, nv), c - 1)) if c > 1 else []
        groups = [order[i:j] for i, j in zip([0] + cuts, cuts + [nv])]
        gens = []
        expected = MPoly.const(wctx, 1)
        for grp in groups:
            exps = [0] * nv
            degree = MPoly.zero(wctx)
            for v in grp:
                e = rng.randint(1, 3)
                exps[v] = e
                degree = degree + weights[v].scale(e)
            gens.append(tuple(exps))
            expected = expected * degree
        ideal = MonomialIdeal(nv, tuple(gens), weights)
        got = multidegree(ideal)
        if got != expected:
            problems.append(
                "trial %d: mdeg %s != product %s"
                % (trial, format_poly(got), format_poly(expected))
            )
            break
        if any(coef <= 0 for coef in got.terms.values()):
            problems.append("trial %d: nonpositive coefficient" % trial)
            break
    return _result(
        "multidegree axioms",
        t0,
        not problems,
        problems[0] if problems else "mdeg(m^2) = 3*a*b; 25 product instances agree",
    )


def _random_diagram(rng, dim) -> DiagramND:
    boxes = {(0,) * dim}
    for _ in range(rng.randint(0, 5)):
        candidates = set()
        for b in boxes:
            for axis in range(dim):
                nb = tuple(e + (1 if i == axis else 0) for i, e in enumerate(b))
                if nb in boxes:
                    continue
                below = all(
                    tuple(e - (1 if i == ax else 0) for i, e in enumerate(nb)) in boxes
                    for ax in range(dim)
                    if nb[ax] > 0
                )
                if below:
                    candidates.add(nb)
        if not candidates:
            break
        boxes.add(rng.choice(sorted(candidates)))
    return DiagramND(dim, frozenset(boxes))


def check_partition_calculus() -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    for s in range(1, 7):
        if curvilinear_sum([from_partition((1,))] * s) != from_partition((s,)):
            problems.append("s*(1) != (%d)" % s)
    if curvilinear_sum([from_partition((2, 1))] * 2) != from_partition((4, 2)):
        problems.append("2*(2,1) != (4,2)")
    rng = random.Random(91210)
    for trial in range(50):
        dim = rng.choice((2, 2, 3))
        a, b, c = (_random_diagram(rng, dim) for _ in range(3))
        abc = curvilinear_sum([a, b, c])
        if abc != curvilinear_sum([curvilinear_sum([a, b]), c]):
            problems.append("associativity fails on trial %d" % trial)
            break
        if abc != curvilinear_sum([c, a, b]):
            problems.append("commutativity fails on trial %d" % trial)
            break
    return _result(
        "partition calculus",
        t0,
        not problems,
        problems[0] if problems else "scaling identities and 50 random triples agree",
    )


def check_sieve_identity() -> CriterionResult:
    t0 = time.monotonic()
    got = []
    ok = True
    for s in range(1, 7):
        total = sum(sieve_coefficient(beta) for beta in set_partitions(s))
        got.append("s=%d: %d" % (s, total))
        ok = ok and total == (1 if s == 1 else 0)
    return _result("sieve coefficient identity", t0, ok, "; ".join(got))


def _is_geometry_free(p: MPoly) -> bool:
    k = p.ctx.k
    return all(not any(key[k:]) for key in p.terms)


def check_structural_specialization() -> CriterionResult:
    t0 = time.monotonic()
    surface = generic_surface()
    bundle = severi_bundle()
    problems = []
    for k in range(1, 5):
        spec = GeometricSubsetSpec(algebras=(AlgebraSpec.trivial(),) * k)
        geo = assemble_geometric(spec, bundle, surface, phi=k)
        ghi = assemble_ghilb(k, bundle, surface, phi=k)
        if [a for a, _ in geo] != [a for a, _ in ghi]:
            problems.append("k=%d: partition order differs" % k)
            continue
        for (alpha, pg), (_, ph) in zip(geo, ghi):
            tag = "k=%d alpha=%s" % (k, alpha)
            if pg.ctx.residue_vars != ph.ctx.residue_vars:
                problems.append("%s: variable sets differ" % tag)
                continue
            if Counter(f.key() for f in pg.denominator) != Counter(
                f.key() for f in ph.denominator
            ):
                problems.append("%s: denominator multisets differ" % tag)
            # the numerators and the polynomial factors (phi, epds) match
            # one for one; of the Laurent ones, the Segre counts and the
            # product of the inverse monomials
            poly_g = [p for p in pg.factors if p.is_polynomial()]
            poly_h = [p for p in ph.factors if p.is_polynomial()]
            if pg.numerator != ph.numerator or poly_g != poly_h:
                problems.append("%s: numerators or polynomial factors differ" % tag)
            laurent_g = [p for p in pg.factors if not p.is_polynomial()]
            laurent_h = [p for p in ph.factors if not p.is_polynomial()]
            segre_g = sum(not _is_geometry_free(p) for p in laurent_g)
            segre_h = sum(not _is_geometry_free(p) for p in laurent_h)
            if segre_g != segre_h:
                problems.append("%s: segre counts differ" % tag)
            mono_g = MPoly.const(pg.ctx, 1)
            for p in laurent_g:
                if _is_geometry_free(p):
                    mono_g = mono_g * p
            mono_h = MPoly.const(ph.ctx, 1)
            for p in laurent_h:
                if _is_geometry_free(p):
                    mono_h = mono_h * p
            if mono_g != mono_h:
                problems.append("%s: monomial inverse products differ" % tag)
    return _result(
        "geometric vs point-component structure",
        t0,
        not problems,
        problems[0] if problems else "k <= 4 terms match factor for factor",
    )


ALL_CRITERIA = (
    check_one_node_coefficient,
    check_two_node_coefficient,
    check_exponential_transform,
    check_plane_one_node_counts,
    check_grassmannian_oracle,
    check_residue_orientation,
    check_multidegree,
    check_partition_calculus,
    check_sieve_identity,
    check_structural_specialization,
)


def verify_suite() -> list:
    return [check() for check in ALL_CRITERIA]
