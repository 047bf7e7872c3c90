"""Problem builders: punctual, geometric, point-component, and nodal-degree."""

import hashlib
import itertools
import re
from fractions import Fraction

import pytest

from tautres import assemble, cli
from tautres.assemble import (
    AlgebraSpec,
    GeometricSubsetSpec,
    SEVERI_PREFACTOR,
    _sum_block,
    assemble_geometric,
    assemble_ghilb,
    assemble_punctual,
    assemble_severi,
    evaluate,
    normalize_phi,
    severi_bundle,
    severi_coefficient,
)
from tautres.chern import (
    BundleModel,
    SurfaceModel,
    elementary_symmetric,
    generic_surface,
    segre_factor,
    twisted_roots,
)
from tautres.diagrams import from_partition
from tautres.poly import MPoly, TermBudgetExceeded, VariableContext, format_poly, linear_form, parse_poly
from tautres.record import replace
from tautres.residue import fold_factors, iterated_residue


SURFACE = generic_surface()


def form_keys(problem):
    keys = [f.key() for f in problem.denominator]
    return sorted(keys, key=repr)


def difference_product(ctx, names):
    import itertools

    num = MPoly.const(ctx, 1)
    for a, b in itertools.combinations(names, 2):
        num = num * (MPoly.var(ctx, a) - MPoly.var(ctx, b))
    return num


# -- algebra specs ------------------------------------------------------------


def test_algebra_from_diagram():
    a = AlgebraSpec.from_diagram(from_partition((2, 1)))
    assert a.k == 3
    assert a.filtration == (2,)
    assert a.diagram == from_partition((2, 1))
    assert not a.is_curvilinear()


def test_trivial_and_curvilinear_algebras():
    t = AlgebraSpec.trivial()
    assert (t.k, t.filtration) == (1, ())
    assert t.is_curvilinear()
    m = AlgebraSpec.morin(3)
    assert (m.k, m.filtration) == (3, (1, 1))
    assert m.is_curvilinear()


def test_algebra_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(k=0, filtration=())
    with pytest.raises(ValueError, match="sum to k-1"):
        AlgebraSpec(k=3, filtration=(1,))
    with pytest.raises(ValueError, match="positive"):
        AlgebraSpec(k=2, filtration=(0, 1))


# -- Chern polynomial specs -----------------------------------------------------


def test_normalize_phi_shapes():
    assert normalize_phi(None) == ((Fraction(1), {}),)
    assert normalize_phi(2) == ((Fraction(1), {2: 1}),)
    got = set(
        (coef, tuple(sorted(powers.items())))
        for coef, powers in normalize_phi("c2^2 - 3*c1")
    )
    assert got == {(Fraction(1), ((2, 2),)), (Fraction(-3), ((1, 1),))}


def test_phi_with_a_negative_class_or_power_is_refused():
    # c_{-1} is no class, and c1^-2 no polynomial: neither may reach the
    # builder, which would repeat a class range(-2) times or index chern[-1]
    def value(phi):
        return evaluate(assemble_punctual(AlgebraSpec(3, (2,)), severi_bundle(), SURFACE, phi), SURFACE)

    with pytest.raises(ValueError, match="class index is >= 0"):
        value(-1)
    for phi in ("c1^-2*c2", "c1^-1", "c2 + c1^-1*c3"):
        with pytest.raises(ValueError, match="negative power"):
            value(phi)
    assert value(0) == value(None)  # c_0 = 1 is a class


# -- punctual builder -------------------------------------------------------------


def test_punctual_length_two_structure():
    prob = assemble_punctual(AlgebraSpec.morin(2), severi_bundle(), SURFACE, phi=2)
    ctx = prob.ctx
    assert ctx.residue_vars == ("z1",)
    assert prob.denominator == ()
    # phi, then the inverse square of the coordinate, then the Segre tail
    assert len(prob.factors) == 3
    assert prob.factors[1] == MPoly.var(ctx, "z1", -2)
    assert prob.factors[2] == segre_factor(ctx, "z1", SURFACE)
    L = MPoly.var(ctx, "L")
    z1 = MPoly.var(ctx, "z1")
    # one variable: no difference factor, so the numerator is 1
    assert prob.numerator == MPoly.const(ctx, 1)
    assert prob.factors[0] == elementary_symmetric(2, [L, L + z1])
    folded = fold_factors(prob)
    assert folded.numerator == elementary_symmetric(2, [L, L + z1])
    assert folded.factors == prob.factors[1:]


def test_punctual_pair_sum_denominators():
    prob = assemble_punctual(AlgebraSpec.morin(4), severi_bundle(), SURFACE, phi=None)
    ctx = prob.ctx
    assert all(f.multiplicity == 1 for f in prob.denominator)
    got = {frozenset(f.as_poly().terms.items()) for f in prob.denominator}
    want = {
        frozenset(parse_poly(ctx, t).terms.items())
        for t in ("2*z1 - z2", "2*z1 - z3", "z1 + z2 - z3")
    }
    assert got == want


def test_punctual_no_pair_sums_for_two_equal_weights():
    prob = assemble_punctual(
        AlgebraSpec(k=3, filtration=(2,)), severi_bundle(), SURFACE, phi=2
    )
    assert prob.denominator == ()


def test_punctual_rejects_inhomogeneous_epd():
    bad = AlgebraSpec(k=3, filtration=(1, 1), epd="z1 + 1")
    with pytest.raises(ValueError, match="homogeneous"):
        assemble_punctual(bad, severi_bundle(), SURFACE, phi=None)


def test_punctual_doubled_point_reproduces_one_node_coefficient():
    # independent route to the same integral as the nodal-degree builder
    prob = replace(
        assemble_punctual(AlgebraSpec(k=3, filtration=(2,)), severi_bundle(), SURFACE, phi=2),
        prefactor=Fraction(1, 2),
    )
    sel = evaluate(prob, SURFACE)
    assert sel.remainder.is_zero()
    assert sel.coefficients == severi_coefficient(1).coefficients


# -- geometric builder -------------------------------------------------------------


def test_geometric_single_support_matches_punctual():
    spec = GeometricSubsetSpec(algebras=(AlgebraSpec.morin(2),))
    [(alpha, prob)] = assemble_geometric(spec, severi_bundle(), SURFACE, phi=2)
    assert alpha == ((1,),)
    direct = assemble_punctual(AlgebraSpec.morin(2), severi_bundle(), SURFACE, phi=2)
    assert prob.ctx.residue_vars == direct.ctx.residue_vars
    assert prob.ctx.geometry == direct.ctx.geometry
    assert prob.ctx.dim_cap == direct.ctx.dim_cap
    assert prob.numerator.terms == direct.numerator.terms
    assert prob.denominator == ()
    assert [p.terms for p in prob.factors] == [p.terms for p in direct.factors]
    assert prob.prefactor == direct.prefactor == 1


def test_geometric_two_points_collision_block():
    spec = GeometricSubsetSpec(algebras=(AlgebraSpec.morin(2), AlgebraSpec.morin(2)))
    out = assemble_geometric(spec, severi_bundle(), SURFACE, phi=None)
    assert [alpha for alpha, _ in out] == [((1, 2),), ((1,), (2,))]
    merged = dict(out)[((1, 2),)]
    # the summed support is a length-4 axis on three variables
    assert merged.ctx.residue_vars == ("z1", "z2", "z3")
    # collision dual for two length-2 axes is z1, entering inverted
    # together with the inverse (z1*z2*z3)^2 in one Laurent factor
    assert parse_poly(merged.ctx, "z1^-3*z2^-2*z3^-2") in merged.factors
    split = dict(out)[((1,), (2,))]
    assert split.ctx.residue_vars == ("b1z1", "b2z1")
    names = [n for n, _ in split.ctx.geometry]
    assert {"L_1", "c1_1", "c2_1", "L_2", "c1_2", "c2_2"} <= set(names)
    assert split.ctx.dim_cap == 4


def test_geometric_unknown_dual_raises_and_override_works():
    spec = GeometricSubsetSpec(algebras=(AlgebraSpec.morin(2), AlgebraSpec.morin(4)))
    with pytest.raises(ValueError, match="no dual available"):
        assemble_geometric(spec, severi_bundle(), SURFACE, phi=None)
    patched = GeometricSubsetSpec(
        algebras=spec.algebras, duals={frozenset({1, 2}): "z1*z2"}
    )
    out = assemble_geometric(patched, severi_bundle(), SURFACE, phi=None)
    assert len(out) == 2


def test_geometric_rejects_non_monomial_dual():
    spec = GeometricSubsetSpec(
        algebras=(AlgebraSpec.morin(2), AlgebraSpec.morin(2)),
        duals={frozenset({1, 2}): "z1 + z2"},
    )
    with pytest.raises(ValueError, match="non-monomial dual"):
        assemble_geometric(spec, severi_bundle(), SURFACE, phi=None)


def test_geometric_needs_diagrams_to_merge():
    bare = AlgebraSpec(k=2, filtration=(1,))
    spec = GeometricSubsetSpec(algebras=(bare, bare))
    with pytest.raises(ValueError, match="need diagrams"):
        assemble_geometric(spec, severi_bundle(), SURFACE, phi=None)


# -- point-component builder ---------------------------------------------------------


def test_ghilb_term_count_is_bell_number():
    for k, bell in [(1, 1), (2, 2), (3, 5)]:
        out = assemble_ghilb(k, severi_bundle(), SURFACE, phi=None)
        assert len(out) == bell


def test_ghilb_single_point():
    [(alpha, prob)] = assemble_ghilb(1, severi_bundle(), SURFACE, phi=2)
    assert alpha == ((1,),)
    assert prob.ctx.residue_vars == ()
    assert prob.prefactor == 1
    # phi = c_2 of a rank-1 bundle with no offsets vanishes
    assert prob.factors[0].is_zero()
    assert fold_factors(prob).numerator.is_zero()


def test_ghilb_two_points():
    out = dict(assemble_ghilb(2, severi_bundle(), SURFACE, phi=None))
    merged = out[((1, 2),)]
    assert merged.ctx.residue_vars == ("z1",)
    assert merged.prefactor == -1
    assert MPoly.var(merged.ctx, "z1", -3) in merged.factors
    split = out[((1,), (2,))]
    assert split.prefactor == 1
    assert split.ctx.residue_vars == ()
    names = [n for n, _ in split.ctx.geometry]
    assert "L_1" in names and "L_2" in names


def test_ghilb_triple_point_block():
    out = dict(assemble_ghilb(3, severi_bundle(), SURFACE, phi=None, q_polys={2: "z1*z2"}))
    tri = out[((1, 2, 3),)]
    assert tri.ctx.residue_vars == ("z1", "z2")
    assert tri.prefactor == 1  # (-1)^2
    got = {frozenset(f.as_poly().terms.items()) for f in tri.denominator}
    want = {frozenset(parse_poly(tri.ctx, "2*z1 - z2").terms.items())}
    assert got == want
    # external Q_2 is the factor after phi, and folds into the numerator
    z1z2 = parse_poly(tri.ctx, "z1*z2")
    plain = dict(assemble_ghilb(3, severi_bundle(), SURFACE, phi=None))[((1, 2, 3),)]
    assert tri.numerator == plain.numerator
    assert tri.factors == (plain.factors[0], z1z2) + plain.factors[1:]
    assert fold_factors(tri).numerator == fold_factors(plain).numerator * z1z2


def test_ghilb_four_points_pinned_terms():
    # sign (-1)^(4 - #blocks); Q_1 enters every pair block, Q_2 every triple
    out = assemble_ghilb(
        4, severi_bundle(), SURFACE, phi="c2", q_polys={1: "z1", 2: "z1*z2"}
    )
    got = [
        (alpha, prob.prefactor, format_poly(iterated_residue(prob)))
        for alpha, prob in out
    ]
    pair = "L_1 + L_2 + L_3"
    assert got == [
        (((1, 2, 3, 4),), -1, "0"),
        (((1, 2, 3), (4,)), 1, "1"),
        (((1, 2, 4), (3,)), 1, "1"),
        (((1, 2), (3, 4)), 1, "1"),
        (((1, 2), (3,), (4,)), -1, pair),
        (((1, 3, 4), (2,)), 1, "1"),
        (((1, 3), (2, 4)), 1, "1"),
        (((1, 3), (2,), (4,)), -1, pair),
        (((1, 4), (2, 3)), 1, "1"),
        (((1,), (2, 3, 4)), 1, "1"),
        (((1,), (2, 3), (4,)), -1, pair),
        (((1, 4), (2,), (3,)), -1, pair),
        (((1,), (2, 4), (3,)), -1, pair),
        (((1,), (2,), (3, 4)), -1, pair),
        (
            ((1,), (2,), (3,), (4,)),
            1,
            "L_1*L_2 + L_1*L_3 + L_1*L_4 + L_2*L_3 + L_2*L_4 + L_3*L_4",
        ),
    ]


def test_ghilb_terms_share_one_problem_per_block_size_sequence():
    out = assemble_ghilb(5, severi_bundle(), SURFACE, phi="2*c2 - c1^2")
    assert len(out) == 52
    assert len({id(prob) for _, prob in out}) == 16  # 2^(k-1) block-size sequences
    for alpha, prob in out:
        for beta, other in out:
            same_sizes = [len(b) for b in alpha] == [len(b) for b in beta]
            assert (prob is other) == same_sizes


def test_ghilb_multiplies_out_one_problem_per_block_size_multiset(monkeypatch):
    multiplied = []
    apply_phi = assemble._apply_phi

    def spy(*args):
        multiplied.append(args)
        return apply_phi(*args)

    monkeypatch.setattr(assemble, "_apply_phi", spy)
    out = assemble_ghilb(5, severi_bundle(), SURFACE, phi="2*c2 - c1^2")
    assert len(multiplied) == 7  # p(5) block-size multisets
    sizes = {id(prob): [len(b) for b in alpha] for alpha, prob in out}
    problems = {id(prob): prob for _, prob in out}
    assert len(problems) == 16  # still one object per block-size sequence
    assert sum(prob.relabel_of is None for prob in problems.values()) == 7
    for prob in problems.values():
        if prob.relabel_of is not None:
            source, slots = prob.relabel_of
            assert source.relabel_of is None and problems[id(source)] is source
            assert sorted(sizes[id(source)]) == sorted(sizes[id(prob)])
            assert sizes[id(source)] != sizes[id(prob)]
            assert source.prefactor == prob.prefactor
            assert prob.numerator == source.numerator.relabel(prob.ctx, slots)
            assert prob.factors[0] == source.factors[0].relabel(prob.ctx, slots)


def test_a_relabelled_problem_keeps_its_source_prefactor():
    out = assemble_ghilb(3, severi_bundle(), SURFACE, phi="c2")
    prob = next(prob for _, prob in out if prob.relabel_of is not None)
    with pytest.raises(ValueError, match="source's prefactor"):
        replace(prob, prefactor=Fraction(2))
    assert replace(prob, prefactor=Fraction(2), relabel_of=None).prefactor == 2


def test_assembly_moves_and_multiplies_no_zero_polynomial(monkeypatch):
    # a block's Chern classes stop at its bundle's rank, so no zero class
    # is relabelled into a partition or multiplied in the Whitney sum
    calls = {"relabel": [], "mul": []}
    relabel, mul = MPoly.relabel, MPoly.mul

    def relabel_spy(self, ctx, slots):
        calls["relabel"].append(self.is_zero())
        return relabel(self, ctx, slots)

    def mul_spy(self, other, window=None):
        calls["mul"].append(self.is_zero() or other.is_zero())
        return mul(self, other, window=window)

    monkeypatch.setattr(MPoly, "relabel", relabel_spy)
    monkeypatch.setattr(MPoly, "mul", mul_spy)
    assemble_ghilb(6, severi_bundle(), generic_surface(), "2*c2-c1^2")
    assert calls["relabel"] and calls["mul"]
    assert not any(calls["relabel"]) and not any(calls["mul"])


def _digest(*texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def test_geometric_mixed_spec_pinned_terms():
    # pins recorded before partitions shared problem objects, while phi
    # was still multiplied into the numerator; phi = c2^4 leaves every
    # residue nonzero.  Texts run to 135k characters, so each is pinned by
    # a digest: (prefactor, folded numerator, laurents, residue)
    triv = AlgebraSpec.trivial()
    spec = GeometricSubsetSpec((triv, AlgebraSpec.morin(2), triv, triv))
    out = assemble_geometric(spec, severi_bundle(), SURFACE, phi="c2^4")
    got = [
        (
            alpha,
            prob.prefactor,
            _digest(format_poly(fold_factors(prob).numerator)),
            _digest(*map(format_poly, fold_factors(prob).factors)),
            _digest(format_poly(iterated_residue(prob))),
        )
        for alpha, prob in out
    ]
    assert got == [
        (((1, 2, 3, 4),), 1, "ae4023603e5ff6bb", "f3fecac75acd8052", "0436ff53a1d88862"),
        (((1, 2, 3), (4,)), 1, "5c6a6956e23acfe1", "b878342f2c4cdf41", "fada4fd1060f0017"),
        (((1, 2, 4), (3,)), 1, "5c6a6956e23acfe1", "b878342f2c4cdf41", "fada4fd1060f0017"),
        (((1, 2), (3, 4)), 1, "1752aade34353905", "7610d58504e25e36", "75c9f8a0ec97b980"),
        (((1, 2), (3,), (4,)), 1, "f95e6779500f4064", "f1824d1a74e53810", "b9fcd7cbafa7ed24"),
        (((1, 3, 4), (2,)), 1, "1752aade34353905", "a74a90cfc43ffd20", "f076d5381f11d6d3"),
        (((1, 3), (2, 4)), 1, "a04c664fb267fcf7", "19cfc7cf9da6982c", "bd1304112c3242cf"),
        (((1, 3), (2,), (4,)), 1, "7e86efe4bee509a5", "f830241995e6bdc7", "64fb0acd2440807e"),
        (((1, 4), (2, 3)), 1, "a04c664fb267fcf7", "19cfc7cf9da6982c", "bd1304112c3242cf"),
        (((1,), (2, 3, 4)), 1, "934c75b0b9f296b7", "6ac329b315cd7081", "9d2dfff1cf3e6360"),
        (((1,), (2, 3), (4,)), 1, "66da84dc85aaf5aa", "4bc8782addefe966", "8c78bdfaca2b6253"),
        (((1, 4), (2,), (3,)), 1, "7e86efe4bee509a5", "f830241995e6bdc7", "64fb0acd2440807e"),
        (((1,), (2, 4), (3,)), 1, "66da84dc85aaf5aa", "4bc8782addefe966", "8c78bdfaca2b6253"),
        (((1,), (2,), (3, 4)), 1, "d1dc6f5f1a87a0fd", "ba84b48de5005575", "ccb7718014b01d00"),
        (((1,), (2,), (3,), (4,)), 1, "5bbb8172618f478e", "16000647af2c2bf1", "5d7232cb55a5d6ce"),
    ]
    assert len({id(prob) for _, prob in out}) == 11
    assert all(format_poly(iterated_residue(prob)) != "0" for _, prob in out)


def _renamed(text, mapping):
    return re.sub(r"[A-Za-z_][A-Za-z0-9_]*", lambda m: mapping.get(m.group(0), m.group(0)), text)


def joint_problem(spec, alpha, bundle, surface, phi):
    """A partition's problem built whole in its joint context, block by block.

    The reference for the block-piece route: each block's epd and Segre
    text is renamed into the block's variables and geometry copy, and phi
    is evaluated on the elementary symmetric polynomials of all joint
    twisted roots.  Returns the context, the difference products times
    the epds, phi, the forms and the Laurent factors.
    """
    t = len(alpha)
    blocks = [_sum_block(spec, block, surface.dim) for block in alpha]
    names, geometry, copies = [], [], []
    for l, (_, weights, _, _) in enumerate(blocks):
        sfx = "" if t == 1 else "_%d" % (l + 1)
        zs = ["z%d" % i if t == 1 else "b%dz%d" % (l + 1, i) for i in range(1, len(weights) + 1)]
        symbols = {n: n + sfx for n in bundle.roots + tuple(n for n, _ in surface.chern_symbols)}
        copies.append((zs, symbols))
        names.extend(zs)
        geometry.extend((symbols[r], 1) for r in bundle.roots)
        geometry.extend((symbols[n], d) for n, d in surface.chern_symbols)
    ctx = VariableContext(tuple(names), tuple(geometry), surface.dim * t)
    num = MPoly.const(ctx, 1)
    forms, laurents, troots = [], [], []
    for (_, weights, epd, (exps, coef)), (zs, symbols) in zip(blocks, copies):
        z = [MPoly.var(ctx, n) for n in zs]
        for i, j in itertools.permutations(range(len(zs)), 2):
            if weights[i] <= weights[j]:
                num = num * (z[i] - z[j])
        if epd is not None:
            num = num * parse_poly(ctx, _renamed(epd, {"z%d" % (i + 1): n for i, n in enumerate(zs)}))
        for i, j, m in itertools.product(range(len(zs)), repeat=3):
            if i <= j and weights[i] + weights[j] <= weights[m]:
                forms.append(linear_form(ctx, z[i] + z[j] - z[m]))
        if zs or coef != 1:
            laurents.append(parse_poly(ctx, "*".join(["%s" % coef] + ["%s^%d" % ne for ne in zip(zs, exps)])))
        copy = SurfaceModel(
            surface.name,
            surface.dim,
            tuple((symbols[n], d) for n, d in surface.chern_symbols),
            tuple(_renamed(text, symbols) for text in surface.segre_values),
        )
        laurents.extend(segre_factor(ctx, n, copy) for n in zs)
        own = BundleModel(bundle.rank, tuple(symbols[r] for r in bundle.roots))
        troots.extend(twisted_roots(ctx, own, z))
    value = MPoly.zero(ctx)
    for c, powers in normalize_phi(phi):
        term = MPoly.const(ctx, c)
        for m, power in powers.items():
            term = term * elementary_symmetric(m, troots) ** power
        value = value + term
    return ctx, num, value, forms, laurents


def assert_relabelled_residues_are_direct(out):
    """Each relabel's residue, its source's relabelled, is its own residue."""
    relabels = {id(prob): prob for _, prob in out if prob.relabel_of is not None}
    for prob in relabels.values():
        source, slots = prob.relabel_of
        assert iterated_residue(source).relabel(prob.ctx, slots) == iterated_residue(prob)
    return len(relabels)


def assert_matches_joint_route(out, spec, bundle, surface, phi):
    seen = set()
    for alpha, prob in out:
        if id(prob) in seen:
            continue
        seen.add(id(prob))
        ctx, num, value, forms, laurents = joint_problem(spec, alpha, bundle, surface, phi)
        assert (prob.ctx.names, prob.ctx.degrees, prob.ctx.dim_cap) == (ctx.names, ctx.degrees, ctx.dim_cap)
        assert prob.ctx == ctx
        assert prob.factors[0] == value
        folded = fold_factors(prob)
        assert folded.numerator == num * value
        assert list(prob.denominator) == forms
        assert list(folded.factors) == laurents


@pytest.mark.parametrize("q_polys", [None, {1: "z1", 2: "z1*z2", 3: "z1^2*z3"}])
@pytest.mark.parametrize("phi", ["c2", "2*c2 - c1^2", "c1^3*c2 + c3^2"])
def test_block_pieces_match_the_joint_route(phi, q_polys):
    bundle = severi_bundle()
    for k in range(1, 6):
        q = {m: text for m, text in (q_polys or {}).items() if m < k}
        out = assemble_ghilb(k, bundle, SURFACE, phi, q)
        spec = GeometricSubsetSpec(
            (AlgebraSpec.trivial(),) * k,
            block_epds={
                frozenset(b): text
                for m, text in q.items()
                for b in itertools.combinations(range(1, k + 1), m + 1)
            },
        )
        assert_matches_joint_route(out, spec, bundle, SURFACE, phi)
        for alpha, prob in out:
            assert prob.prefactor == (-1) ** (k - len(alpha))


@pytest.mark.parametrize("q_polys", [None, {1: "z1", 2: "z1*z2", 3: "z1^2*z3"}])
@pytest.mark.parametrize("phi", ["c2", "2*c2 - c1^2", "c1^3*c2 + c3^2"])
def test_relabelled_residues_match_direct_elimination(phi, q_polys):
    relabels = []
    for k in range(1, 6):
        q = {m: text for m, text in (q_polys or {}).items() if m < k}
        out = assemble_ghilb(k, severi_bundle(), SURFACE, phi, q)
        relabels.append(assert_relabelled_residues_are_direct(out))
    assert relabels == [0, 0, 1, 3, 9]  # 2^(k-1) - p(k)


def test_block_pieces_match_the_joint_route_on_a_mixed_spec():
    triv = AlgebraSpec.trivial()
    spec = GeometricSubsetSpec((triv, AlgebraSpec.morin(2), triv, triv))
    out = assemble_geometric(spec, severi_bundle(), SURFACE, phi="c2^4")
    assert_matches_joint_route(out, spec, severi_bundle(), SURFACE, "c2^4")
    assert all(prob.prefactor == 1 for _, prob in out)
    # e.g. {1,3}{2,4} relabels {1,2}{3,4}: one two-point block holds the
    # double point, the other two simple points, in either order
    assert assert_relabelled_residues_are_direct(out) == 4


def test_every_assembly_and_elimination_product_is_budgeted(monkeypatch):
    # MPoly.mul takes no budget: every product holds the kernel's, so a
    # budget one below the largest product seen refuses the same work
    builds = [
        lambda: [prob for _, prob in assemble_ghilb(4, severi_bundle(), SURFACE, "c1^3*c2 + c3^2")],
        lambda: [assemble_punctual(AlgebraSpec(6, (2, 2, 1)), severi_bundle(), SURFACE, "c2")],
        lambda: [assemble_severi(2)],
    ]
    sizes = []
    mul = MPoly.mul

    def spy(self, other, window=None):
        out = mul(self, other, window=window)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(MPoly, "mul", spy)
    for build in builds:
        sizes.clear()
        for prob in build():
            iterated_residue(prob)
        with monkeypatch.context() as budget:
            budget.setattr("tautres.poly.DEFAULT_TERM_BUDGET", max(sizes) - 1)
            with pytest.raises(TermBudgetExceeded):
                for prob in build():
                    iterated_residue(prob)


@pytest.mark.parametrize(
    "budget,build,message",
    [
        # a power of phi: the chain c2 * c2 * c2 of the block's 7-term c2
        # (19 terms, then 34) on the way to c2^4
        (
            30,
            lambda: assemble_punctual(AlgebraSpec(4, (2, 1)), severi_bundle(), SURFACE, "c2^4"),
            "intermediate size 32 exceeds budget 30 while assembling the problems",
        ),
        # the Segre factor of the one variable, a Laurent piece
        (
            1,
            lambda: assemble_punctual(AlgebraSpec(2, (1,)), severi_bundle(), SURFACE, "c2"),
            "intermediate size 2 exceeds budget 1 while assembling the problems",
        ),
        (
            30,
            lambda: assemble_ghilb(4, severi_bundle(), SURFACE, "c1^3*c2 + c3^2"),
            "intermediate size 32 exceeds budget 30 while assembling the problems",
        ),
        (
            30,
            lambda: assemble_severi(2),
            "intermediate size 32 exceeds budget 30 while assembling the problem",
        ),
    ],
    ids=["punctual-phi-power", "punctual-segre", "ghilb", "severi"],
)
def test_assembly_over_budget_names_the_layer(monkeypatch, budget, build, message):
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", budget)
    with pytest.raises(TermBudgetExceeded, match="^%s$" % re.escape(message)):
        build()


def test_support_with_too_many_partitions_is_refused_unenumerated(monkeypatch):
    def enumerated(n):
        raise AssertionError("set partitions of %d points were listed" % n)

    monkeypatch.setattr("tautres.assemble.set_partitions", enumerated)
    with pytest.raises(TermBudgetExceeded, match="13 points has 27644437 set partitions"):
        assemble_ghilb(13, severi_bundle(), SURFACE, phi=None)


def test_ghilb_rejects_bad_k():
    with pytest.raises(ValueError):
        assemble_ghilb(0, severi_bundle(), SURFACE, phi=None)


# -- nodal-degree builder ---------------------------------------------------------


def test_severi_one_node_structure():
    prob = assemble_severi(1)
    ctx = prob.ctx
    assert ctx.residue_vars == ("z10", "z01")
    assert prob.denominator == ()
    assert prob.prefactor == SEVERI_PREFACTOR[1]
    assert prob.prefactor == Fraction(-1, 2)
    diff = MPoly.var(ctx, "z10") - MPoly.var(ctx, "z01")
    roots = twisted_roots(ctx, severi_bundle(), [MPoly.var(ctx, "z10"), MPoly.var(ctx, "z01")])
    assert prob.numerator == diff * diff * elementary_symmetric(2, roots)
    # built folded: the factors are the Laurent ones
    assert len(prob.factors) == 3
    assert prob.factors[0] == MPoly(ctx, {(-2, -2, 0, 0, 0): 1})


def test_severi_two_node_structure():
    prob = assemble_severi(2)
    ctx = prob.ctx
    assert ctx.residue_vars == ("z10", "z01", "z20", "z11", "z30")
    assert prob.prefactor == -1
    texts = (
        "2*z10 - z20",
        "z10 + z20 - z30",
        "2*z10 - z30",
        "z10 + z01 - z30",
        "z10 + z01 - z11",
        "2*z10 - z11",
    )
    got = [frozenset(f.as_poly().terms.items()) for f in prob.denominator]
    want = [frozenset(parse_poly(ctx, t).terms.items()) for t in texts]
    assert sorted(got, key=repr) == sorted(want, key=repr)
    # one Laurent monomial, the collision dual's z10 folded in, then the
    # Segre factors in contour order
    assert len(prob.factors) == 6
    assert format_poly(prob.factors[0]) == "z10^-3*z01^-2*z20^-2*z11^-2*z30^-2"
    assert list(prob.factors[1:]) == [segre_factor(ctx, n, SURFACE) for n in ctx.residue_vars]
    # independent numerator rebuild in the refined variable order
    refined = ("z10", "z20", "z30", "z01", "z11")
    num = difference_product(ctx, refined)
    roots = twisted_roots(ctx, severi_bundle(), [MPoly.var(ctx, n) for n in refined])
    num = num * elementary_symmetric(4, roots)
    assert prob.numerator == num


def test_severi_argument_validation():
    with pytest.raises(ValueError):
        assemble_severi(0)
    with pytest.raises(ValueError, match="built in"):
        assemble_severi(1, epd="z1")
    with pytest.raises(ValueError, match="built in"):
        assemble_severi(2, prefactor=Fraction(1))


def test_severi_template_beyond_two_warns():
    with pytest.warns(UserWarning, match="uncalibrated"):
        prob = assemble_severi(3, epd="z10^2", prefactor=Fraction(5))
    ctx = prob.ctx
    assert ctx.residue_vars == (
        "z10", "z01", "z20", "z11", "z30", "z21", "z40", "z50",
    )
    assert prob.prefactor == 5
    # the rule of the six r=2 forms: z_i + z_j - z_m per w(i) + w(j) <= w(m)
    assert len(prob.denominator) == 34
    got = {frozenset(f.as_poly().terms.items()) for f in prob.denominator}
    for text in ("2*z10 - z11", "z10 + z01 - z30", "2*z01 - z21"):
        assert frozenset(parse_poly(ctx, text).terms.items()) in got
    # the problem text as the CLI prints it: all but the laurent lines as
    # the refined-order builder gave them, the laurent lines one monomial
    # and then the Segre factors in contour order
    lines = cli._problem_lines(prob)
    laurent = [line for line in lines if line.startswith("laurent ")]
    rest = "\n".join(line for line in lines if not line.startswith("laurent "))
    assert hashlib.sha256(rest.encode()).hexdigest() == (
        "b4282220070ac4d7de92b231e9e8ed9544c866df354abf1a3880d31ea0514656"
    )
    assert len(laurent) == 9
    assert laurent[0] == "laurent z10^-3*z01^-2*z20^-3*z11^-2*z30^-2*z21^-2*z40^-2*z50^-2"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "fb60c419e05c152563fb224364a0d99ff64c593efd1049e5faf585d2a8200bb2"
    )


# -- published coefficient maps ----------------------------------------------------


def test_one_node_coefficient_map():
    sel = severi_coefficient(1)
    assert sel.remainder.is_zero()
    assert sel.coefficients == {
        "L^2": Fraction(3),
        "L*c1": Fraction(2),
        "c1^2": Fraction(0),
        "c2": Fraction(1),
    }


def test_two_node_coefficient_map():
    sel = severi_coefficient(2)
    assert sel.remainder.is_zero()
    assert sel.coefficients == {
        "L^2": Fraction(-42),
        "L*c1": Fraction(-39),
        "c1^2": Fraction(-6),
        "c2": Fraction(-7),
    }
