"""Problem assembly: from algebra and geometry data to ResidueProblems.

One builder covers every point configuration.  assemble_geometric takes
a geometric subset, support algebras A_1..A_s, and returns one problem
per set partition of the support; each block stands for the sum algebra
of its points and brings its difference factors, pair-sum denominators,
epd, Laurent monomial (z_1...z_m)^(-n) / dual, Segre factors and its own
copy of the geometry symbols.  Blocks share no variable, so each distinct
block is built once per call, in a block-local context (z1..zm and one
unsuffixed copy of the geometry), and a partition's problem places its
blocks' pieces into the joint context by slot map (MPoly.relabel).  The
bundle's Chern classes are those of the partition's twisted roots theta
and theta + z_i, every block's roots placed together.  Two cases are
specializations of it:

  * assemble_punctual: the punctual subset of one algebra, a geometric
    subset with a single support point.
  * assemble_ghilb: the geometric (smoothable) component, k trivial
    support algebras; each block is a Morin algebra with w(i) = i, its
    Q_m enters as the block epd, and the prefactor carries the sign.

A partition's problem depends only on the data of its blocks in order:
epd, weights and collision dual.  Block names, geometry
suffixes and dim_cap follow from block position and count.  Both
builders therefore return the same ResidueProblem object for every
partition with equal ordered block data, built once; for k points
assemble_ghilb returns Bell(k) terms over 2^(k-1) problems, one per
ordered block-size sequence.  Consumers may memoize by object identity.
A problem's numerator is the product of its blocks' difference
factors.  phi at the roots' Chern classes and the block epds go first in
its factors, then the Laurent factors; iterated_residue multiplies each in
at the elimination step of its outermost variable, under that step's
window, and fold_factors multiplies the polynomial ones out for a
caller that wants the whole product.
Orders of one multiset of blocks differ only by renaming, so only the
first order seen is built (p(k) of the 2^(k-1) for assemble_ghilb); each
other order relabels its numerator and phi and says so in its
relabel_of, so that its residue can be relabelled too.
A support with more set partitions than DEFAULT_TERM_BUDGET is refused
before any is enumerated.

assemble_severi builds the r-nodal problem as the punctual problem of
the Severi algebra (box x^a*y^b weighs 3a + 5b), whose one block goes
through the same block builder and is then folded: its numerator is the
whole template, one product of phi, the epd and the pair factors.  The
sign between its contour-order difference product and the published
refined-order one is folded into the block epd.  r = 1, 2 carry
prefactors fixed by the classical a_1 and a_2; r >= 3 warns.

Difference-factor convention: the numerator takes one factor (z_i - z_j)
for every ordered pair i != j with w(i) <= w(j).  Equal weights thus
contribute -(z_i - z_j)^2, strictly increasing weights a single factor.
A block lists them in Vandermonde order, by (-min(i, j), -max(i, j)),
in one row per min(i, j): each prefix is the difference product of the
last few variables, so the running product of MPoly.product stays small.

A TermBudgetExceeded raised while a builder assembles its problems
says so in its message.
"""

from __future__ import annotations

import itertools
import re
import warnings
from fractions import Fraction

from . import poly
from .chern import (
    BundleModel,
    SurfaceModel,
    TopDegreeSelection,
    chern_classes,
    generic_surface,
    segre_factor,
    select_top_degree,
    twisted_roots,
)
from .diagrams import (
    DiagramND,
    curvilinear_sum,
    degree_filtration,
    lengths,
    orient_well,
    set_partitions,
    weight_map,
)
from .multidegree import balanced_dual_text, nakajima_dual
from .poly import LinearForm, MPoly, TermBudgetExceeded, VariableContext, format_poly, parse_poly
from .record import Record, replace
from .residue import ResidueProblem, iterated_residue


class AlgebraSpec(Record):
    """A finite local algebra through its filtration data.

    k: vector-space dimension of the algebra.
    filtration: dimension vector of the maximal-ideal quotient filtration,
        summing to k - 1.
    epd: dual of the algebra's punctual locus inside its ambient
        parameter space, canonical text in z1..z_{k-1} (None means 1).
    diagram: the monomial staircase, when the algebra is monomial;
        required for curvilinear sums in assemble_geometric.
    """

    k: int
    filtration: tuple
    epd: str | None = None
    diagram: DiagramND | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if sum(self.filtration) != self.k - 1:
            raise ValueError("filtration must sum to k-1")
        if any(d < 1 for d in self.filtration):
            raise ValueError("filtration entries must be positive")

    @classmethod
    def from_diagram(cls, diag: DiagramND, epd: str | None = None) -> "AlgebraSpec":
        return cls(
            k=len(diag),
            filtration=degree_filtration(diag),
            epd=epd,
            diagram=diag,
        )

    @classmethod
    def trivial(cls, dim: int = 2) -> "AlgebraSpec":
        return cls.from_diagram(DiagramND(dim, frozenset({(0,) * dim})))

    @classmethod
    def morin(cls, order: int, dim: int = 2) -> "AlgebraSpec":
        """The curvilinear algebra of the given vector-space dimension."""
        boxes = {(i,) + (0,) * (dim - 1) for i in range(order)}
        return cls.from_diagram(DiagramND(dim, frozenset(boxes)))

    def is_curvilinear(self) -> bool:
        if self.diagram is None:
            return self.k <= 2 and all(d == 1 for d in self.filtration)
        if self.k == 1:
            return True
        return lengths(orient_well(self.diagram)) == (self.k - 1,) + (0,) * (
            self.diagram.dim - 1
        )


# -- Chern polynomial specs ---------------------------------------------

_CHERN_SYM = re.compile(r"\bc(\d+)\b")


def normalize_phi(phi):
    """Normalize a Chern polynomial spec to ((coef, {m: power}), ...).

    Accepts None (constant 1), a class index m >= 0 (the class c_m), or
    canonical text in symbols c1, c2, ... with nonnegative powers.
    """
    if phi is None:
        return ((Fraction(1), {}),)
    if isinstance(phi, int):
        if phi < 0:
            raise ValueError("phi names the class c_%d; a class index is >= 0" % phi)
        return ((Fraction(1), {phi: 1}),)
    ms = sorted({int(m) for m in _CHERN_SYM.findall(phi)})
    ctx = VariableContext(geometry=tuple(("c%d" % m, 1) for m in ms))
    out = []
    for key, coef in parse_poly(ctx, phi).terms.items():
        if min(key, default=0) < 0:
            raise ValueError("phi %r has a negative power; it must be a polynomial" % phi)
        out.append((coef, {ms[i]: e for i, e in enumerate(key) if e}))
    return tuple(out) if out else ((Fraction(0), {}),)


def _apply_phi(ctx: VariableContext, phi_terms, roots) -> MPoly:
    """The normalized Chern polynomial phi_terms at the Chern classes of roots.

    A class past the root count is 0, so a term that has it drops out.
    """
    d = max((m for _, powers in phi_terms for m in powers), default=0)
    chern = chern_classes(ctx, roots, min(d, len(roots)))
    total = MPoly.zero(ctx)
    for coef, powers in phi_terms:
        if any(m >= len(chern) for m in powers):
            continue
        classes = [chern[m] for m, p in sorted(powers.items()) for _ in range(p)]
        total = total + MPoly.product(ctx, [MPoly.const(ctx, coef), *classes])
    return total


# -- shared factor builders ----------------------------------------------


def _difference_rows(ctx: VariableContext, names, weights) -> tuple:
    """(z_i - z_j) over ordered pairs i != j with w(i) <= w(j), in Vandermonde order, by rows."""
    z = [MPoly.var(ctx, n) for n in names]
    pairs = [(i, j) for i, j in itertools.permutations(range(len(z)), 2) if weights[i] <= weights[j]]
    pairs.sort(key=lambda ij: (-min(ij), -max(ij)))
    return tuple(tuple(z[i] - z[j] for i, j in row) for _, row in itertools.groupby(pairs, key=min))


def _pair_sums(weights) -> tuple:
    """Index triples (i, j, m) of the forms z_i + z_j - z_m, i <= j, w(i) + w(j) <= w(m)."""
    k = len(weights)
    return tuple(
        (i, j, m)
        for i in range(k)
        for j in range(i, k)
        for m in range(k)
        if weights[i] + weights[j] <= weights[m]
    )


def _pair_sum_forms(ctx: VariableContext, slots, triples) -> list:
    """The LinearForms of pair-sum triples, variable i of a triple in ctx slot slots[i]."""
    forms = []
    for triple in triples:
        coeffs = [Fraction(0)] * ctx.k
        for i, a in zip(triple, (1, 1, -1)):
            coeffs[slots[i]] += a
        forms.append(LinearForm(ctx, tuple(coeffs), MPoly.zero(ctx), 1))
    return forms


def _check_epd(p: MPoly, what: str) -> MPoly:
    """A dual is a nonzero homogeneous polynomial: no negative exponents, one degree."""
    if p.is_zero():
        raise ValueError("%s is the zero polynomial; a nonempty locus has a nonzero dual" % what)
    if any(e < 0 for key in p.terms for e in key):
        raise ValueError("%s has a negative exponent" % what)
    degs = {sum(key) for key in p.terms}
    if len(degs) > 1:
        raise ValueError("%s is not homogeneous" % what)
    return p


# -- geometric subsets ----------------------------------------------------


class GeometricSubsetSpec(Record):
    """Support algebras A_1..A_s plus optional overrides for merged blocks.

    block_epds: map from a frozenset block of indices to canonical text
        for the dual of the block's sum algebra (defaults to 1).
    duals: map from a frozenset block to canonical text for the
        collision dual; defaults to the Morin table or, for blocks of
        equal-dimension algebras, the balanced Euler factor.
    """

    algebras: tuple
    block_epds: dict | None = None
    duals: dict | None = None

    def block_epd(self, block) -> str | None:
        if self.block_epds:
            return self.block_epds.get(frozenset(block))
        return None

    def block_dual(self, block) -> str:
        if self.duals and frozenset(block) in self.duals:
            return self.duals[frozenset(block)]
        algs = [self.algebras[x - 1] for x in block]
        if len(algs) == 1:
            return "1"
        if all(a.is_curvilinear() for a in algs):
            text = nakajima_dual([a.k for a in algs])
            if text is not None:
                return text
        dims = {a.k for a in algs}
        if len(dims) == 1:
            return balanced_dual_text(len(algs))
        raise ValueError(
            "no dual available for block %r; supply one via duals=" % (sorted(block),)
        )


def _sum_block(spec: GeometricSubsetSpec, block, power: int):
    """(names, weights, epd_text, (laurent_exps, coef)) of one block.

    names are z1..zm and weights their filtration weights; epd_text is the
    sum algebra's epd (None means 1), text so that the tuple hashes; the
    Laurent monomial (z_1...z_m)^(-power) * dual^(-1) comes as exponents.
    """
    algs = [spec.algebras[x - 1] for x in block]
    if len(algs) == 1:
        block_alg = algs[0]
    else:
        digs = [a.diagram for a in algs]
        if any(d is None for d in digs):
            raise ValueError("algebras in block %r need diagrams to be summed" % (block,))
        block_alg = AlgebraSpec.from_diagram(curvilinear_sum(digs), epd=spec.block_epd(block))
    m = block_alg.k - 1
    names = tuple("z%d" % i for i in range(1, m + 1))
    wmap = weight_map(block_alg.filtration)
    weights = tuple(wmap[i] for i in range(1, m + 1))
    dual_text = spec.block_dual(block)
    dual = parse_poly(VariableContext(residue_vars=names), dual_text)
    if len(dual) != 1:
        raise ValueError("non-monomial dual %r unsupported" % dual_text)
    (key, coef), = dual.terms.items()
    return names, weights, block_alg.epd, (tuple(-power - e for e in key), 1 / coef)


class _BlockPieces(Record):
    """One block's share of every problem it occurs in, in its own context.

    ctx: the block's residue variables and one unsuffixed copy of the
        bundle and surface symbols.
    differences: the difference factors in Vandermonde order, by rows.
    epd: the block epd, or None for 1; it follows phi among the factors.
    pair_sums: index triples of the pair-sum denominators.
    laurents: the Laurent monomial, when not 1, then one Segre factor
        per variable.
    roots: the block's twisted roots theta and theta + z_i.
    """

    ctx: VariableContext
    differences: tuple
    epd: MPoly | None
    pair_sums: tuple
    laurents: tuple
    roots: tuple


def _block_pieces(block_data, bundle, surface, whole: bool) -> _BlockPieces:
    """Build the pieces of one block from its _sum_block data.

    The block of the whole support occurs only in the one-block
    partition, whose context is this block-local one: it gets that
    problem's dim_cap and its pieces enter the problem as they are.  Any
    other block occurs only beside others, so its context has no cap and
    MPoly.relabel cuts its pieces to the joint one.
    """
    names, weights, epd_text, (exps, coef) = block_data
    geometry = tuple((r, 1) for r in bundle.roots) + tuple(surface.chern_symbols)
    ctx = VariableContext(names, geometry, surface.dim if whole else None)
    differences = _difference_rows(ctx, names, weights)
    epd = None
    if epd_text is not None:
        epd = _check_epd(parse_poly(ctx, epd_text), "epd %r" % epd_text)
    laurents = []
    if names or coef != 1:
        laurents.append(MPoly(ctx, {exps + (0,) * len(geometry): coef}))
    laurents.extend(segre_factor(ctx, n, surface) for n in names)
    roots = tuple(twisted_roots(ctx, bundle, [MPoly.var(ctx, n) for n in names]))
    return _BlockPieces(ctx, differences, epd, _pair_sums(weights), tuple(laurents), roots)


def _check_partition_count(s: int) -> None:
    """Refuse a support of s points with more set partitions than the budget.

    Row n of the Bell triangle ends in Bell(n + 1), and the rows grow, so
    the count stops at the first row over the kernel's term budget.
    """
    budget = poly.DEFAULT_TERM_BUDGET
    row = [1]
    while len(row) < s:
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        if row[-1] > budget:
            raise TermBudgetExceeded(
                "a support of %d points has %s%d set partitions, more than the "
                "term budget %d, while assembling the problems"
                % (s, "" if len(row) == s else "at least ", row[-1], budget)
            )


def assemble_geometric(
    spec: GeometricSubsetSpec,
    bundle: BundleModel,
    surface: SurfaceModel,
    phi,
):
    """One (partition, ResidueProblem) per set partition of the support.

    Each block of a partition stands for the sum algebra of its support
    algebras, with m variables (its length minus one) and its own copy of
    the geometry symbols.  It contributes the difference factors and
    pair-sum denominators of its filtration weights, its epd as a
    factor, the Laurent monomial (z_1...z_m)^(-n) / dual (n the
    surface dimension, dual the collision dual) and a Segre factor per
    variable.  Unknown collision duals raise; they are never invented.

    Each distinct block is built once, in a block-local context (see
    _block_pieces), and a partition's problem is assembled from its
    blocks' pieces.  A partition's problem depends only on its blocks'
    data in order: epd, weights and collision dual.  Partitions
    with equal ordered block data get the same problem object, built
    once, so consumers may memoize by object identity.  Two orders of one
    multiset of blocks give the same problem up to renaming: the first
    order seen is built, and each later order relabels that problem's
    numerator and phi and records the source and slot map as its
    relabel_of, so that its residue is a relabel as well.

    A support with more set partitions than DEFAULT_TERM_BUDGET raises
    TermBudgetExceeded before any partition is enumerated.  A product
    that outgrows the budget raises it with this layer named.
    """
    s = len(spec.algebras)
    _check_partition_count(s)
    phi_terms = normalize_phi(phi)
    index = {}  # support block -> index of its pieces
    by_content = {}  # blocks with equal algebras, epd and dual override share pieces
    by_data = {}  # blocks with equal _sum_block data share pieces
    pieces = []
    problems = {}  # tuple of piece indices -> the one problem built for it
    first = {}  # sorted tuple of piece indices -> the first order seen, its problem
    out = []
    try:
        for alpha in set_partitions(s):
            for block in alpha:
                if block not in index:
                    content = (
                        tuple(spec.algebras[x - 1] for x in block),
                        spec.block_epd(block),
                        spec.duals.get(frozenset(block)) if spec.duals else None,
                    )
                    i = by_content.get(content)
                    if i is None:
                        data = _sum_block(spec, block, surface.dim)
                        i = by_data.get(data)
                        if i is None:
                            i = by_data[data] = len(pieces)
                            pieces.append(_block_pieces(data, bundle, surface, len(block) == s))
                        by_content[content] = i
                    index[block] = i
            key = tuple(index[block] for block in alpha)
            if key not in problems:
                multiset = tuple(sorted(key))
                problems[key] = _partition_problem(
                    pieces, key, phi_terms, surface.dim, first.get(multiset)
                )
                first.setdefault(multiset, (key, problems[key]))
            out.append((alpha, problems[key]))
    except TermBudgetExceeded as exc:
        raise TermBudgetExceeded("%s while assembling the problems" % exc) from None
    return out


def _joint_slots(blocks) -> list:
    """Per block, the joint context's slots of its block-local ones.

    Block l's residue names follow the earlier blocks' residue names, and
    its geometry copy the earlier copies, after every residue name.
    """
    out = []
    z, g = 0, sum(p.ctx.k for p in blocks)
    for p in blocks:
        m, n = p.ctx.k, p.ctx.nvars - p.ctx.k
        out.append((*range(z, z + m), *range(g, g + n)))
        z, g = z + m, g + n
    return out


def _partition_problem(pieces, key, phi_terms, dim: int, source=None) -> ResidueProblem:
    """The problem of one partition, its blocks' pieces being pieces[i] for i in key.

    A one-block partition's context is its block's own, so the pieces
    enter as built.  Otherwise block l gets its block-local residue names
    prefixed b<l> (b2z1, ...) and the geometry copy suffixed _<l>, laid
    out by _joint_slots; the joint dim_cap is dim times the block count,
    and _block_problem places each piece by that slot map.

    source, when given, is (key, problem) of an earlier order of the same
    blocks.  Forms, epds and Laurent factors are still placed from the
    pieces, but the numerator and phi are the source's relabelled, and
    the problem keeps that slot map as relabel_of.  This is exact.
    Blocks share no residue variable, form or geometry copy; a
    reordering keeps the variable order inside each block and the joint
    cap dim * t.  So the two problems are one rational function up to
    renaming.  Elimination expands each form in its own block's
    variables only, so it commutes with the renaming, and the dim_cap
    cut is a quotient by an ideal, whatever the order of the products.
    Equal pieces are matched in order: the integrand is symmetric under
    swapping two equal blocks.
    """
    blocks = [pieces[i] for i in key]
    t = len(blocks)
    if t == 1:
        ctx = blocks[0].ctx
        slot_maps = [range(ctx.nvars)]
    else:
        names = [tuple("b%d" % (l + 1) + n for n in p.ctx.residue_vars) for l, p in enumerate(blocks)]
        copies = [
            tuple((n + "_%d" % (l + 1), deg) for n, deg in p.ctx.geometry)
            for l, p in enumerate(blocks)
        ]
        ctx = VariableContext(sum(names, ()), sum(copies, ()), dim * t)
        slot_maps = _joint_slots(blocks)
    relabel_of = None
    if source is not None:
        source_key, source_problem = source
        source_maps = _joint_slots([pieces[i] for i in source_key])
        slots = [None] * ctx.nvars
        # a stable sort by piece lines up equal pieces in order
        for a, b in zip(*(sorted(range(t), key=k.__getitem__) for k in (source_key, key))):
            for x, y in zip(source_maps[a], slot_maps[b]):
                slots[x] = y
        relabel_of = (source_problem, tuple(slots))
    return _block_problem(ctx, list(zip(blocks, slot_maps)), phi_terms, relabel_of)


def _block_problem(ctx, placed, phi_terms, relabel_of=None, fold=False) -> ResidueProblem:
    """The problem of blocks placed in ctx, each as (pieces, slot map).

    A piece already in ctx (a one-block problem) enters as built, any
    other is placed by MPoly.relabel.  The forms are the blocks' pair
    sums.  The numerator is one product of the blocks' difference
    factors; the factors are phi at the Chern classes of the roots, all
    the blocks' twisted roots placed together, then the blocks' epds,
    then their Laurent factors.

    relabel_of, (source, slots), takes the numerator and phi as the
    source's relabelled instead.  fold makes the numerator one product of
    phi, the epds and each row of difference factors multiplied out,
    leaving only the Laurent factors: phi is never multiplied into the
    whole difference product, which can be many times its size.
    """

    def place(piece, slots):
        return piece if piece.ctx is ctx else piece.relabel(ctx, slots)

    forms = [f for p, slots in placed for f in _pair_sum_forms(ctx, slots, p.pair_sums)]
    epds = [place(p.epd, slots) for p, slots in placed if p.epd is not None]
    laurents = [place(f, slots) for p, slots in placed for f in p.laurents]
    if relabel_of is not None:
        source, slots = relabel_of
        num = source.numerator.relabel(ctx, slots)
        factors = (source.factors[0].relabel(ctx, slots), *epds, *laurents)
    else:
        roots = [place(x, slots) for p, slots in placed for x in p.roots]
        phi = _apply_phi(ctx, phi_terms, roots)
        rows = [[place(f, slots) for f in row] for p, slots in placed for row in p.differences]
        if fold:
            num = MPoly.product(ctx, [phi, *epds, *(MPoly.product(ctx, row) for row in rows)])
            factors = tuple(laurents)
        else:
            num = MPoly.product(ctx, [f for row in rows for f in row])
            factors = (phi, *epds, *laurents)
    return ResidueProblem(
        ctx=ctx, numerator=num, denominator=tuple(forms), factors=factors, relabel_of=relabel_of
    )


def assemble_punctual(
    algebra: AlgebraSpec,
    bundle: BundleModel,
    surface: SurfaceModel,
    phi,
) -> ResidueProblem:
    """Residue problem for the punctual subset of one algebra.

    This is the geometric subset with the algebra as its only support
    point: its single partition is one block holding the algebra itself,
    with no collision dual.
    """
    [(_, problem)] = assemble_geometric(
        GeometricSubsetSpec((algebra,)), bundle, surface, phi
    )
    return problem


def assemble_ghilb(
    k: int,
    bundle: BundleModel,
    surface: SurfaceModel,
    phi,
    q_polys: dict | None = None,
):
    """Terms for the geometric component of the length-k Hilbert scheme.

    This is the geometric subset of k trivial support algebras.  A block
    of size m+1 sums to the Morin algebra, weights w(i) = i, with dual
    z_1...z_m: numerator (-1)^m * prod_{i<j}(z_i - z_j) * Q_m,
    denominator prod_{i+j<=l<=m}(z_i + z_j - z_l) * (z_1...z_m)^(n+1).
    The Q_m (1 <= m < k) are external inputs, homogeneous canonical text
    in z1..zm, default 1; each is the block epd of every block of size m+1,
    a factor beside phi, which the numerator holds multiplied out only
    after fold_factors.

    One (partition, problem) per set partition, as assemble_geometric
    gives them: partitions with equal ordered block sizes share one
    signed problem object, and a relabel points at its source's signed
    copy.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q_polys = q_polys or {}
    if any(m < 1 for m in q_polys):
        raise ValueError("Q_m needs m >= 1: a single point has no variables")
    for m in sorted(q_polys):
        if m >= k:
            raise ValueError("Q_%d needs m < k = %d: no block has %d points" % (m, k, m + 1))
    _check_partition_count(k)  # before the Q_m blocks are listed
    block_epds = {
        frozenset(block): text
        for m, text in q_polys.items()
        for block in itertools.combinations(range(1, k + 1), m + 1)
    }
    spec = GeometricSubsetSpec((AlgebraSpec.trivial(),) * k, block_epds=block_epds)
    signed = {}  # id of a shared problem -> its signed copy
    out = []
    for alpha, problem in assemble_geometric(spec, bundle, surface, phi):
        if id(problem) not in signed:
            # the product of the per-block signs (-1)^m, m = |block| - 1;
            # the block count is fixed by the shared problem's block data,
            # so a relabel's source, listed before it, has the same sign
            relabel_of = problem.relabel_of
            if relabel_of is not None:
                relabel_of = (signed[id(relabel_of[0])], relabel_of[1])
            signed[id(problem)] = replace(
                problem, prefactor=Fraction((-1) ** (k - len(alpha))), relabel_of=relabel_of
            )
        out.append((alpha, signed[id(problem)]))
    return out


# -- Severi problems -------------------------------------------------------

# Constant in front of each built-in integral.  The rule below fixes
# everything else; these two values are fixed by the classical a_1 (a
# closed form) and a_2 (225 two-nodal plane quartics, Kleiman-Piene
# 1999), which the acceptance tests pin end to end.
SEVERI_PREFACTOR = {1: Fraction(-1, 2), 2: Fraction(-1)}


def severi_bundle() -> BundleModel:
    return BundleModel(rank=1, roots=("L",))


def assemble_severi(r: int, epd: str | None = None, prefactor=None) -> ResidueProblem:
    """Nodal-degree residue problem on the generic surface; evaluate() on it yields a_r.

    The punctual problem of the Severi algebra, boxes 1, x..x^(2r-1), y,
    xy..x^(r-1)*y, whose one block _block_pieces builds; phi = c_{2r}.
    Box x^a*y^b weighs 3a + 5b and the contour sorts the boxes by weight;
    any y-weight strictly between 1.5 and 2 times the x-weight gives the
    same pair-sum forms.  The small boxes x..x^(r-1) carry the collision
    dual in the Laurent monomial.  The published numerator takes the
    difference product in the refined order (x^a, then x^b*y), so the sign
    of the reordering is folded into the epd.  The problem comes folded by
    _block_problem rather than by fold_factors, which would multiply phi
    into the whole 40,320-term (r = 3) difference product: its numerator
    is one product of phi, the epd and each row of pair factors
    multiplied out, which at r <= 3 never outgrows the template; its
    factors are the Laurent ones.
    r = 1 and r = 2 carry the prefactors of SEVERI_PREFACTOR; r >= 3
    warns, since no published value pins its epd and prefactor.  A
    product that outgrows the term budget raises TermBudgetExceeded with
    this layer named.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r <= 2 and (epd is not None or prefactor is not None):
        raise ValueError("r <= 2 problems are built in; epd/prefactor are fixed")
    surface = generic_surface()
    boxes = [(a, 0) for a in range(1, 2 * r)] + [(b, 1) for b in range(r)]
    boxes.sort(key=lambda box: 3 * box[0] + 5 * box[1])
    names = tuple("z%d%d" % box for box in boxes)
    if r == 1:
        # a single difference is antisymmetric and integrates to 0; the
        # one-node integrand carries it squared
        epd_text = "z10 - z01"
    else:
        # the contour moves x^a past x^b*y wherever 3a > 3b + 5
        swaps = sum(3 * a > 3 * b + 5 for a in range(1, 2 * r) for b in range(r))
        ctx = VariableContext(names, (("L", 1),) + tuple(surface.chern_symbols), surface.dim)
        dual = MPoly.const(ctx, 1) if epd is None else _check_epd(parse_poly(ctx, epd), "epd")
        epd_text = format_poly(dual.scale((-1) ** swaps))
    weights = tuple(3 * a + 5 * b for a, b in boxes)
    laurent = tuple(-3 if b == 0 and a < r else -2 for a, b in boxes)
    data = (names, weights, epd_text, (laurent, Fraction(1)))
    try:
        pieces = _block_pieces(data, severi_bundle(), surface, whole=True)
        placed = [(pieces, range(pieces.ctx.nvars))]
        problem = _block_problem(pieces.ctx, placed, normalize_phi(2 * r), fold=True)
    except TermBudgetExceeded as exc:
        raise TermBudgetExceeded("%s while assembling the problem" % exc) from None

    if r <= 2:
        pref = SEVERI_PREFACTOR[r]
    else:
        warnings.warn(
            "Severi conventions beyond r=2 are uncalibrated; "
            "supply epd and prefactor explicitly and validate independently",
            stacklevel=2,
        )
        pref = Fraction(prefactor) if prefactor is not None else Fraction(1)
    return replace(problem, prefactor=pref)


# -- evaluation ------------------------------------------------------------


def evaluate(problem: ResidueProblem, surface: SurfaceModel) -> TopDegreeSelection:
    """iterated_residue followed by top-degree selection over the surface basis."""
    return select_top_degree(iterated_residue(problem), surface)


def severi_coefficient(r: int):
    """The nodal coefficient a_r as a coefficient map (r <= 2)."""
    problem = assemble_severi(r)
    return evaluate(problem, generic_surface())
