"""Chern-root calculus: twisted roots, elementary symmetric polynomials,
Segre factors, and top-degree selection (the "integration" step).

Bundle and surface models are plain data: symbol names, degrees, and
the Segre values as canonical polynomial text.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MPoly, VariableContext, format_poly, parse_poly
from .record import Record, replace


class BundleModel(Record):
    rank: int
    roots: tuple  # geometry symbol names, degree 1 each

    def __post_init__(self):
        if len(self.roots) != self.rank:
            raise ValueError("rank/root count mismatch")


class SurfaceModel(Record):
    """An n-fold through its symbol data.

    segre_values: canonical text for s_1..s_n in the chern symbols.
    pairing: optional intersection numbers keyed by basis monomial text
        (presets with a fixed line bundle degree).
    """

    name: str
    dim: int
    chern_symbols: tuple  # ((name, degree), ...)
    segre_values: tuple  # canonical text, one per degree 1..dim
    pairing: dict | None = None

    def __post_init__(self):
        if len(self.segre_values) != self.dim:
            raise ValueError("need s_1..s_%d" % self.dim)


def generic_surface() -> SurfaceModel:
    return SurfaceModel(
        name="generic-surface",
        dim=2,
        chern_symbols=(("c1", 1), ("c2", 2)),
        segre_values=("c1", "c1^2 - c2"),
    )


def p2_surface(d: int) -> SurfaceModel:
    """Projective plane with L = d*H, canonical-class pairing convention:
    L.L = d^2, L.c1 = -3d, c1.c1 = 9, c2 = 3."""
    base = generic_surface()
    return replace(
        base,
        name="P2",
        pairing={"L^2": d * d, "L*c1": -3 * d, "c1^2": 9, "c2": 3},
    )


SURFACE_PRESETS = {"generic-surface": generic_surface, "P2": p2_surface}

SURFACE_BASIS = ("L^2", "L*c1", "c1^2", "c2")


def twisted_roots(ctx: VariableContext, bundle: BundleModel, offsets) -> list:
    """Multiset {theta_j} plus {theta_j + z} for every offset z.

    offsets are MPoly values in ctx (typically single residue variables).
    """
    base = [MPoly.var(ctx, r) for r in bundle.roots]
    out = list(base)
    for off in offsets:
        for b in base:
            out.append(b + off)
    return out


def chern_classes(ctx: VariableContext, roots, d: int) -> list:
    """[e_0, ..., e_d] of the roots (MPoly values in ctx), in one pass.

    These are c_0..c_d of a bundle with those Chern roots.
    """
    e = [MPoly.const(ctx, 1)] + [MPoly.zero(ctx)] * d
    for n, root in enumerate(roots, start=1):
        # e_j of the first n roots is zero for j > n
        for j in range(min(d, n), 0, -1):
            e[j] = e[j] + e[j - 1].mul(root)
    return e


def elementary_symmetric(m: int, roots) -> MPoly:
    roots = list(roots)
    if m < 0:
        raise ValueError("e_%d undefined" % m)
    if not roots:
        raise ValueError("need at least one root to fix the context")
    return chern_classes(roots[0].ctx, roots, m)[m]


def segre_factor(ctx: VariableContext, var_name: str, surface: SurfaceModel) -> MPoly:
    """Total Segre factor 1 + s_1/z + ... + s_n/z^n as a Laurent MPoly."""
    out = MPoly.const(ctx, 1)
    for i, text in enumerate(surface.segre_values, start=1):
        out = out + parse_poly(ctx, text).mul(MPoly.var(ctx, var_name, -i))
    return out


class TopDegreeSelection(Record):
    """Degree-n coefficients over a fixed basis plus the off-degree rest."""

    coefficients: dict  # basis monomial text -> Fraction
    remainder: MPoly

    def as_poly_text(self) -> str:
        ctx = self.remainder.ctx
        total = MPoly.zero(ctx)
        for mono, coef in self.coefficients.items():
            total = total + parse_poly(ctx, mono).scale(coef)
        return format_poly(total)


def select_top_degree(p: MPoly, surface: SurfaceModel) -> TopDegreeSelection:
    """Split off the degree-dim part of p over SURFACE_BASIS.

    Terms of other degrees land in the remainder (reported, never
    silently dropped).  A degree-dim term outside the basis raises, and
    so does a surface of dimension other than 2: SURFACE_BASIS is the
    degree-2 basis.
    """
    if surface.dim != 2:
        raise ValueError(
            "surface %r has dimension %d; top-degree selection knows only the "
            "dimension-2 basis %r" % (surface.name, surface.dim, list(SURFACE_BASIS))
        )
    ctx = p.ctx
    for i in range(ctx.k):
        if p.max_exponent(i) or p.min_exponent(i):
            raise ValueError("residue variable %s still present" % ctx.names[i])
    basis_keys = {}
    for mono in SURFACE_BASIS:
        (key,) = parse_poly(ctx, mono).terms
        basis_keys[key] = mono
    coeffs = {mono: Fraction(0) for mono in SURFACE_BASIS}
    rem = MPoly.zero(ctx)
    n = surface.dim
    for key, coef in p.terms.items():
        if ctx.geometry_degree(key) != n:
            rem = rem + MPoly(ctx, {key: coef})
            continue
        mono = basis_keys.get(key)
        if mono is None:
            raise ValueError(
                "degree-%d term %s not expressible in basis %r"
                % (n, format_poly(MPoly(ctx, {key: coef})), list(SURFACE_BASIS))
            )
        coeffs[mono] += coef
    return TopDegreeSelection(coeffs, rem)


def pair_integral(coeffs: dict, surface: SurfaceModel) -> Fraction:
    """Evaluate a coefficient map against the surface's intersection numbers."""
    if surface.pairing is None:
        raise ValueError("surface %r carries no pairing data" % surface.name)
    total = Fraction(0)
    for mono, coef in coeffs.items():
        if coef:
            total += Fraction(coef) * surface.pairing[mono]
    return total
