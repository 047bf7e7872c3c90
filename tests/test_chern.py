"""Twisted bundle classes, Segre tails, and top-degree selection."""

from fractions import Fraction

import pytest

from tautres.chern import (
    BundleModel,
    SURFACE_BASIS,
    SURFACE_PRESETS,
    SurfaceModel,
    chern_classes,
    elementary_symmetric,
    generic_surface,
    p2_surface,
    pair_integral,
    segre_factor,
    select_top_degree,
    twisted_roots,
)
from tautres.poly import MPoly, TermBudgetExceeded, VariableContext, format_poly, parse_poly


CTX = VariableContext(
    residue_vars=("z1", "z2"),
    geometry=(("L", 1), ("c1", 1), ("c2", 2)),
)


def test_bundle_model_validates_rank():
    with pytest.raises(ValueError):
        BundleModel(rank=2, roots=("L",))
    assert BundleModel(rank=1, roots=("L",)).roots == ("L",)


def test_twisted_roots():
    b = BundleModel(rank=1, roots=("L",))
    offs = [MPoly.var(CTX, "z1"), MPoly.var(CTX, "z2")]
    roots = twisted_roots(CTX, b, offs)
    L = MPoly.var(CTX, "L")
    assert roots == [L, L + offs[0], L + offs[1]]


def test_elementary_symmetric_of_twisted_line():
    b = BundleModel(rank=1, roots=("L",))
    offs = [MPoly.var(CTX, "z1"), MPoly.var(CTX, "z2")]
    roots = twisted_roots(CTX, b, offs)
    L = MPoly.var(CTX, "L")
    z1, z2 = offs
    e1 = elementary_symmetric(1, roots)
    e2 = elementary_symmetric(2, roots)
    e3 = elementary_symmetric(3, roots)
    assert e1 == 3 * L + z1 + z2
    assert e2 == 3 * L * L + 2 * L * (z1 + z2) + z1 * z2
    assert e3 == (L + z1) * (L + z2) * L
    assert elementary_symmetric(0, roots) == 1
    # above the root count there is no square-free monomial left
    assert elementary_symmetric(4, roots).is_zero()
    with pytest.raises(ValueError):
        elementary_symmetric(-1, roots)


def test_segre_factor_generic_surface():
    s = segre_factor(CTX, "z1", generic_surface())
    c1 = MPoly.var(CTX, "c1")
    c2 = MPoly.var(CTX, "c2")
    want = (
        MPoly.const(CTX, 1)
        + c1 * MPoly.var(CTX, "z1", -1)
        + (c1 * c1 - c2) * MPoly.var(CTX, "z1", -2)
    )
    assert s == want


def test_chern_and_segre_products_hold_the_kernel_budget(monkeypatch):
    roots = twisted_roots(CTX, BundleModel(rank=1, roots=("L",)), [MPoly.var(CTX, "z1")])
    # e_2 = L^2 + L*z1 and the Segre term (c1^2 - c2)*z1^-2 have 2 terms each
    builds = [
        lambda: chern_classes(CTX, roots, 2),
        lambda: elementary_symmetric(2, roots),
        lambda: segre_factor(CTX, "z1", generic_surface()),
    ]
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 1)
    for build in builds:
        with pytest.raises(TermBudgetExceeded, match="size 2 exceeds budget 1$"):
            build()
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 2)
    for build in builds:
        build()


def test_surface_presets():
    assert set(SURFACE_PRESETS) == {"generic-surface", "P2"}
    assert generic_surface().dim == 2
    assert SURFACE_BASIS == ("L^2", "L*c1", "c1^2", "c2")


def test_p2_pairing_convention():
    s = p2_surface(4)
    assert s.pairing == {"L^2": 16, "L*c1": -12, "c1^2": 9, "c2": 3}


# -- top-degree selection ------------------------------------------------------


def test_select_top_degree_basis_coefficients():
    p = parse_poly(CTX, "3*L^2 + 2*L*c1 + c2")
    sel = select_top_degree(p, generic_surface())
    assert sel.coefficients == {
        "L^2": Fraction(3),
        "L*c1": Fraction(2),
        "c1^2": Fraction(0),
        "c2": Fraction(1),
    }
    assert sel.remainder.is_zero()
    assert sel.as_poly_text() == "3*L^2 + 2*L*c1 + c2"


def test_select_top_degree_reports_remainder():
    p = parse_poly(CTX, "5*L^2 + 7*L + 2")
    sel = select_top_degree(p, generic_surface())
    assert sel.coefficients["L^2"] == 5
    assert format_poly(sel.remainder) == "7*L + 2"


def test_select_top_degree_rejects_off_basis_top_term():
    p = parse_poly(CTX, "L*c1")
    with pytest.raises(ValueError, match="not expressible"):
        select_top_degree(p, generic_surface(), basis=("L^2", "c2"))


def test_select_top_degree_rejects_residue_variables():
    p = MPoly.var(CTX, "z1") * MPoly.var(CTX, "L")
    with pytest.raises(ValueError, match="still present"):
        select_top_degree(p, generic_surface())


def test_select_top_degree_rejects_non_monomial_basis():
    p = parse_poly(CTX, "c2")
    with pytest.raises(ValueError, match="not a monomial"):
        select_top_degree(p, generic_surface(), basis=("L^2 + c2",))
    with pytest.raises(ValueError, match="has a coefficient"):
        select_top_degree(p, generic_surface(), basis=("2*c2",))


# -- pairing ---------------------------------------------------------------------


def test_pair_integral_on_plane():
    coeffs = {
        "L^2": Fraction(3),
        "L*c1": Fraction(2),
        "c1^2": Fraction(0),
        "c2": Fraction(1),
    }
    # 3d^2 - 6d + 3 = 3(d-1)^2
    for d in (3, 4, 5, 6):
        assert pair_integral(coeffs, p2_surface(d)) == 3 * (d - 1) ** 2


def test_pair_integral_requires_pairing():
    with pytest.raises(ValueError, match="no pairing"):
        pair_integral({"L^2": Fraction(1)}, generic_surface())
