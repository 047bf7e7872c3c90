"""Exact sparse Laurent polynomial arithmetic and the canonical text form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautres.poly import (
    EXP_MAX,
    EXP_MIN,
    LinearForm,
    MPoly,
    TermBudgetExceeded,
    VariableContext,
    format_poly,
    linear_form,
    parse_linear_form,
    parse_poly,
)


CTX = VariableContext(
    residue_vars=("z1", "z2"),
    geometry=(("L", 1), ("c1", 1), ("c2", 2)),
)


def V(name, exp=1):
    return MPoly.var(CTX, name, exp)


# -- context validation -----------------------------------------------------


def test_context_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        VariableContext(residue_vars=("z1",), geometry=(("z1", 1),))


def test_context_rejects_bad_names():
    with pytest.raises(ValueError, match="bad variable name"):
        VariableContext(residue_vars=("2z",))
    with pytest.raises(ValueError, match="bad variable name"):
        VariableContext(geometry=(("c 1", 1),))


def test_context_lookup():
    assert CTX.k == 2
    assert CTX.nvars == 5
    assert CTX.index("c2") == 4
    with pytest.raises(KeyError):
        CTX.index("nope")


# -- arithmetic -------------------------------------------------------------


def test_basic_arithmetic():
    p = (V("z1") + V("L")) * (V("z1") - V("L"))
    assert p == V("z1", 2) - V("L", 2)
    assert p - p == MPoly.zero(CTX)
    assert (p * 0).is_zero()


def test_pow_and_scale():
    p = (V("z1") + 1) ** 3
    assert p == V("z1", 3) + 3 * V("z1", 2) + 3 * V("z1") + 1
    assert p.scale(Fraction(1, 3)) * 3 == p
    with pytest.raises(ValueError):
        p ** -1


def test_constant_equality():
    assert MPoly.const(CTX, Fraction(5, 2)) == Fraction(5, 2)
    assert MPoly.zero(CTX) == 0
    assert not MPoly.const(CTX, 1) == 2


def test_laurent_exponents():
    p = V("z1", -2) * V("z2", 3)
    assert p.min_exponent(0) == -2
    assert p.max_exponent(1) == 3


def test_coefficient_of_zeroes_the_slot():
    p = V("z1", 2) * V("L") + V("z1", 2) * V("c1") + V("z1") * V("c2")
    c = p.coefficient_of(0, 2)
    assert c == V("L") + V("c1")


def test_subs_num_rejects_zero_to_negative_power():
    p = V("z1", -1)
    with pytest.raises(ZeroDivisionError):
        p.subs_num({"z1": 0})
    assert p.subs_num({"z1": 2}) == Fraction(1, 2)


def test_eval_at():
    p = 3 * V("L", 2) + 2 * V("L") * V("c1") + V("c2")
    val = p.eval_at({"z1": 0, "z2": 0, "L": 2, "c1": -1, "c2": 7})
    assert val == Fraction(12 - 4 + 7)


def test_dim_cap_drops_deep_geometry():
    capped = VariableContext(
        residue_vars=("z",),
        geometry=(("c1", 1), ("c2", 2)),
        dim_cap=2,
    )
    c1 = MPoly.var(capped, "c1")
    c2 = MPoly.var(capped, "c2")
    # c1*c2 has geometry degree 3 > cap, so the product truncates it
    assert c1 * c2 == MPoly.zero(capped)
    assert c1 * c1 == MPoly.var(capped, "c1", 2)


def test_mul_budget_caps_the_growing_product(monkeypatch):
    z = V("z1")
    q = 1 - z + z ** 2 - z ** 3
    # one row already holds 4 terms, though the whole product 1 - z^4 has 2
    with pytest.raises(TermBudgetExceeded, match="while eliminating z1$"):
        (1 + z).mul(q, window=(0, -4, 4), budget=3)
    assert (1 + z).mul(q, budget=4) == 1 - z ** 4
    # without a budget argument every product holds the kernel's budget
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 3)
    for product in (lambda: (1 + z).mul(q), lambda: (1 + z) * q):
        with pytest.raises(TermBudgetExceeded, match="size 4 exceeds budget 3$"):
            product()
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 4)
    assert (1 + z) * q == 1 - z ** 4
    s = 1 + z + V("L")  # its square has 6 terms
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 5)
    with pytest.raises(TermBudgetExceeded, match="size 6 exceeds budget 5$"):
        s.pow(2)
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 6)
    assert len(s ** 2) == 6


# -- canonical text form ----------------------------------------------------


def test_format_reference_example():
    p = 3 * V("L", 2) + 2 * V("L") * V("c1") + V("c2")
    assert format_poly(p) == "3*L^2 + 2*L*c1 + c2"


def test_format_signs_and_rationals():
    p = -V("z1", 2) + V("L").scale(Fraction(1, 2)) - 4
    assert format_poly(p) == "-z1^2 + 1/2*L - 4"
    assert format_poly(MPoly.zero(CTX)) == "0"


def test_format_negative_exponents():
    p = V("z1", -2) * V("z2")
    assert format_poly(p) == "z1^-2*z2"


def test_parse_roundtrip():
    texts = [
        "3*L^2 + 2*L*c1 + c2",
        "z1^2 - 2*z1*z2 + z2^2",
        "5/3 - z1^-1",
        "1",
        "0",
    ]
    for text in texts:
        assert format_poly(parse_poly(CTX, text)) == text


def test_parse_rejects_unknown_symbol_and_parens():
    with pytest.raises(KeyError):
        parse_poly(CTX, "q + 1")
    with pytest.raises(ValueError):
        parse_poly(CTX, "(z1 + z2)")
    with pytest.raises(ValueError, match="bad rational"):
        parse_poly(CTX, "z1 - 3/0")
    # juxtaposed factors and a trailing * are not products
    for text in ("2 3", "c1 c2", "z1^2 L"):
        with pytest.raises(ValueError, match="missing \\*"):
            parse_poly(CTX, text)
    for text in ("c1*", "2*z1* + 1"):
        with pytest.raises(ValueError):
            parse_poly(CTX, text)


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        key = tuple(draw(st.integers(-3, 3)) for _ in range(2)) + tuple(
            draw(st.integers(0, 2)) for _ in range(3)
        )
        coef = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms[key] = terms.get(key, 0) + coef
    return MPoly(CTX, terms)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys(), small_polys(), st.integers(0, 4), st.integers(-7, 5), st.integers(0, 6))
@settings(max_examples=120, deadline=None)
def test_windowed_mul_is_the_product_cut_to_the_window(p, q, i, lo, width):
    hi = lo + width
    want = {k: c for k, c in (p * q).terms.items() if lo <= k[i] <= hi}
    assert p.mul(q, window=(i, lo, hi)).terms == want


@given(small_polys())
@settings(max_examples=60, deadline=None)
def test_format_parse_is_identity(p):
    assert parse_poly(CTX, format_poly(p)) == p


# -- the packed kernel against a tuple/Fraction reference ----------------------

CAPPED = VariableContext(
    residue_vars=("z1", "z2"),
    geometry=(("L", 1), ("c1", 1), ("c2", 2)),
    dim_cap=2,
)


def reference_product(p, q, window=None):
    """Sum of c1*c2 over all pairs of p.terms and q.terms, cut like the kernel."""
    ctx = p.ctx
    out = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            if ctx.dim_cap is not None and ctx.geometry_degree(key) > ctx.dim_cap:
                continue
            if window is not None and not window[1] <= key[window[0]] <= window[2]:
                continue
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


@st.composite
def capped_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = tuple(draw(st.integers(-4, 4)) for _ in range(2)) + tuple(
            draw(st.integers(0, 2)) for _ in range(3)
        )
        terms[key] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
    return MPoly(CAPPED, terms)


windows = st.none() | st.tuples(st.integers(0, 1), st.integers(-8, 4), st.integers(0, 6)).map(
    lambda w: (w[0], w[1], w[1] + w[2])
)


@given(capped_polys(), capped_polys(), windows)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_reference_product(p, q, window):
    assert p.mul(q, window=window).terms == reference_product(p, q, window)


@given(capped_polys())
@settings(max_examples=60, deadline=None)
def test_terms_round_trip(p):
    assert MPoly(CAPPED, p.terms) == p
    assert len(p) == len(p.terms)


@given(capped_polys(), st.integers(2, 4), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_coefficient_of_a_geometry_symbol_multiplies_back(p, slot, e):
    # the degree field must lose e * deg(slot), or the cap would cut wrongly
    name = CAPPED.names[slot]
    back = p.coefficient_of(slot, e).mul(MPoly.var(CAPPED, name, e))
    picked = MPoly(CAPPED, {k: c for k, c in p.terms.items() if k[slot] == e})
    assert back.terms == reference_product(picked, MPoly.const(CAPPED, 1))


# -- the product rule -------------------------------------------------------


def chain(ctx, factors):
    """The left-to-right product of factors, one mul each, from 1."""
    out = MPoly.const(ctx, 1)
    for f in factors:
        out = out.mul(f)
    return out


constants = st.integers(-3, 3).map(lambda c: MPoly.const(CTX, c))


@given(st.lists(small_polys() | constants, max_size=5))
@settings(max_examples=120, deadline=None)
def test_product_is_the_left_to_right_chain(factors):
    assert MPoly.product(CTX, factors) == chain(CTX, factors)


@given(st.lists(capped_polys(), max_size=4))
@settings(max_examples=80, deadline=None)
def test_product_is_the_chain_under_a_dim_cap(factors):
    # a factor built from terms keeps those above the cap until a product
    # cuts them; the library's factors are products, so they come cut
    factors = [p.mul(MPoly.const(CAPPED, 1)) for p in factors]
    assert MPoly.product(CAPPED, factors) == chain(CAPPED, factors)


def test_product_edge_cases():
    p = 1 + V("z1") + V("L")
    assert MPoly.product(CTX, []) == 1
    assert MPoly.product(CTX, [p]) == p
    assert MPoly.product(CTX, [MPoly.const(CTX, Fraction(2, 3)), p]) == p.scale(Fraction(2, 3))
    assert MPoly.product(CTX, [p, MPoly.zero(CTX), p]).is_zero()
    assert MPoly.product(CTX, [V("z1", -1), V("z1")]) == 1
    with pytest.raises(ValueError, match="context mismatch"):
        MPoly.product(CAPPED, [p])


def test_product_holds_its_budget():
    s = 1 + V("z1") + V("L")  # its square has 6 terms
    with pytest.raises(TermBudgetExceeded, match="size 6 exceeds budget 5$"):
        MPoly.product(CTX, [s, s], budget=5)
    assert len(MPoly.product(CTX, [s, s], budget=6)) == 6


@pytest.mark.parametrize("p", [1 + V("z1") + V("L"), V("z1", -1) - V("c2"), MPoly.const(CTX, -2)])
def test_pow_is_repeated_mul(p):
    for n in range(6):  # n < 0 raises: test_pow_and_scale
        assert p.pow(n) == chain(CTX, [p] * n)


# -- relabelling into a larger context ----------------------------------------

# two copies of CTX's layout, interleaved, with a cap on the geometry degree
WIDE = VariableContext(
    residue_vars=("b1z1", "b2z1", "b1z2", "b2z2"),
    geometry=(("L_1", 1), ("L_2", 1), ("c1_1", 1), ("c1_2", 1), ("c2_1", 2), ("c2_2", 2)),
    dim_cap=4,
)


@st.composite
def slot_maps(draw):
    """A map of CTX's slots into distinct WIDE slots of the same degree."""
    free = {}
    for j in draw(st.permutations(range(WIDE.nvars))):
        free.setdefault(WIDE.degrees[j], []).append(j)
    return tuple(free[d].pop() for d in CTX.degrees)


@given(small_polys(), small_polys(), slot_maps())
@settings(max_examples=120, deadline=None)
def test_relabel_moves_slots_and_commutes_with_products(p, q, slots):
    moved = p.relabel(WIDE, slots)
    want = {}
    for key, coef in p.terms.items():
        if CTX.geometry_degree(key) <= WIDE.dim_cap:
            new = [0] * WIDE.nvars
            for i, e in enumerate(key):
                new[slots[i]] = e
            want[tuple(new)] = coef
    assert moved.terms == want
    assert moved * q.relabel(WIDE, slots) == (p * q).relabel(WIDE, slots)


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_relabel_into_an_identical_layout_is_equal(p):
    same = VariableContext(CTX.residue_vars, CTX.geometry)
    assert p.relabel(same, tuple(range(CTX.nvars))) == MPoly(same, p.terms)
    assert p.relabel(CTX, tuple(range(CTX.nvars))) == p


def test_relabel_refuses_repeated_or_wrong_degree_targets():
    p = V("z1") + V("c2")
    with pytest.raises(ValueError, match="repeated"):
        p.relabel(WIDE, (0, 0, 4, 6, 8))
    with pytest.raises(ValueError, match="cannot move c2"):
        p.relabel(WIDE, (0, 1, 4, 6, 5))
    with pytest.raises(ValueError, match="cannot move z1"):
        p.relabel(WIDE, (4, 1, 5, 6, 8))
    with pytest.raises(ValueError, match="one target slot per variable"):
        p.relabel(WIDE, (0, 1, 4, 6))


def test_cancellation_gives_the_normal_zero():
    z = MPoly.var(CAPPED, "z1")
    p = Fraction(1, 2) + z.scale(Fraction(1, 3))
    q = Fraction(1, 2) - z.scale(Fraction(1, 3))
    # the z1^1 terms cancel; c1 * c2 lies above the cap
    assert p.mul(q, window=(0, 1, 1)) == MPoly.zero(CAPPED)
    p = p + MPoly.var(CAPPED, "L", 2).scale(Fraction(5, 7))
    assert p - p == MPoly.zero(CAPPED)
    assert MPoly.var(CAPPED, "c1").scale(Fraction(2, 3)) * MPoly.var(CAPPED, "c2") == MPoly.zero(CAPPED)
    assert (p * q).mul(MPoly.zero(CAPPED)) == MPoly.zero(CAPPED)
    assert p.scale(Fraction(3, 2)) + p.scale(Fraction(-3, 2)) == MPoly.zero(CAPPED)


def test_exponent_out_of_range_raises_and_does_not_wrap():
    top = MPoly.var(CTX, "z1", EXP_MAX)
    assert top.max_exponent(0) == EXP_MAX and top.max_exponent(1) == 0
    assert MPoly.var(CTX, "z1", EXP_MIN).min_exponent(0) == EXP_MIN
    with pytest.raises(ValueError, match="packed range"):
        top * V("z1")
    with pytest.raises(ValueError, match="packed range"):
        MPoly.var(CTX, "z1", EXP_MIN) * V("z1", -1)
    with pytest.raises(ValueError, match="packed range"):
        MPoly.var(CTX, "z2", EXP_MAX + 1)
    with pytest.raises(ValueError, match="packed range"):
        MPoly(CTX, {(0, EXP_MIN - 1, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="packed range"):
        parse_poly(CTX, "z1^%d" % (EXP_MAX + 1))


# -- linear forms -----------------------------------------------------------


def test_linear_form_leading_index():
    f = linear_form(CTX, 2 * V("z1") - V("z2"))
    # rightmost residue variable with a nonzero coefficient leads
    assert f.leading_index() == CTX.index("z2")
    g = linear_form(CTX, V("z1") + V("L"))
    assert g.leading_index() == CTX.index("z1")
    const = linear_form(CTX, V("L") - V("c1"))
    assert const.leading_index() is None


def test_linear_form_round_trips_through_as_poly():
    p = V("z1") + 2 * V("z2") - 3 * V("L")
    f = linear_form(CTX, p, multiplicity=2)
    assert f.as_poly() == p
    assert f.multiplicity == 2


def test_linear_form_key_ignores_multiplicity():
    f = linear_form(CTX, V("z1") - V("z2"))
    g = f.with_multiplicity(3)
    assert f.key() == g.key()
    assert f != g
    assert f == linear_form(CTX, V("z1") - V("z2"))


def test_parse_linear_form():
    ctx = VariableContext(residue_vars=("z10", "z01", "z11"))
    f = parse_linear_form(ctx, "(z10 + z01 - z11)^3")
    assert f.multiplicity == 3
    assert f.as_poly() == (
        MPoly.var(ctx, "z10") + MPoly.var(ctx, "z01") - MPoly.var(ctx, "z11")
    )
    assert repr(f) == "(z10 + z01 - z11)^3"


def test_linear_form_rejects_nonlinear():
    with pytest.raises(ValueError):
        linear_form(CTX, V("z1", 2))
    with pytest.raises(ValueError):
        linear_form(CTX, V("z1") * V("L"))
    with pytest.raises(ValueError):
        LinearForm(ctx=CTX, z_coeffs=(Fraction(1),), const_part=MPoly.zero(CTX))


def test_linear_form_refuses_a_const_part_touching_a_residue_variable():
    for bad in (V("z1"), V("z2", -1) * V("L"), V("c2") + V("z2", 3)):
        with pytest.raises(ValueError, match="touches a residue variable"):
            LinearForm(CTX, (Fraction(1), Fraction(0)), bad)
    # the last residue variable of a wide context, beside geometry fields
    wide = VariableContext(tuple("z%d" % i for i in range(1, 13)), TWENTY.geometry)
    for name in ("z1", "z12"):
        with pytest.raises(ValueError, match="touches a residue variable"):
            LinearForm(wide, (Fraction(1),) * 12, MPoly.var(wide, name) + MPoly.var(wide, "g9", 4))
    ok = LinearForm(wide, (Fraction(0),) * 12, MPoly.var(wide, "g1") - 3)
    assert ok.leading_index() is None


# -- packed-key readers against the dense .terms view --------------------------

# 21 slots: the degree field sits above bit 320
TWENTY = VariableContext(
    tuple("z%d" % i for i in range(1, 13)),
    tuple(("g%d" % i, 1 + i % 3) for i in range(1, 10)),
)
TWENTY_CAPPED = VariableContext(TWENTY.residue_vars, TWENTY.geometry, dim_cap=5)


def reference_text(p):
    """The canonical text, from the decoded exponent tuples and Fractions."""

    def order(row):
        key = row[0]
        return (-sum(key), tuple((i, -e) for i, e in enumerate(key) if e))

    chunks = []
    for key, coef in sorted(p.terms.items(), key=order):
        mono = "*".join(
            n if e == 1 else "%s^%d" % (n, e) for n, e in zip(p.ctx.names, key) if e
        )
        mag = str(abs(coef))
        body = mag if not mono else mono if mag == "1" else "%s*%s" % (mag, mono)
        sign = ("" if coef > 0 else "-") if not chunks else ("+ " if coef > 0 else "- ")
        chunks.append(sign + body)
    return " ".join(chunks) or "0"


@st.composite
def sparse_polys(draw, ctx, residue=True, geometry=True):
    """A few terms over ctx, each with a few nonzero slots from one small palette.

    Sharing the palette makes terms of equal degree that agree on their
    first slots, which is where the canonical order is decided.
    """
    slots = [i for i in range(ctx.nvars) if (residue if i < ctx.k else geometry)]
    palette = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=4)) if slots else []
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        key = [0] * ctx.nvars
        for i in draw(st.lists(st.sampled_from(palette), max_size=4)) if palette else ():
            if i < ctx.k:
                key[i] = draw(st.integers(-3, 3) | st.sampled_from((-9, 9, EXP_MIN, EXP_MAX)))
            else:
                key[i] = draw(st.integers(0, 4))
        coef = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
        terms[tuple(key)] = terms.get(tuple(key), 0) + coef
    return MPoly(ctx, terms)


@given(st.sampled_from((CTX, CAPPED, TWENTY, TWENTY_CAPPED)).flatmap(sparse_polys))
@settings(max_examples=100, deadline=None)
def test_is_polynomial_matches_the_decoded_terms(p):
    want = all(e >= 0 for key in p.terms for e in key[: p.ctx.k])
    assert p.is_polynomial() == want


@given(st.sampled_from((CTX, CAPPED, TWENTY, TWENTY_CAPPED)).flatmap(sparse_polys))
@settings(max_examples=100, deadline=None)
def test_format_matches_the_dense_reference(p):
    assert format_poly(p) == reference_text(p)


@st.composite
def run_slot_maps(draw, src, dst):
    """Degree-preserving injective slot maps that mix runs and scattered slots."""
    free = {}
    for j in draw(st.permutations(range(dst.nvars))):
        free.setdefault(dst.degrees[j], []).append(j)
    slots = []
    for i, d in enumerate(src.degrees):
        prev = slots[-1] + 1 if slots else None
        if prev in free.get(d, ()) and draw(st.booleans()):
            free[d].remove(prev)  # extend the run
            slots.append(prev)
        else:
            slots.append(free[d].pop())
    return tuple(slots)


# a block-local layout, and a joint one with two geometry copies of it
BLOCK = VariableContext(("z1", "z2", "z3"), (("L", 1), ("c1", 1), ("c2", 2)))
JOINT = VariableContext(
    ("b1z1", "b1z2", "b1z3", "b2z1", "b2z2", "b2z3", "b3z1"),
    (("L_1", 1), ("c1_1", 1), ("c2_1", 2), ("L_2", 1), ("c1_2", 1), ("c2_2", 2)),
    dim_cap=3,
)


def reference_relabel(p, ctx, slots):
    want = {}
    for key, coef in p.terms.items():
        if ctx.dim_cap is None or p.ctx.geometry_degree(key) <= ctx.dim_cap:
            new = [0] * ctx.nvars
            for i, e in enumerate(key):
                new[slots[i]] = e
            want[tuple(new)] = coef
    return want


@given(
    sparse_polys(BLOCK),
    st.sampled_from((JOINT, VariableContext(JOINT.residue_vars, JOINT.geometry))),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_relabel_matches_the_dense_reference(p, ctx, data):
    slots = data.draw(run_slot_maps(BLOCK, ctx))
    assert p.relabel(ctx, slots).terms == reference_relabel(p, ctx, slots)


@given(sparse_polys(BLOCK), st.data())
@settings(max_examples=50, deadline=None)
def test_relabel_refuses_repeated_or_wrong_degree_targets_anywhere(p, data):
    slots = list(data.draw(run_slot_maps(BLOCK, JOINT)))
    i = data.draw(st.integers(0, BLOCK.nvars - 1))
    repeated = list(slots)
    repeated[i] = slots[(i + 1) % len(slots)]
    with pytest.raises(ValueError, match="repeated target slot"):
        p.relabel(JOINT, repeated)
    wrong = list(slots)
    wrong[i] = data.draw(
        st.sampled_from([j for j in range(JOINT.nvars) if JOINT.degrees[j] != BLOCK.degrees[i]])
    )
    if len(set(wrong)) == len(wrong):
        with pytest.raises(ValueError, match="cannot move %s" % BLOCK.names[i]):
            p.relabel(JOINT, wrong)
    with pytest.raises(ValueError, match="cannot move"):
        p.relabel(JOINT, slots[:i] + [JOINT.nvars + i] + slots[i + 1 :])


@given(
    st.sampled_from((CTX, CAPPED, TWENTY, TWENTY_CAPPED)).flatmap(
        lambda ctx: st.tuples(
            st.lists(
                st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                min_size=ctx.k,
                max_size=ctx.k,
            ),
            sparse_polys(ctx, residue=False),
        )
    ),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_form_text_matches_the_text_of_its_polynomial(data, mult):
    coeffs, const = data
    if not any(coeffs) and const.is_zero():
        coeffs[0] = Fraction(1)
    f = LinearForm(const.ctx, tuple(coeffs), const, mult)
    body = format_poly(f.as_poly())
    assert repr(f) == ("(%s)" % body if mult == 1 else "(%s)^%d" % (body, mult))
