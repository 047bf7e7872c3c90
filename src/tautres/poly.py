"""Exact sparse Laurent arithmetic over Q in a fixed variable order.

A :class:`VariableContext` declares, once, the residue variables (in
contour order, smallest modulus first) followed by the ambient geometry
symbols with their cohomological degrees.  Every polynomial carries a
reference to its context; mixing contexts is an error, not a coercion.

Storage.  An :class:`MPoly` holds its terms as a dict from one packed
int per exponent vector to an int coefficient, over one positive
denominator per polynomial.  Slot i of the exponent vector is a
FIELD_BITS-wide field at bit FIELD_BITS * i holding the exponent plus a
bias of 2^(FIELD_BITS - 1); the field above the last slot holds the
total geometry degree.  Multiplying two monomials is then one int
addition (minus the context's bias), and the ``dim_cap`` cut is one
comparison against a threshold.  Exponents lie in [EXP_MIN, EXP_MAX]:
a field of two in-range exponents summed never carries into the next
field, and an exponent outside the range raises ValueError instead of
wrapping.  The denominator is kept reduced (1 for the zero polynomial),
so equal polynomials have equal dicts.  Residue variables may appear
with negative exponents (the elimination loop works with truncated
Laurent tails); geometry symbols never do.

Readers of packed keys work by the nonzero fields of a term, which are
few (a term of a block problem has 2-5 of its 8-18).  XOR with the
context's zero key leaves exactly those fields nonzero, so the text
renderer (``format_poly``, and a ``LinearForm``'s repr, which renders
its coefficients without building the sum) finds them by scanning for
the lowest set bit.  ``MPoly.relabel`` moves each run of consecutive
source slots bound for consecutive target slots with one mask and
shift, and the degree field whole; a block's pieces have two runs, its
residue variables and its geometry copy.

``Fraction`` and exponent tuples appear only at the boundaries:
``MPoly(ctx, {exponent tuple: rational})`` constructs a polynomial, and
``p.terms`` is a read-only ``{exponent tuple: Fraction}`` view, decoded
on first use and cached.  No floats enter anywhere in this module.

Term budget.  Every product of two polynomials runs through
``MPoly.mul``, which refuses, with TermBudgetExceeded, a product that
grows past its budget; a caller that gives none gets
DEFAULT_TERM_BUDGET, read at call time.  There is no unbudgeted
product, so ``*``, ``pow`` and every helper built on them hold the
budget without passing one along.  Callers catch the error where they
can name the layer it was raised in.

Product rule.  Every product of a list of factors is ``MPoly.product``:
it starts from the factor with the most terms and multiplies the others
into it in the order listed, a constant one by scaling; no factors give
1.  Any order gives the same polynomial, so callers order for speed
(``pow`` is a chain of n copies; assemble.py lists pair factors in
Vandermonde order).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .record import Record

Key = tuple  # dense exponent vector, one slot per context variable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

FIELD_BITS = 16
_MASK = (1 << FIELD_BITS) - 1
_BIAS = 1 << (FIELD_BITS - 1)
# in-range fields hold values in [2^(FIELD_BITS-2), 3 * 2^(FIELD_BITS-2)),
# whose top two bits differ; a sum of two of them, less the bias, stays
# inside [0, 2^FIELD_BITS)
EXP_MIN = -(1 << (FIELD_BITS - 2))
EXP_MAX = (1 << (FIELD_BITS - 2)) - 1

DEFAULT_TERM_BUDGET = 10_000_000


class TermBudgetExceeded(RuntimeError):
    """Raised when an intermediate polynomial outgrows the term budget."""


def _out_of_range(value) -> ValueError:
    return ValueError("exponent %s outside the packed range [%d, %d]" % (value, EXP_MIN, EXP_MAX))


class VariableContext(Record):
    """Fixed-order variable namespace.

    residue_vars: contour order, position i means |z_i| << |z_{i+1}|.
    geometry: (symbol, degree) pairs, e.g. (("L", 1), ("c1", 1), ("c2", 2)).
    dim_cap: if set, products silently drop terms whose total geometry
        degree exceeds the cap (integration over an n-fold kills them).
    """

    residue_vars: tuple = ()
    geometry: tuple = ()
    dim_cap: int | None = None

    def __post_init__(self):
        names = tuple(self.residue_vars) + tuple(n for n, _ in self.geometry)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError("bad variable name %r" % n)
        degrees = (0,) * len(self.residue_vars) + tuple(d for _, d in self.geometry)
        shifts = tuple(FIELD_BITS * i for i in range(len(names)))
        deg_shift = FIELD_BITS * len(names)
        # no cap: a threshold above the degree of any product of in-range keys
        cap = self.dim_cap if self.dim_cap is not None else 2 * EXP_MAX * sum(degrees)
        packing = {
            "names": names,
            "degrees": degrees,
            "_shifts": shifts,
            # adding e * _units[i] to a key adds e to slot i and e * degree to the degree field
            "_units": tuple((1 << s) + (d << deg_shift) for s, d in zip(shifts, degrees)),
            "_zero": sum(_BIAS << s for s in shifts),
            "_in_range": sum(1 << (s + FIELD_BITS - 2) for s in shifts),
            "_cap_limit": (cap + 1) << deg_shift,
        }
        for attr, value in packing.items():
            object.__setattr__(self, attr, value)

    @property
    def k(self) -> int:
        return len(self.residue_vars)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError("unknown variable %r" % name) from None

    def zero_key(self) -> Key:
        return (0,) * self.nvars

    def geometry_degree(self, key: Key) -> int:
        return sum(e * d for e, d in zip(key, self.degrees) if e)

    def _pack(self, key) -> int:
        if len(key) != len(self.names):
            raise ValueError("exponent vector %r has %d slots, not %d" % (key, len(key), len(self.names)))
        packed = self._zero
        for e, unit in zip(key, self._units):
            if not EXP_MIN <= e <= EXP_MAX:
                raise _out_of_range(e)
            packed += e * unit
        return packed

    def _unpack(self, packed: int) -> Key:
        return tuple(((packed >> s) & _MASK) - _BIAS for s in self._shifts)


def _make(ctx: VariableContext, terms: dict, den: int = 1) -> "MPoly":
    """An MPoly over packed terms whose coefficients and den > 0 share no factor."""
    p = object.__new__(MPoly)
    p.ctx, p._t, p._den, p._view = ctx, terms, den, None
    return p


def _reduced(ctx: VariableContext, terms: dict, den: int) -> "MPoly":
    """Divide the coefficients and den > 0 by their gcd (den of zero becomes 1)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return _make(ctx, terms, den)


class MPoly:
    """Immutable sparse polynomial (Laurent in the residue variables).

    MPoly(ctx, {exponent tuple: rational}) builds one from boundary data;
    zero coefficients are dropped.
    """

    __slots__ = ("ctx", "_t", "_den", "_view")

    def __init__(self, ctx: VariableContext, terms: Mapping = MappingProxyType({})):
        fracs = {}
        for key, coef in terms.items():
            coef = Fraction(coef)
            if coef:
                fracs[ctx._pack(key)] = coef
        den = lcm(*(c.denominator for c in fracs.values()))
        self.ctx, self._den, self._view = ctx, den, None
        self._t = {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}

    @property
    def terms(self) -> Mapping:
        """Read-only {exponent tuple: Fraction} view, decoded once."""
        if self._view is None:
            unpack, den = self.ctx._unpack, self._den
            self._view = MappingProxyType({unpack(k): Fraction(c, den) for k, c in self._t.items()})
        return self._view

    @classmethod
    def zero(cls, ctx: VariableContext) -> "MPoly":
        return _make(ctx, {})

    @classmethod
    def const(cls, ctx: VariableContext, value) -> "MPoly":
        value = Fraction(value)
        if not value:
            return _make(ctx, {})
        return _make(ctx, {ctx._zero: value.numerator}, value.denominator)

    @classmethod
    def var(cls, ctx: VariableContext, name: str, exp: int = 1) -> "MPoly":
        i = ctx.index(name)
        if not EXP_MIN <= exp <= EXP_MAX:
            raise _out_of_range(exp)
        return _make(ctx, {ctx._zero + exp * ctx._units[i]: 1})

    # -- predicates ---------------------------------------------------

    def __len__(self) -> int:
        """Number of terms, read off the packed form without decoding it."""
        return len(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and self.ctx._zero in self._t)

    def is_polynomial(self) -> bool:
        """No residue variable has a negative exponent.

        A field holds its exponent plus the bias, so an exponent is
        nonnegative exactly when the field's bias bit is set.
        """
        ctx = self.ctx
        bias_bits = ctx._zero & ((1 << FIELD_BITS * ctx.k) - 1)
        return all(key & bias_bits == bias_bits for key in self._t)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return Fraction(self._t.get(self.ctx._zero, 0), self._den)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.ctx, other)
        self._check(other)
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        m1, m2 = den // d1, den // d2
        terms = dict(self._t) if m1 == 1 else {k: c * m1 for k, c in self._t.items()}
        get = terms.get
        for key, coef in other._t.items():
            acc = get(key, 0) + coef * m2
            if acc:
                terms[key] = acc
            else:
                del terms[key]
        return _reduced(self.ctx, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ctx, {k: -c for k, c in self._t.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "MPoly", window: tuple | None = None, budget: int | None = None) -> "MPoly":
        """The product kernel: self * other, optionally windowed, always budgeted.

        window = (i, lo, hi) keeps only the terms whose exponent of
        variable i lies in [lo, hi].  The right operand is sorted once by
        that exponent, so each left term visits only the slice of it that
        can land in the window.  budget caps the number of terms of the
        growing product, DEFAULT_TERM_BUDGET when None; it is checked
        after each left term, and TermBudgetExceeded names the windowed
        variable.
        """
        self._check(other)
        if budget is None:
            budget = DEFAULT_TERM_BUDGET
        ctx = self.ctx
        limit, bias = ctx._cap_limit, ctx._zero
        right = list(other._t.items())
        if window is not None:
            i, lo, hi = window
            s = ctx._shifts[i]
            right.sort(key=lambda kc: (kc[0] >> s) & _MASK)
            exps = [((k >> s) & _MASK) - _BIAS for k, _ in right]
        terms: dict = {}
        get = terms.get
        for k1, c1 in self._t.items():
            row = right
            if window is not None:
                e1 = ((k1 >> s) & _MASK) - _BIAS
                row = right[bisect_left(exps, lo - e1) : bisect_right(exps, hi - e1)]
            k1 -= bias
            for k2, c2 in row:
                key = k1 + k2
                if key >= limit:
                    continue
                acc = get(key, 0) + c1 * c2
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]
            if len(terms) > budget:
                where = "" if window is None else " while eliminating %s" % ctx.names[window[0]]
                raise TermBudgetExceeded(
                    "intermediate size %d exceeds budget %d%s" % (len(terms), budget, where)
                )
        in_range = ctx._in_range
        for key in terms:
            if ((key >> 1) ^ key) & in_range != in_range:
                raise _out_of_range("in a product term %r" % (ctx._unpack(key),))
        return _reduced(ctx, terms, self._den * other._den)

    def scale(self, value) -> "MPoly":
        value = Fraction(value)
        if not value:
            return MPoly.zero(self.ctx)
        a = value.numerator
        return _reduced(self.ctx, {k: c * a for k, c in self._t.items()}, self._den * value.denominator)

    @staticmethod
    def product(ctx: VariableContext, factors, budget: int | None = None) -> "MPoly":
        """The factors' product by the product rule (module docstring), each mul under budget."""
        factors = list(factors)
        if any(f.ctx != ctx for f in factors):
            raise ValueError("context mismatch")
        if not factors:
            return MPoly.const(ctx, 1)
        out = factors.pop(max(range(len(factors)), key=lambda i: len(factors[i]._t)))
        for f in factors:
            out = out.scale(f.constant_value()) if f.is_constant() else out.mul(f, budget=budget)
        return out

    def pow(self, n: int) -> "MPoly":
        """self^n as the product of n copies of self."""
        if n < 0:
            raise ValueError("negative power on MPoly")
        return MPoly.product(self.ctx, [self] * n)

    __pow__ = pow

    def relabel(self, ctx: VariableContext, slots) -> "MPoly":
        """This polynomial moved into ctx, slot i going to slot slots[i].

        The targets must be distinct and each must have the degree of its
        source slot, so every term keeps its geometry degree; terms above
        ctx's dim_cap are dropped, as a product in ctx would drop them.
        Relabelling thus commutes with products whenever the source
        context caps no lower than ctx.
        """
        src, n = self.ctx, len(slots)
        if n != src.nvars:
            raise ValueError("need one target slot per variable, got %d for %d" % (n, src.nvars))
        if len(set(slots)) != n:
            raise ValueError("repeated target slot in %r" % (tuple(slots),))
        # Each run of source slots bound for consecutive target slots moves
        # as one masked block of biased fields.  base is ctx's zero key less
        # the bias of the slots the runs fill; the degree field moves whole,
        # since every target slot has its source's degree.
        degrees, src_degrees, top = ctx.degrees, src.degrees, ctx.nvars
        base, moves, first = ctx._zero, [], 0
        for i, j in enumerate(slots):
            if not 0 <= j < top or degrees[j] != src_degrees[i]:
                raise ValueError("cannot move %s into slot %r" % (src.names[i], j))
            if i + 1 == n or slots[i + 1] != j + 1:  # the run from first ends at i
                mask, t = (1 << FIELD_BITS * (i + 1 - first)) - 1, FIELD_BITS * slots[first]
                base -= (src._zero & mask) << t
                moves.append((FIELD_BITS * first, mask, t))
                first = i + 1
        src_deg, dst_deg = FIELD_BITS * n, FIELD_BITS * top
        limit = ctx._cap_limit
        terms = {}
        for key, coef in self._t.items():
            new = base + ((key >> src_deg) << dst_deg)
            for s, mask, t in moves:
                new += ((key >> s) & mask) << t
            if new < limit:
                terms[new] = coef
        return _reduced(ctx, terms, self._den)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            if self.is_constant() or isinstance(other, (int, Fraction)):
                try:
                    return self.is_constant() and self.constant_value() == Fraction(other)
                except (TypeError, ValueError):
                    return NotImplemented
            return NotImplemented
        return self.ctx == other.ctx and self._den == other._den and self._t == other._t

    __hash__ = None

    # -- structure ----------------------------------------------------

    def max_exponent(self, i: int) -> int:
        """Largest exponent of variable i present (0 for the zero poly)."""
        s = self.ctx._shifts[i]
        return max(((k >> s) & _MASK for k in self._t), default=_BIAS) - _BIAS

    def min_exponent(self, i: int) -> int:
        s = self.ctx._shifts[i]
        return min(((k >> s) & _MASK for k in self._t), default=_BIAS) - _BIAS

    def coefficient_of(self, i: int, exp: int) -> "MPoly":
        """Coefficient of names[i]^exp, with that variable slot zeroed."""
        ctx = self.ctx
        s, want = ctx._shifts[i], exp + _BIAS
        # zeroing the slot also takes exp * degree out of the degree field
        delta = exp * ctx._units[i]
        terms = {k - delta: c for k, c in self._t.items() if (k >> s) & _MASK == want}
        return _reduced(ctx, terms, self._den)

    def subs_num(self, assignment: Mapping) -> "MPoly":
        """Substitute rational values for a subset of variables."""
        idx_val = {self.ctx.index(n): Fraction(v) for n, v in assignment.items()}
        terms: dict = {}
        for key, coef in self.terms.items():
            c = coef
            nk = list(key)
            ok = True
            for i, v in idx_val.items():
                e = key[i]
                if e:
                    if v == 0 and e < 0:
                        ok = False
                        break
                    c = c * v ** e
                    nk[i] = 0
            if not ok:
                raise ZeroDivisionError("substituting 0 into a negative power")
            key2 = tuple(nk)
            terms[key2] = terms.get(key2, 0) + c
        return MPoly(self.ctx, terms)

    def eval_at(self, assignment: Mapping) -> Fraction:
        out = self.subs_num(assignment)
        return out.constant_value()

    def __repr__(self):
        return format_poly(self)

    __str__ = __repr__


# -- canonical text form ----------------------------------------------


def _term_rows(p: MPoly, den: int) -> list:
    """(sort key, monomial text, coefficient over den) per term of p.

    The sort key (-degree, ((i, -e), ...)) orders terms canonically:
    higher total exponent first, then by the (slot, -exponent) pairs of
    the nonzero fields in slot order.  Each packed key is read by its
    nonzero fields only, found by XOR with the context's zero key and a
    scan for the lowest set bit; a field's exponent is its value less the
    bias, which the XOR leaves as the 16-bit two's complement of e.
    """
    ctx = p.ctx
    names, zero = ctx.names, ctx._zero
    slots = (1 << (FIELD_BITS * len(names))) - 1  # every field below the degree field
    m = den // p._den
    rows = []
    for key, c in p._t.items():
        x = (key & slots) ^ zero
        pairs, factors = [], []
        deg = i = 0
        while x:
            skip = ((x & -x).bit_length() - 1) // FIELD_BITS
            x >>= skip * FIELD_BITS
            i += skip
            e = x & _MASK
            e -= (e & _BIAS) << 1
            deg += e
            pairs.append((i, -e))
            factors.append(names[i] if e == 1 else "%s^%d" % (names[i], e))
            x >>= FIELD_BITS
            i += 1
        rows.append(((-deg, tuple(pairs)), "*".join(factors), c * m))
    return rows


def _join_terms(rows, den: int) -> str:
    """Text of canonically sorted rows, each coefficient reduced against den."""
    chunks = []
    for _, mono, c in rows:
        num = -c if c < 0 else c
        g = gcd(num, den)
        coef = "%d" % (num // g) if g == den else "%d/%d" % (num // g, den // g)
        if not mono:
            body = coef
        elif coef == "1":
            body = mono
        else:
            body = "%s*%s" % (coef, mono)
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks) if chunks else "0"


def format_poly(p: MPoly) -> str:
    """Render in the canonical text form, e.g. ``3*L^2 + 2*L*c1 + c2``.

    Reads the packed terms by their nonzero fields (see _term_rows), and
    reduces each integer coefficient against the polynomial's denominator.
    """
    rows = _term_rows(p, p._den)
    rows.sort()
    return _join_terms(rows, p._den)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[\^*/+-]))"
)


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError("cannot parse %r" % text[pos:])
            return
        pos = m.end()
        kind = m.lastgroup
        yield kind, m.group(kind)


def parse_poly(ctx: VariableContext, text: str) -> MPoly:
    """Parse the canonical text form (inverse of :func:`format_poly`)."""
    tokens = list(_tokenize(text))
    if not tokens:
        raise ValueError("empty polynomial text")
    terms: dict = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign in %r" % text)
        coef = Fraction(sign)
        key = [0] * ctx.nvars
        while True:
            if i >= n:
                raise ValueError("dangling * in %r" % text)
            kind, tok = tokens[i]
            if kind == "num":
                val = Fraction(int(tok))
                i += 1
                if i < n and tokens[i] == ("op", "/"):
                    i += 1
                    if i >= n or tokens[i][0] != "num" or int(tokens[i][1]) == 0:
                        raise ValueError("bad rational in %r" % text)
                    val /= int(tokens[i][1])
                    i += 1
                coef *= val
            elif kind == "name":
                idx = ctx.index(tok)
                exp = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    esign = 1
                    if i < n and tokens[i] == ("op", "-"):
                        esign = -1
                        i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise ValueError("bad exponent in %r" % text)
                    exp = esign * int(tokens[i][1])
                    i += 1
                key[idx] += exp
            else:
                raise ValueError("unexpected %r in %r" % (tok, text))
            if i < n and tokens[i] == ("op", "*"):
                i += 1
                continue
            if i < n and tokens[i] not in (("op", "+"), ("op", "-")):
                raise ValueError("missing * before %r in %r" % (tokens[i][1], text))
            break
        key = tuple(key)
        terms[key] = terms.get(key, 0) + coef
    return MPoly(ctx, terms)


# -- linear forms ------------------------------------------------------


class LinearForm(Record):
    """A denominator (or numerator) factor Sum a_i z_i + const, with multiplicity.

    The constant part is a polynomial in geometry symbols only.  At least
    one residue coefficient or the constant part must be nonzero.
    """

    ctx: VariableContext
    z_coeffs: tuple  # Fractions, one per residue variable
    const_part: MPoly
    multiplicity: int = 1

    def __post_init__(self):
        if len(self.z_coeffs) != self.ctx.k:
            raise ValueError("z_coeffs length mismatch")
        # the residue variables are the lowest k fields of a packed key
        low = (1 << (FIELD_BITS * self.ctx.k)) - 1
        bias = self.ctx._zero & low
        if any(key & low != bias for key in self.const_part._t):
            raise ValueError("const_part touches a residue variable")
        if not any(self.z_coeffs) and self.const_part.is_zero():
            raise ValueError("identically zero linear form")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")

    def leading_index(self) -> int | None:
        """Index of the largest-modulus residue variable present."""
        for i in range(self.ctx.k - 1, -1, -1):
            if self.z_coeffs[i]:
                return i
        return None

    def as_poly(self) -> MPoly:
        p = self.const_part
        for i, a in enumerate(self.z_coeffs):
            if a:
                p = p + MPoly.var(self.ctx, self.ctx.names[i]).scale(a)
        return p

    def with_multiplicity(self, m: int) -> "LinearForm":
        return LinearForm(self.ctx, self.z_coeffs, self.const_part, m)

    def key(self):
        """Hashable identity of the form itself, ignoring multiplicity."""
        return (self.z_coeffs, tuple(sorted(self.const_part.terms.items())))

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.key() == other.key()
            and self.multiplicity == other.multiplicity
        )

    __hash__ = None

    def __repr__(self):
        """``(body)`` or ``(body)^m``, body the text of :meth:`as_poly`.

        The body is rendered from z_coeffs and the constant part's rows
        over one common denominator, without building the sum.
        """
        ctx, const = self.ctx, self.const_part
        den = lcm(const._den, *(a.denominator for a in self.z_coeffs))
        rows = _term_rows(const, den)
        rows += [
            ((-1, ((i, -1),)), ctx.names[i], a.numerator * (den // a.denominator))
            for i, a in enumerate(self.z_coeffs)
            if a
        ]
        rows.sort()
        body = _join_terms(rows, den)
        if self.multiplicity == 1:
            return "(%s)" % body
        return "(%s)^%d" % (body, self.multiplicity)


def linear_form(ctx: VariableContext, poly: MPoly, multiplicity: int = 1) -> LinearForm:
    """Build a LinearForm from a degree <= 1 polynomial in the residue vars."""
    coeffs = [Fraction(0)] * ctx.k
    const_terms: dict = {}
    for key, coef in poly.terms.items():
        zpart = [(i, e) for i, e in enumerate(key[: ctx.k]) if e]
        if not zpart:
            const_terms[key] = coef
            continue
        if len(zpart) > 1 or zpart[0][1] != 1 or any(key[ctx.k:]):
            raise ValueError("not linear in residue variables: %s" % poly)
        coeffs[zpart[0][0]] += coef
    return LinearForm(ctx, tuple(coeffs), MPoly(ctx, const_terms), multiplicity)


def split_power(text: str) -> tuple:
    """Split ``(body)^n`` into ``(body, n)``; ``(body)`` or ``body`` has n = 1.

    Raises ValueError when a closing parenthesis is followed by anything
    but ``^`` and an integer.
    """
    text = text.strip()
    mult = 1
    if not text.endswith(")") and ")" in text:
        body, _, tail = text.rpartition(")")
        tail = tail.strip()
        if not tail.startswith("^"):
            raise ValueError("bad power %r" % text)
        mult = int(tail[1:])
        text = body + ")"
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return text, mult


def parse_linear_form(ctx: VariableContext, text: str) -> LinearForm:
    """Parse ``(2*z10 - z20)`` or ``(z10 + z01 - z11)^3``."""
    body, mult = split_power(text)
    return linear_form(ctx, parse_poly(ctx, body), mult)
