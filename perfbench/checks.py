"""Exact output checkers for the benchmark workloads.

The checkers read the program's canonical polynomial text with their own
parser and compare against sources that do not run the code under test:
the classical plane node counts, golden per-monomial values recorded at
a fixed commit (``golden.json``), and the Severi template's defining
factors evaluated here.  Each checker returns a list of failure strings;
an empty list means the output is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# a_1 and a_2 in the basis (L^2, L*c1, c1^2, c2); c1 is the canonical class.
NODAL_COEFFICIENTS = {
    1: {"L^2": Fraction(3), "L*c1": Fraction(2), "c1^2": Fraction(0), "c2": Fraction(1)},
    2: {"L^2": Fraction(-42), "L*c1": Fraction(-39), "c1^2": Fraction(-6), "c2": Fraction(-7)},
}


def p2_pairing(d: int) -> dict:
    """Intersection numbers on P2 with L = d*H and c1 the canonical class."""
    return {"L^2": d * d, "L*c1": -3 * d, "c1^2": 9, "c2": 3}


def plane_node_count(r: int, d: int) -> Fraction:
    """Kleiman-Piene closed forms for r-nodal plane curves of degree d."""
    if r == 1:
        return Fraction(3 * (d - 1) ** 2)
    if r == 2:
        return Fraction(3, 2) * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)
    raise ValueError("no closed form for r=%d" % r)


# -- canonical text -------------------------------------------------------


def _monomial(factors) -> str:
    """Order-free monomial key: sorted 'name^e' factors joined by '*'."""
    powers: dict = {}
    for f in factors:
        name, _, exp = f.partition("^")
        powers[name] = powers.get(name, 0) + (int(exp) if exp else 1)
    return "*".join(
        name if e == 1 else "%s^%d" % (name, e) for name, e in sorted(powers.items()) if e
    )


def _terms(text: str):
    """Yield (coefficient, factor strings) per term of canonical text.

    Accepts the form the library prints, ``-3*L_1^2 + 8*L_1*L_2 - 5/2*c1``,
    and raises ValueError on anything else.
    """
    if text.strip() == "0":
        return
    sign = 1
    expect_term = True
    for tok in text.split():
        if not expect_term:
            if tok not in ("+", "-"):
                raise ValueError("expected + or - before %r" % tok)
            sign = 1 if tok == "+" else -1
            expect_term = True
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        factors = tok.split("*")
        coef = sign
        if factors[0][:1].isdigit():
            c = factors.pop(0)
            coef *= Fraction(c) if "/" in c else int(c)
        if not all(f[:1].isalpha() or f[:1] == "_" for f in factors):
            raise ValueError("bad term %r" % tok)
        yield coef, factors
        sign = 1
        expect_term = False
    if expect_term:
        raise ValueError("dangling sign in %r" % text[-40:])


def parse_poly_text(text: str) -> dict:
    """Canonical polynomial text -> {monomial: Fraction}, zero terms dropped."""
    out: dict = {}
    for coef, factors in _terms(text):
        mono = _monomial(factors)
        out[mono] = out.get(mono, 0) + coef
    return {m: Fraction(v) for m, v in out.items() if v}


def combine(a: int, first: dict, b: int, second: dict) -> dict:
    """a*first + b*second over {monomial: value} maps, zeros dropped."""
    out: dict = {}
    for scale, part in ((a, first), (b, second)):
        for mono, value in part.items():
            out[mono] = out.get(mono, Fraction(0)) + scale * Fraction(value)
    return {m: v for m, v in out.items() if v}


def decode(values: dict) -> dict:
    """Golden-file value map ({monomial: 'p/q'}) -> {monomial: Fraction}."""
    return {m: Fraction(v) for m, v in values.items()}


def encode(values: dict) -> dict:
    return {m: str(v) for m, v in sorted(values.items())}


# -- nodal ----------------------------------------------------------------


def _records(stdout: str) -> dict:
    """Lines 'NAME NUM DEN' -> {NAME: Fraction}; the value line is skipped."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) < 3 or parts[0] == "value":
            continue
        try:
            out[" ".join(parts[:-2])] = Fraction(int(parts[-2]), int(parts[-1]))
        except ValueError:
            continue
    return out


def check_nodal(item: dict, returncode: int, stdout: str) -> list:
    """One nodal CLI call: coefficient records, and for severi the P2 counts."""
    if returncode != 0:
        return ["exit status %d" % returncode]
    r = item["r"]
    got = _records(stdout)
    want = dict(NODAL_COEFFICIENTS[r])
    d = item.get("d")
    if d is not None:
        pairing = p2_pairing(d)
        want["a_%d[P2 d=%d]" % (r, d)] = sum(c * pairing[m] for m, c in NODAL_COEFFICIENTS[r].items())
        want["N_%d[P2 d=%d]" % (r, d)] = plane_node_count(r, d)
    return [
        "%s: got %s, want %s" % (name, got.get(name), value)
        for name, value in want.items()
        if got.get(name) != value
    ]


# -- punctual -------------------------------------------------------------


def check_punctual(coeffs: dict, remainder_text: str, a: int, b: int, golden: dict) -> list:
    """Selection of phi = a*c2 + b*c1^2 against the golden per-monomial values.

    coeffs maps basis monomial text to Fraction; remainder_text is the
    canonical text of the off-top-degree remainder.
    """
    fails = []
    want_coeffs = combine(a, decode(golden["c2"]["coefficients"]), b, decode(golden["c1^2"]["coefficients"]))
    got_coeffs = {m: Fraction(v) for m, v in coeffs.items() if v}
    if got_coeffs != want_coeffs:
        fails.append("coefficients %s, want %s" % (encode(got_coeffs), encode(want_coeffs)))
    want_rem = combine(a, decode(golden["c2"]["remainder"]), b, decode(golden["c1^2"]["remainder"]))
    got_rem = parse_poly_text(remainder_text)
    if got_rem != want_rem:
        fails.append("remainder %s, want %s" % (encode(got_rem), encode(want_rem)))
    return fails


# -- hilb -----------------------------------------------------------------


def ghilb_residues(stdout: str) -> list:
    """(term label, residue text) pairs from `ghilb --evaluate` output."""
    out = []
    label = None
    for line in stdout.splitlines():
        if line.startswith("term "):
            label = line[5:].strip()
        elif line.startswith("residue "):
            if label is None:
                raise ValueError("residue line before any term line")
            out.append((label, line[8:]))
            label = None
    return out


def check_hilb(returncode: int, stdout: str, a: int, b: int, golden: dict) -> list:
    """Every term's residue equals a*value(c2) + b*value(c1^2) from the golden file."""
    if returncode != 0:
        return ["exit status %d" % returncode]
    try:
        pairs = ghilb_residues(stdout)
    except ValueError as exc:
        return [str(exc)]
    fails = []
    if [label for label, _ in pairs] != list(golden):
        fails.append("term labels differ from the golden file (%d terms, want %d)" % (len(pairs), len(golden)))
    for label, text in pairs:
        if label not in golden:
            continue
        want = combine(a, decode(golden[label]["c2"]), b, decode(golden[label]["c1^2"]))
        try:
            got = parse_poly_text(text)
        except ValueError as exc:
            fails.append("term %s: %s" % (label, exc))
            continue
        if got != want:
            fails.append("term %s: residue %s, want %s" % (label, encode(got), encode(want)))
    return fails


# -- Severi template numerator ------------------------------------------


def severi_box_names(r: int) -> list:
    """Variables in the template's refined order: boxes x^a, then x^b*y."""
    return ["z%d0" % a for a in range(1, 2 * r)] + ["z%d1" % b for b in range(r)]


def _elementary_in_l(m: int, shifts, cap: int) -> list:
    """e_m of the roots L + s (s in shifts), as L-coefficients up to degree cap."""
    # e[j][l]: coefficient of L^l in e_j of the roots seen so far
    e = [[Fraction(0)] * (cap + 1) for _ in range(m + 1)]
    e[0][0] = Fraction(1)
    for s in shifts:
        for j in range(m, 0, -1):
            prev = e[j - 1]
            row = e[j]
            for l in range(cap, -1, -1):
                row[l] += prev[l] * s + (prev[l - 1] if l else 0)
    return e[m]


def template_value(r: int, point: dict, cap: int = 2) -> dict:
    """The r >= 2 Severi template numerator at a rational point, by its definition.

    prod over ordered pairs (a before b) of (z_a - z_b), times c_{2r} of
    (L, L + z for every box variable), with L-degree above the surface
    dimension dropped.  Returns {monomial in L: Fraction}.
    """
    names = severi_box_names(r)
    diff = Fraction(1)
    for a, b in itertools.combinations(names, 2):
        diff *= point[a] - point[b]
    e = _elementary_in_l(2 * r, [Fraction(0)] + [point[n] for n in names], cap)
    out = {}
    for l, c in enumerate(e):
        if c * diff:
            out[_monomial(["L"] * l)] = c * diff
    return out


def evaluate_text(text: str, point: dict):
    """Substitute a rational point into canonical polynomial text.

    Symbols not in point are kept.  Returns (number of terms, {monomial:
    Fraction}).  Works in integers over the point's common denominator,
    one pass over the text, because the r=3 numerator prints 5.5 MB.
    """
    q = math.lcm(*(Fraction(v).denominator for v in point.values()))
    scaled = {n: int(Fraction(v) * q) for n, v in point.items()}
    factor_cache: dict = {}

    def factor(f):
        name, _, exp = f.partition("^")
        e = int(exp) if exp else 1
        if name in scaled:
            return scaled[name] ** e, e, None
        return 1, 0, f

    sums: dict = {}
    terms = 0
    for coef, factors in _terms(text):
        value, deg, rest = coef, 0, []
        for f in factors:
            hit = factor_cache.get(f)
            if hit is None:
                hit = factor_cache[f] = factor(f)
            value *= hit[0]
            deg += hit[1]
            if hit[2] is not None:
                rest.append(hit[2])
        key = ("*".join(rest), deg)
        sums[key] = sums.get(key, 0) + value
        terms += 1
    out: dict = {}
    for (rest, deg), value in sums.items():
        mono = _monomial(rest.split("*") if rest else ())
        out[mono] = out.get(mono, Fraction(0)) + Fraction(value) / q ** deg
    return terms, {m: v for m, v in out.items() if v}


def check_template(numerator_text: str, r: int, point: dict, expected_terms: int) -> list:
    """Term count and exact value at a point of the Severi template numerator."""
    terms, got = evaluate_text(numerator_text, point)
    fails = []
    if terms != expected_terms:
        fails.append("numerator has %d terms, want %d" % (terms, expected_terms))
    want = template_value(r, point)
    if got != want:
        fails.append("numerator at the check point is %s, want %s" % (encode(got), encode(want)))
    return fails
