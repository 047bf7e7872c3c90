"""Line-oriented problem configuration files.

A config describes one ResidueProblem over one surface model:

    [vars]              # contour order, innermost first
    z10 1
    z01 1

    [numerator]         # factors, one per line
    (z10 - z01)^2       # linear form with exponent
    chern 2             # c_2 of (L, L + z) over all declared variables

    [denominator]
    (z10*z01)^2         # monomial factors become exact inverses

    [segre]
    order=2 vars=z10,z01

    [prefactor]
    -1/2

    [surface]
    preset generic-surface

Tokens are ASCII, whitespace is insignificant, ``#`` starts a comment.
Weights may be omitted (all lines or none).  The geometry symbols are
the bundle root ``L`` plus the surface's Chern symbols.

A TermBudgetExceeded raised while building the numerator names the line.
"""

from __future__ import annotations

from fractions import Fraction

from .chern import (
    BundleModel,
    SURFACE_PRESETS,
    SurfaceModel,
    elementary_symmetric,
    segre_factor,
    twisted_roots,
)
from .poly import (
    MPoly,
    TermBudgetExceeded,
    VariableContext,
    parse_linear_form,
    parse_poly,
    split_power,
)
from .record import Record
from .residue import ResidueProblem


class ConfigError(ValueError):
    pass


_SECTIONS = ("vars", "numerator", "denominator", "segre", "prefactor", "surface")


class ProblemConfig(Record):
    """Parsed but uninterpreted config; build_problem turns it into objects."""

    var_lines: tuple = ()
    numerator_lines: tuple = ()
    denominator_lines: tuple = ()
    segre_order: int | None = None
    segre_vars: tuple = ()
    prefactor: Fraction = Fraction(1)
    surface_line: str = "preset generic-surface"


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def parse_prefactor(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError("bad prefactor %r" % text) from None


def parse_config(text: str) -> ProblemConfig:
    sections: dict = {name: [] for name in _SECTIONS}
    current = None
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("["):
            close = line.find("]")
            if close < 0:
                raise ConfigError("unterminated section header %r" % raw)
            name = line[1:close].strip().lower()
            if name not in sections:
                raise ConfigError("unknown section [%s]" % name)
            current = name
            rest = line[close + 1 :].strip()
            if rest:
                sections[name].append(rest)
            continue
        if current is None:
            raise ConfigError("content before any section: %r" % raw)
        sections[current].append(line)

    if not sections["vars"]:
        raise ConfigError("empty or missing [vars] section")

    var_lines = []
    for line in sections["vars"]:
        parts = line.split()
        if len(parts) == 1:
            var_lines.append((parts[0], None))
        elif len(parts) == 2:
            try:
                var_lines.append((parts[0], int(parts[1])))
            except ValueError:
                raise ConfigError("bad weight in %r" % line) from None
        else:
            raise ConfigError("expected 'name [weight]', got %r" % line)
    has_w = [w is not None for _, w in var_lines]
    if any(has_w) and not all(has_w):
        raise ConfigError("either all [vars] lines carry weights or none")

    segre_order = None
    segre_vars: list = []
    for line in sections["segre"]:
        for tok in line.split():
            if tok.startswith("order="):
                segre_order = int(tok[6:])
            elif tok.startswith("vars="):
                segre_vars.extend(v for v in tok[5:].split(",") if v)
            else:
                raise ConfigError("unknown [segre] token %r" % tok)

    prefactor = Fraction(1)
    if sections["prefactor"]:
        if len(sections["prefactor"]) > 1:
            raise ConfigError("multiple [prefactor] lines")
        prefactor = parse_prefactor(sections["prefactor"][0])

    surface_line = "preset generic-surface"
    if sections["surface"]:
        if len(sections["surface"]) > 1:
            raise ConfigError("multiple [surface] lines")
        surface_line = sections["surface"][0]

    return ProblemConfig(
        var_lines=tuple(var_lines),
        numerator_lines=tuple(sections["numerator"]),
        denominator_lines=tuple(sections["denominator"]),
        segre_order=segre_order,
        segre_vars=tuple(segre_vars),
        prefactor=prefactor,
        surface_line=surface_line,
    )


def load_config(path) -> ProblemConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())


def build_surface(line: str) -> SurfaceModel:
    parts = line.split()
    if not parts:
        raise ConfigError("empty [surface] line")
    if parts[0] == "preset":
        if len(parts) < 2:
            raise ConfigError("preset needs a name")
        name = parts[1]
        if name not in SURFACE_PRESETS:
            raise ConfigError(
                "unknown preset %r (have: %s)" % (name, ", ".join(sorted(SURFACE_PRESETS)))
            )
        kwargs = {}
        for tok in parts[2:]:
            if "=" not in tok:
                raise ConfigError("bad preset argument %r" % tok)
            key, val = tok.split("=", 1)
            kwargs[key] = int(val)
        try:
            return SURFACE_PRESETS[name](**kwargs)
        except TypeError as exc:
            raise ConfigError("bad preset arguments: %s" % exc) from None
    if parts[0] == "custom":
        fields = {}
        for tok in parts[1:]:
            if "=" not in tok:
                raise ConfigError("bad custom token %r" % tok)
            key, val = tok.split("=", 1)
            fields[key] = val
        try:
            dim = int(fields["dim"])
            chern = tuple(
                (sym, int(deg))
                for sym, deg in (c.split(":") for c in fields["chern"].split(","))
            )
            segre = tuple(fields["segre"].split(";"))
        except (KeyError, ValueError) as exc:
            raise ConfigError("custom surface needs dim=, chern=, segre=: %s" % exc)
        if len(segre) != dim:
            raise ConfigError("need %d segre values, got %d" % (dim, len(segre)))
        return SurfaceModel(
            name=fields.get("name", "custom"),
            dim=dim,
            chern_symbols=chern,
            segre_values=segre,
        )
    raise ConfigError("[surface] must start with 'preset' or 'custom'")


def _monomial_denominator(ctx: VariableContext, text: str) -> MPoly | None:
    """(z10*z01)^2 or z10 -> the exact inverse monomial, else None."""
    try:
        body, mult = split_power(text)
        p = parse_poly(ctx, body)
    except (ValueError, KeyError):
        return None
    if len(p.terms) != 1:
        return None
    (key, coef), = p.terms.items()
    if any(key[ctx.k :]) or not any(key[: ctx.k]) or any(e < 0 for e in key):
        return None
    inv = tuple(-e * mult for e in key)
    return MPoly(ctx, {inv: Fraction(1) / coef ** mult})


def _numerator_factor(ctx: VariableContext, bundle: BundleModel, line: str) -> MPoly:
    """One [numerator] line as a polynomial."""
    parts = line.split()
    if parts and parts[0] == "chern":
        if len(parts) != 2:
            raise ConfigError("chern clause needs one integer: %r" % line)
        offsets = [MPoly.var(ctx, n) for n in ctx.residue_vars]
        roots = twisted_roots(ctx, bundle, offsets)
        return elementary_symmetric(int(parts[1]), roots)
    try:
        if line.lstrip().startswith("("):
            form = parse_linear_form(ctx, line)
            return form.as_poly().pow(form.multiplicity)
        return parse_poly(ctx, line)
    except (ValueError, KeyError) as exc:
        raise ConfigError("bad numerator line %r: %s" % (line, exc)) from None


def build_problem(cfg: ProblemConfig):
    """Interpret a ProblemConfig; returns (ResidueProblem, SurfaceModel)."""
    surface = build_surface(cfg.surface_line)
    bundle = BundleModel(rank=1, roots=("L",))
    names = tuple(n for n, _ in cfg.var_lines)
    weights = [w for _, w in cfg.var_lines if w is not None]
    if any(a > b for a, b in zip(weights, weights[1:])):
        raise ConfigError("[vars] weights must be weakly monotone in contour position")
    geometry = (("L", 1),) + tuple(surface.chern_symbols)
    try:
        ctx = VariableContext(
            residue_vars=names,
            geometry=geometry,
            dim_cap=surface.dim,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    num = MPoly.const(ctx, 1)
    for line in cfg.numerator_lines:
        try:
            num = num.mul(_numerator_factor(ctx, bundle, line))
        except TermBudgetExceeded as exc:
            raise TermBudgetExceeded("%s in the config numerator line %r" % (exc, line)) from None

    forms = []
    laurents = []
    for line in cfg.denominator_lines:
        mono = _monomial_denominator(ctx, line)
        if mono is not None:
            laurents.append(mono)
            continue
        try:
            forms.append(parse_linear_form(ctx, line))
        except (ValueError, KeyError) as exc:
            raise ConfigError("bad denominator line %r: %s" % (line, exc)) from None

    if cfg.segre_order is not None and cfg.segre_order != surface.dim:
        raise ConfigError(
            "segre order=%d does not match surface dimension %d"
            % (cfg.segre_order, surface.dim)
        )
    for v in cfg.segre_vars:
        if v not in names:
            raise ConfigError("segre var %r is not a declared variable" % v)
        laurents.append(segre_factor(ctx, v, surface))

    try:
        problem = ResidueProblem(
            ctx=ctx,
            numerator=num,
            denominator=tuple(forms),
            factors=tuple(laurents),
            prefactor=cfg.prefactor,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return problem, surface
