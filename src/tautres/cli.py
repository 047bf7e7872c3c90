"""Command line front end.

Five subcommands:

  eval CONFIG     evaluate a problem-config file (see tautres.config)
  severi          built-in nodal-degree problems a_r, optional plane counts
  ghilb           per-partition term structure for length-k merged components
  mdeg            multidegree of a monomial ideal
  verify          run the full acceptance suite

Evaluating subcommands print the canonical polynomial text on a
`value` line followed by one record per basis monomial:

  value 3*L^2 + 2*L*c1 + c2
  L^2 3 1
  L*c1 2 1
  c1^2 0 1
  c2 1 1

with exact numerator/denominator integer pairs.  Exit status is 0 only
on full success.

Arguments are read from one table, COMMANDS: each subcommand's handler,
positionals and options, each option an int, text, flag or repeatable
(append) value.  An option is given as ``--name value`` or
``--name=value``, or by any prefix of its name that no other option of
the subcommand shares.  ``-h``/``--help`` prints usage from the same
table.  A missing, unknown, ambiguous or malformed argument is an
``error: ...`` line on stderr and exit status 2, as are errors in the
input the arguments name.  The table is plain data, so a call imports
no argument-parsing module.
"""

from __future__ import annotations

import sys
import warnings
from types import SimpleNamespace

from .assemble import (
    assemble_ghilb,
    assemble_severi,
    evaluate,
    severi_bundle,
    severi_coefficient,
)
from .chern import TopDegreeSelection, generic_surface, p2_surface, pair_integral
from .config import ConfigError, build_problem, load_config, parse_prefactor
from .diagrams import bell_transform, severi_count
from .multidegree import MonomialIdeal, codimension, multidegree
from .poly import MPoly, TermBudgetExceeded, VariableContext, format_poly
from .verify import verify_suite


def _emit_selection(sel: TopDegreeSelection) -> None:
    print("value %s" % sel.as_poly_text())
    for mono, coef in sel.coefficients.items():
        print("%s %d %d" % (mono, coef.numerator, coef.denominator))
    if not sel.remainder.is_zero():
        print(
            "warning: off-top-degree remainder %s" % format_poly(sel.remainder),
            file=sys.stderr,
        )


def _problem_lines(problem) -> list:
    """The text of a folded problem: its factors are all Laurent ones."""
    ctx = problem.ctx
    lines = [" ".join(("vars",) + ctx.names[: ctx.k]), "prefactor %s" % problem.prefactor]
    if len(problem.numerator) > 1000:
        # expanded text would run to megabytes; the library holds the exact value
        lines.append("numerator <%d terms, expansion suppressed>" % len(problem.numerator))
    else:
        lines.append("numerator %s" % format_poly(problem.numerator))
    lines.extend("denominator %r" % (f,) for f in problem.denominator)
    lines.extend("laurent %s" % format_poly(p) for p in problem.factors)
    return lines


def _cmd_eval(args) -> int:
    cfg = load_config(args.config)
    problem, surface = build_problem(cfg)
    _emit_selection(evaluate(problem, surface))
    return 0


def _cmd_severi(args) -> int:
    r = args.r
    if r > 3:
        # the template numerator grows factorially in the contour size;
        # r = 3 already expands to ~1.2e5 terms, r = 4 would not finish
        raise ConfigError("--r beyond 3 is impractical to expand exactly")
    if args.d is not None and r > 2:
        raise ConfigError("--d knows the pairing for r <= 2 only")
    if args.d is not None and args.d < 1:
        raise ConfigError("--d wants a plane curve degree >= 1, got %d" % args.d)
    prefactor = parse_prefactor(args.prefactor) if args.prefactor else None
    # the library's warnings (r >= 3 is uncalibrated) as plain stderr lines
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        problem = assemble_severi(r, epd=args.epd, prefactor=prefactor)
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)
    if r > 2:
        print("\n".join(_problem_lines(problem)))
        if not args.evaluate:
            return 0
    sel = evaluate(problem, generic_surface())
    _emit_selection(sel)
    if args.d is not None:
        surface = p2_surface(args.d)
        coefficients = [severi_coefficient(q).coefficients for q in range(1, r)]
        coefficients.append(sel.coefficients)
        a_vals = [pair_integral(c, surface) for c in coefficients]
        p_vals = bell_transform(a_vals)
        n_r = severi_count(p_vals[r - 1], r)
        a_r = a_vals[r - 1]
        print("a_%d[P2 d=%d] %d %d" % (r, args.d, a_r.numerator, a_r.denominator))
        print("N_%d[P2 d=%d] %d %d" % (r, args.d, n_r.numerator, n_r.denominator))
    return 0


def _cmd_ghilb(args) -> int:
    q_polys = {}
    for spec in args.q:
        if ":" not in spec:
            raise ConfigError("--q wants M:TEXT, got %r" % spec)
        m, text = spec.split(":", 1)
        try:
            m = int(m)
        except ValueError:
            raise ConfigError("--q wants an integer M in M:TEXT, got %r" % spec) from None
        if m in q_polys:
            raise ConfigError("--q gives Q_%d twice" % m)
        q_polys[m] = text.strip()
    terms = assemble_ghilb(
        args.k, severi_bundle(), generic_surface(), args.phi, q_polys
    )
    from .residue import fold_factors, iterated_residue

    # the numerator line prints the whole product, so each source problem
    # is folded and eliminated from that product; a relabel folds to the
    # relabel of its source's folded problem, listed before it, dropped
    # once its body is rendered
    folded = {}  # id of an assembled source problem -> it folded
    residues = {}  # id of an eliminated problem -> its residue

    def residue(problem):
        # a relabel's residue is its source's, eliminated once, relabelled
        if problem.relabel_of is not None:
            source, slots = problem.relabel_of
            return residue(source).relabel(problem.ctx, slots)
        if id(problem) not in residues:
            residues[id(problem)] = iterated_residue(problem)
        return residues[id(problem)]

    bodies = {}  # terms sharing a problem object share its text and residue
    for alpha, problem in terms:
        if id(problem) not in bodies:
            if problem.relabel_of is None:
                body = folded[id(problem)] = fold_factors(problem)
            else:
                body = fold_factors(problem, folded[id(problem.relabel_of[0])])
            lines = _problem_lines(body)
            if args.evaluate:
                lines.append("residue %s" % format_poly(residue(body)))
            bodies[id(problem)] = "\n".join(lines)
        label = "".join("{%s}" % ",".join(str(x) for x in blk) for blk in alpha)
        print("term %s" % label)
        print(bodies[id(problem)])
        print()
    return 0


def _cmd_mdeg(args) -> int:
    try:
        gens = tuple(
            tuple(int(x) for x in vec.split(",")) for vec in args.gens.split(";")
        )
    except ValueError:
        raise ConfigError("--gens wants e.g. '2,0;1,1;0,2'")
    names = tuple(w.strip() for w in args.weights.split(","))
    if not all(names):
        raise ConfigError("--weights wants comma-separated symbol names")
    ctx = VariableContext(geometry=tuple((n, 1) for n in names))
    ideal = MonomialIdeal(
        num_vars=len(names),
        generators=gens,
        weights=tuple(MPoly.var(ctx, n) for n in names),
    )
    print("codim %d" % codimension(ideal))
    print("mdeg %s" % format_poly(multidegree(ideal)))
    return 0


def _cmd_verify(args) -> int:
    results = verify_suite()
    for r in results:
        print("%s  %s  (%s)" % ("PASS" if r.passed else "FAIL", r.name, r.detail))
    passed = sum(r.passed for r in results)
    print("%d/%d criteria passed" % (passed, len(results)))
    return 0 if passed == len(results) else 1


INT, TEXT, FLAG, APPEND = "int", "text", "flag", "append"

# subcommand -> (handler, help, positionals as (name, help), options as
# (name, kind, required, help)); a handler reads each name as an attribute
COMMANDS = {
    "eval": (
        _cmd_eval,
        "evaluate a problem-config file",
        (("config", "path to a problem-config file"),),
        (),
    ),
    "severi": (
        _cmd_severi,
        "built-in nodal-degree problems",
        (),
        (
            ("r", INT, True, "number of nodes"),
            ("d", INT, False, "also pair against the plane preset with L = d*H (r <= 2)"),
            ("epd", TEXT, False, "dual polynomial text (r >= 3 only)"),
            ("prefactor", TEXT, False, "rational prefactor p/q (r >= 3 only)"),
            ("evaluate", FLAG, False, "for r >= 3, evaluate the emitted template as well"),
        ),
    ),
    "ghilb": (
        _cmd_ghilb,
        "length-k merged-component term structure",
        (),
        (
            ("k", INT, True, "number of points"),
            ("phi", TEXT, False, "Chern polynomial text in c1, c2, ... (default 1)"),
            (
                "q",
                APPEND,
                False,
                "homogeneous block polynomial Q_m for block size m+1 (m >= 1), "
                "given as M:TEXT with TEXT in z1..zm; repeatable",
            ),
            ("evaluate", FLAG, False, "also print each term's residue"),
        ),
    ),
    "mdeg": (
        _cmd_mdeg,
        "multidegree of a monomial ideal",
        (),
        (
            ("gens", TEXT, True, "generators as exponent vectors, e.g. '2,0;1,1;0,2'"),
            ("weights", TEXT, True, "weight symbols, one per variable, e.g. 'a,b'"),
        ),
    ),
    "verify": (_cmd_verify, "run the acceptance suite", (), ()),
}


def _help(command: str | None) -> str:
    """Usage text for the program, or for one subcommand, from COMMANDS."""
    if command is None:
        lines = [
            "usage: tautres {%s} ..." % ",".join(COMMANDS),
            "",
            "Exact tautological integrals over Hilbert schemes of points.",
            "",
            "commands:",
        ]
        lines.extend("  %-8s  %s" % (name, spec[1]) for name, spec in COMMANDS.items())
        lines.append("\n'tautres COMMAND -h' lists a command's arguments.")
        return "\n".join(lines)
    _, about, positionals, options = COMMANDS[command]
    usage = ["usage: tautres", command]
    rows = [(name.upper(), text) for name, text in positionals]
    for name, kind, required, text in options:
        flag = "--" + name if kind == FLAG else "--%s %s" % (name, name.upper())
        usage.append(flag if required else "[%s]" % flag)
        rows.append((flag, text))
    usage.extend(name.upper() for name, _ in positionals)
    width = max((len(flag) for flag, _ in rows), default=0)
    lines = [" ".join(usage), "", about]
    if rows:
        lines.append("")
        lines.extend("  %-*s  %s" % (width, flag, text) for flag, text in rows)
    return "\n".join(lines)


def _option(token: str, names: tuple) -> str:
    """The option a --name token names: exactly, or by a prefix of one name."""
    if token in names:
        return token
    hits = [name for name in names if name.startswith(token)] if token else []
    if len(hits) == 1:
        return hits[0]
    if hits:
        raise ConfigError(
            "ambiguous option --%s could be %s" % (token, ", ".join("--" + h for h in hits))
        )
    raise ConfigError("unknown option --%s" % token)


def parse_args(argv: list) -> tuple:
    """The handler argv names and the namespace of values to call it with.

    Reads ``--name value``, ``--name=value``, flags, repeated append
    options and unambiguous prefixes of option names; ``--`` ends the
    options.  -h or --help prints the usage and raises SystemExit(0).  A
    missing, unknown, ambiguous or malformed argument raises ConfigError.
    """
    command = handler = None
    options, values, pending = {}, {}, []
    tokens = iter(argv)
    only_positionals = False
    for token in tokens:
        if only_positionals or token == "-" or not token.startswith("-"):
            if command is None:
                if token not in COMMANDS:
                    raise ConfigError(
                        "unknown subcommand %r (choose from %s)" % (token, ", ".join(COMMANDS))
                    )
                command = token
                handler, _, positionals, specs = COMMANDS[token]
                options = {name: kind for name, kind, _, _ in specs}
                values = {name: {FLAG: False, APPEND: []}.get(kind) for name, kind in options.items()}
                pending = [name for name, _ in positionals]
            elif pending:
                values[pending.pop(0)] = token
            else:
                raise ConfigError("unexpected argument %r" % token)
            continue
        if token == "--":
            only_positionals = True
            continue
        if token == "-h":
            name, value = "help", None
        elif token.startswith("--"):
            name, eq, value = token[2:].partition("=")
            name = _option(name, tuple(options) + ("help",))
            value = value if eq else None
        else:
            raise ConfigError("unknown option %s" % token)
        if name == "help":
            print(_help(command))
            raise SystemExit(0)
        kind = options[name]
        if kind == FLAG:
            if value is not None:
                raise ConfigError("--%s takes no value" % name)
            values[name] = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None:
                raise ConfigError("--%s wants a value" % name)
        if kind == INT:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError("--%s wants an integer, got %r" % (name, value)) from None
        if kind == APPEND:
            values[name].append(value)
        else:
            values[name] = value
    if command is None:
        raise ConfigError("no subcommand given (choose from %s)" % ", ".join(COMMANDS))
    missing = ["--" + name for name, _, required, _ in specs if required and values[name] is None]
    missing.extend(name.upper() for name in pending)
    if missing:
        raise ConfigError("%s needs %s" % (command, ", ".join(missing)))
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except (OSError, ValueError, TermBudgetExceeded) as exc:  # ConfigError is a ValueError
        message = exc
    except KeyError as exc:
        # input text naming a variable its context does not have
        message = exc.args[0]
    sys.stderr.write("error: %s\n" % message)
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
