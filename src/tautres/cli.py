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
"""

from __future__ import annotations

import argparse
import sys
import warnings

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
    for spec in args.q or ():
        if ":" not in spec:
            raise ConfigError("--q wants M:TEXT, got %r" % spec)
        m, text = spec.split(":", 1)
        q_polys[int(m)] = text.strip()
    terms = assemble_ghilb(
        args.k, severi_bundle(), generic_surface(), args.phi, q_polys
    )
    from .residue import fold_factors, iterated_residue

    # the numerator line prints the whole product, so each source problem
    # is folded and eliminated from that product; a relabel folds to the
    # relabel of its source's folded problem, listed before it
    folded = {}  # id of an assembled problem -> it folded
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
            relabel_of = problem.relabel_of
            source = None if relabel_of is None else folded[id(relabel_of[0])]
            folded[id(problem)] = fold_factors(problem, source)
            lines = _problem_lines(folded[id(problem)])
            if args.evaluate:
                lines.append("residue %s" % format_poly(residue(folded[id(problem)])))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautres",
        description="Exact tautological integrals over Hilbert schemes of points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a problem-config file")
    p.add_argument("config", help="path to a problem-config file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("severi", help="built-in nodal-degree problems")
    p.add_argument("--r", type=int, required=True, help="number of nodes")
    p.add_argument(
        "--d",
        type=int,
        default=None,
        help="also pair against the plane preset with L = d*H (r <= 2)",
    )
    p.add_argument("--epd", default=None, help="dual polynomial text (r >= 3 only)")
    p.add_argument(
        "--prefactor", default=None, help="rational prefactor p/q (r >= 3 only)"
    )
    p.add_argument(
        "--evaluate",
        action="store_true",
        help="for r >= 3, evaluate the emitted template as well",
    )
    p.set_defaults(func=_cmd_severi)

    p = sub.add_parser("ghilb", help="length-k merged-component term structure")
    p.add_argument("--k", type=int, required=True, help="number of points")
    p.add_argument(
        "--phi", default=None, help="Chern polynomial text in c1, c2, ... (default 1)"
    )
    p.add_argument(
        "--q",
        action="append",
        metavar="M:TEXT",
        help="homogeneous block polynomial Q_m for block size m+1 (m >= 1), "
        "text in z1..zm; repeatable",
    )
    p.add_argument(
        "--evaluate", action="store_true", help="also print each term's residue"
    )
    p.set_defaults(func=_cmd_ghilb)

    p = sub.add_parser("mdeg", help="multidegree of a monomial ideal")
    p.add_argument(
        "--gens", required=True, help="generators as exponent vectors, e.g. '2,0;1,1;0,2'"
    )
    p.add_argument(
        "--weights", required=True, help="weight symbols, one per variable, e.g. 'a,b'"
    )
    p.set_defaults(func=_cmd_mdeg)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.exit(2, "error: %s\n" % exc)
    except (OSError, ValueError, TermBudgetExceeded) as exc:
        parser.exit(2, "error: %s\n" % exc)
    except KeyError as exc:
        # input text naming a variable its context does not have
        parser.exit(2, "error: %s\n" % exc.args[0])


if __name__ == "__main__":
    sys.exit(main())
