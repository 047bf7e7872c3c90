"""Problem-config parsing and the command line front end."""

import hashlib
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from tautres import assemble, cli
from tautres.config import (
    ConfigError,
    build_problem,
    build_surface,
    load_config,
    parse_config,
)
from tautres.assemble import evaluate
from tautres.poly import MPoly, TermBudgetExceeded


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


# -- parsing ------------------------------------------------------------------


def test_parse_full_config_with_comments():
    cfg = parse_config(
        """
        # one-node problem
        [vars]
        z10 1
        z01 1   # innermost first
        [numerator]
        (z10 - z01)^2
        chern 2
        [denominator]
        (z10*z01)^2
        [segre] order=2 vars=z10,z01
        [prefactor]
        -1/2
        [surface]
        preset generic-surface
        """
    )
    assert cfg.var_lines == (("z10", 1), ("z01", 1))
    assert cfg.numerator_lines == ("(z10 - z01)^2", "chern 2")
    assert cfg.denominator_lines == ("(z10*z01)^2",)
    assert (cfg.segre_order, cfg.segre_vars) == (2, ("z10", "z01"))
    assert cfg.prefactor == Fraction(-1, 2)
    assert cfg.surface_line == "preset generic-surface"


def test_parse_weights_are_all_or_none():
    with pytest.raises(ConfigError, match="all .* or none"):
        parse_config("[vars]\nz1 1\nz2\n")
    cfg = parse_config("[vars]\nz1\nz2\n")
    assert cfg.var_lines == (("z1", None), ("z2", None))


def test_parse_errors():
    with pytest.raises(ConfigError, match="empty or missing"):
        parse_config("")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[stuff]\nx\n")
    with pytest.raises(ConfigError, match="unterminated"):
        parse_config("[vars\nz1\n")
    with pytest.raises(ConfigError, match="before any section"):
        parse_config("z1\n[vars]\nz1\n")
    with pytest.raises(ConfigError, match="bad weight"):
        parse_config("[vars]\nz1 heavy\n")
    with pytest.raises(ConfigError, match="name \\[weight\\]"):
        parse_config("[vars]\nz1 1 2\n")
    with pytest.raises(ConfigError, match="multiple \\[prefactor\\]"):
        parse_config("[vars]\nz1\n[prefactor]\n1\n2\n")
    with pytest.raises(ConfigError, match="bad prefactor"):
        parse_config("[vars]\nz1\n[prefactor]\none half\n")
    with pytest.raises(ConfigError, match="unknown \\[segre\\] token"):
        parse_config("[vars]\nz1\n[segre]\ndepth=2\n")


# -- surfaces -------------------------------------------------------------------


def test_build_surface_presets():
    s = build_surface("preset generic-surface")
    assert (s.name, s.dim) == ("generic-surface", 2)
    p = build_surface("preset P2 d=4")
    assert p.pairing == {"L^2": 16, "L*c1": -12, "c1^2": 9, "c2": 3}
    with pytest.raises(ConfigError, match="unknown preset"):
        build_surface("preset K3")
    with pytest.raises(ConfigError, match="needs a name"):
        build_surface("preset")
    with pytest.raises(ConfigError, match="bad preset arguments"):
        build_surface("preset generic-surface d=2")


def test_build_surface_custom():
    s = build_surface("custom dim=2 chern=c1:1,c2:2 segre=c1;c1^2-c2")
    assert s.chern_symbols == (("c1", 1), ("c2", 2))
    assert s.segre_values == ("c1", "c1^2-c2")
    with pytest.raises(ConfigError, match="needs dim=, chern=, segre="):
        build_surface("custom dim=2")
    with pytest.raises(ConfigError, match="segre values"):
        build_surface("custom dim=2 chern=c1:1 segre=c1")
    with pytest.raises(ConfigError, match="preset.*or.*custom"):
        build_surface("flat")


# -- problem building --------------------------------------------------------------


def test_build_problem_denominator_split():
    cfg = parse_config(
        """
        [vars]
        z1 1
        z2 1
        [denominator]
        z1
        (z1*z2)^2
        (2*z1 - z2)
        (z1 + z2)
        """
    )
    prob, surface = build_problem(cfg)
    ctx = prob.ctx
    assert surface.dim == 2
    # plain monomials become exact inverse Laurent factors
    assert prob.factors == (
        MPoly.var(ctx, "z1", -1),
        MPoly(ctx, {(-2, -2, 0, 0, 0): 1}),
    )
    assert [repr(f) for f in prob.denominator] == ["(2*z1 - z2)", "(z1 + z2)"]


def test_build_problem_segre_checks():
    with pytest.raises(ConfigError, match="does not match surface dimension"):
        build_problem(parse_config("[vars]\nz1\n[segre]\norder=3 vars=z1\n"))
    with pytest.raises(ConfigError, match="not a declared variable"):
        build_problem(parse_config("[vars]\nz1\n[segre]\norder=2 vars=z9\n"))


def test_build_problem_rejects_bad_lines():
    with pytest.raises(ConfigError, match="bad numerator line"):
        build_problem(parse_config("[vars]\nz1\n[numerator]\nq + 1\n"))
    with pytest.raises(ConfigError, match="chern clause"):
        build_problem(parse_config("[vars]\nz1\n[numerator]\nchern 2 3\n"))
    with pytest.raises(ConfigError, match="constant denominator"):
        build_problem(parse_config("[vars]\nz1\n[denominator]\n(L)\n"))
    with pytest.raises(ConfigError, match="weakly monotone"):
        build_problem(parse_config("[vars]\nz1 2\nz2 1\n"))


@pytest.mark.parametrize("name", ["one_node.cfg", "two_node.cfg"])
def test_every_config_product_is_budgeted(monkeypatch, name):
    # MPoly.mul takes no budget: every product holds the kernel's, so a
    # budget one below the largest product seen refuses the same build
    sizes = []
    mul = MPoly.mul

    def spy(self, other, window=None):
        out = mul(self, other, window=window)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(MPoly, "mul", spy)
    cfg = load_config(CONFIGS / name)
    build_problem(cfg)
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", max(sizes) - 1)
    with pytest.raises(TermBudgetExceeded):
        build_problem(cfg)


def test_config_numerator_over_budget_names_its_line(monkeypatch):
    monkeypatch.setattr("tautres.poly.DEFAULT_TERM_BUDGET", 4)
    cfg = "[vars]\nz1\nz2\n[numerator]\n(z1 - z2)\n%s\n"
    for line in ("(z1 + z2 + L)^3", "chern 2", "z1^2 + z1*z2 + z2^2 + L^2 + 1"):
        where = re.escape("in the config numerator line %r" % line)
        with pytest.raises(TermBudgetExceeded, match=where):
            build_problem(parse_config(cfg % line))
    build_problem(parse_config(cfg % "(z1 + z2)"))


def test_config_route_reproduces_one_node_coefficient():
    prob, surface = build_problem(load_config(CONFIGS / "one_node.cfg"))
    sel = evaluate(prob, surface)
    assert sel.remainder.is_zero()
    assert sel.coefficients == {
        "L^2": Fraction(3),
        "L*c1": Fraction(2),
        "c1^2": Fraction(0),
        "c2": Fraction(1),
    }


def test_config_route_reproduces_two_node_coefficient():
    prob, surface = build_problem(load_config(CONFIGS / "two_node.cfg"))
    sel = evaluate(prob, surface)
    assert sel.remainder.is_zero()
    assert sel.coefficients == {
        "L^2": Fraction(-42),
        "L*c1": Fraction(-39),
        "c1^2": Fraction(-6),
        "c2": Fraction(-7),
    }


# -- command line -----------------------------------------------------------------


def lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_cli_severi_one_node(capsys):
    assert cli.main(["severi", "--r", "1"]) == 0
    assert lines(capsys) == [
        "value 3*L^2 + 2*L*c1 + c2",
        "L^2 3 1",
        "L*c1 2 1",
        "c1^2 0 1",
        "c2 1 1",
    ]


def test_cli_severi_two_node_with_plane_counts(capsys):
    assert cli.main(["severi", "--r", "2", "--d", "4"]) == 0
    out = lines(capsys)
    assert out[0] == "value -42*L^2 - 39*L*c1 - 6*c1^2 - 7*c2"
    assert out[1:5] == ["L^2 -42 1", "L*c1 -39 1", "c1^2 -6 1", "c2 -7 1"]
    assert out[5] == "a_2[P2 d=4] -279 1"
    assert out[6] == "N_2[P2 d=4] 225 1"


def test_cli_severi_evaluates_each_coefficient_once(capsys, monkeypatch):
    calls = []
    real = assemble.iterated_residue

    def counting(problem, *args, **kwargs):
        calls.append(problem)
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(assemble, "iterated_residue", counting)
    assert cli.main(["severi", "--r", "2", "--d", "5"]) == 0
    assert lines(capsys) == [
        "value -42*L^2 - 39*L*c1 - 6*c1^2 - 7*c2",
        "L^2 -42 1",
        "L*c1 -39 1",
        "c1^2 -6 1",
        "c2 -7 1",
        "a_2[P2 d=5] -540 1",
        "N_2[P2 d=5] 882 1",
    ]
    # a_2 for the value lines, a_1 for the plane count; a_2 is not redone
    assert len(calls) == 2
    calls.clear()
    assert cli.main(["severi", "--r", "1", "--d", "3"]) == 0
    assert lines(capsys)[-2:] == ["a_1[P2 d=3] 12 1", "N_1[P2 d=3] 12 1"]
    assert len(calls) == 1


def test_cli_severi_pairing_beyond_two_fails_before_building(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assemble_severi called")

    monkeypatch.setattr(cli, "assemble_severi", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(["severi", "--r", "3", "--d", "4"])
    assert exc.value.code == 2
    assert "r <= 2 only" in capsys.readouterr().err


def test_cli_severi_template_warns_on_one_plain_stderr_line():
    # the library's UserWarning would print as the path and line of its
    # caller inside the CLI; the CLI prints its message as a warning line
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "tautres.cli", "severi", "--r", "3"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: Severi conventions beyond r=2 are uncalibrated; "
        "supply epd and prefactor explicitly and validate independently\n"
    )
    assert proc.stdout.startswith("vars z10 z01 z20 z11 z30 z21 z40 z50\nprefactor 1\n")
    assert "numerator <120960 terms, expansion suppressed>\n" in proc.stdout


def test_cli_severi_rejects_nonpositive_degree(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assemble_severi called")

    monkeypatch.setattr(cli, "assemble_severi", refuse)
    for d in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["severi", "--r", "2", "--d", d])
        assert exc.value.code == 2
        assert "degree >= 1, got %s" % d in capsys.readouterr().err


def test_cli_import_stays_light():
    # dataclasses pulls in inspect, ast, dis and tokenize: a fifth of a
    # fresh call; argparse loads gettext and locale and builds a parser
    # per subcommand on every call
    code = (
        "import sys; before = set(sys.modules); import tautres.cli; "
        "light = sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)); "
        "tautres.cli.main(['severi', '--r', '1']); "
        "print(light, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[0] == "value 3*L^2 + 2*L*c1 + c2"
    assert out.splitlines()[-1] == "[] []"


# -- argument parsing ---------------------------------------------------------

SEVERI = {"d": None, "epd": None, "prefactor": None, "evaluate": False}
GHILB = {"phi": None, "q": [], "evaluate": False}
BLOCKS = ["--q", "1:z1", "--q", "2:z1*z2", "--q", "3:z1^2*z3"]


# every argv form the tests and the benchmark pass, and the forms an
# option table must still read: --name=value, a repeated --q, prefixes
@pytest.mark.parametrize(
    "argv,command,values",
    [
        (["severi", "--r", "1"], "severi", dict(SEVERI, r=1)),
        (["severi", "--r", "2", "--d", "4"], "severi", dict(SEVERI, r=2, d=4)),
        (["severi", "--r", "2", "--d", "-3"], "severi", dict(SEVERI, r=2, d=-3)),
        (["severi", "--r", "3", "--epd", ""], "severi", dict(SEVERI, r=3, epd="")),
        (["severi", "--r", "3", "--prefactor", "1/0"], "severi", dict(SEVERI, r=3, prefactor="1/0")),
        (["severi", "--r", "3", "--evaluate"], "severi", dict(SEVERI, r=3, evaluate=True)),
        (["severi", "--r=2", "--d=7"], "severi", dict(SEVERI, r=2, d=7)),
        (["severi", "--eval", "--r", "3", "--pre", "1/2"], "severi", dict(SEVERI, r=3, evaluate=True, prefactor="1/2")),
        (["eval", "configs/one_node.cfg"], "eval", {"config": "configs/one_node.cfg"}),
        (["eval", "--", "-odd.cfg"], "eval", {"config": "-odd.cfg"}),
        (["mdeg", "--gens", "2,0;1,1;0,2", "--weights", "a,b"], "mdeg", {"gens": "2,0;1,1;0,2", "weights": "a,b"}),
        (["ghilb", "--k", "13"], "ghilb", dict(GHILB, k=13)),
        (["ghilb", "--k=6", "--phi", "2*c2 + 3*c1^2", "--evaluate"], "ghilb", dict(GHILB, k=6, phi="2*c2 + 3*c1^2", evaluate=True)),
        (["ghilb", "--k", "4"] + BLOCKS + ["--phi", "c2", "--evaluate"], "ghilb", dict(GHILB, k=4, phi="c2", evaluate=True, q=["1:z1", "2:z1*z2", "3:z1^2*z3"])),
        (["ghilb", "--k", "2", "--q=1:", "--eval"], "ghilb", dict(GHILB, k=2, q=["1:"], evaluate=True)),
        (["verify"], "verify", {}),
    ],
)
def test_parse_args_reads_every_form(argv, command, values):
    handler, args = cli.parse_args(argv)
    assert handler is getattr(cli, "_cmd_" + command)
    assert vars(args) == values


@pytest.mark.parametrize(
    "argv,message",
    [
        (["severi", "--r", "1", "--e"], "ambiguous option --e could be --epd, --evaluate"),
        (["severi", "--r", "1", "--bogus", "2"], "unknown option --bogus"),
        (["ghilb", "--k", "six"], "--k wants an integer, got 'six'"),
        (["ghilb", "--k="], "--k wants an integer, got ''"),
        (["severi", "--d", "4"], "severi needs --r"),
        (["severi", "--r"], "--r wants a value"),
        (["severi", "--r", "1", "--evaluate=yes"], "--evaluate takes no value"),
        (["eval"], "eval needs CONFIG"),
        (["eval", "a.cfg", "b.cfg"], "unexpected argument 'b.cfg'"),
        (["solve"], "unknown subcommand 'solve'"),
        ([], "no subcommand given"),
    ],
)
def test_malformed_arguments_exit_2_with_an_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_help_names_every_subcommand_and_option(capsys):
    for argv in (["-h"], ["--help"], ["severi", "--r", "1", "--he"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    top, top_long, severi = capsys.readouterr().out.split("usage: ")[1:]
    assert top == top_long
    assert all(command in top for command in ("eval", "severi", "ghilb", "mdeg", "verify"))
    assert severi.startswith("tautres severi --r R [--d D]")
    for command, (_, _, positionals, options) in cli.COMMANDS.items():
        with pytest.raises(SystemExit):
            cli.main([command, "-h"])
        out = capsys.readouterr().out
        assert all(name.upper() in out for name, _ in positionals)
        assert all("--" + name in out and text in out for name, _, _, text in options)


def test_cli_eval_config(capsys):
    assert cli.main(["eval", str(CONFIGS / "one_node.cfg")]) == 0
    out = lines(capsys)
    assert out[0] == "value 3*L^2 + 2*L*c1 + c2"
    assert out[3] == "c1^2 0 1"


def test_cli_mdeg(capsys):
    assert cli.main(["mdeg", "--gens", "2,0;1,1;0,2", "--weights", "a,b"]) == 0
    assert lines(capsys) == ["codim 2", "mdeg 3*a*b"]
    assert cli.main(["mdeg", "--gens", "1,1", "--weights", "a,b"]) == 0
    assert lines(capsys) == ["codim 1", "mdeg a + b"]


def test_cli_ghilb_two_points(capsys):
    assert cli.main(["ghilb", "--k", "2", "--phi", "c2", "--evaluate"]) == 0
    out = capsys.readouterr().out
    assert "term {1,2}" in out
    assert "term {1}{2}" in out
    assert "residue 0" in out
    assert "residue L_1*L_2" in out
    assert "prefactor -1" in out


def test_cli_ghilb_output_is_pinned(capsys):
    # digest of the full stdout, recorded before terms shared problem objects
    assert cli.main(["ghilb", "--k", "5", "--phi", "2*c2-c1^2", "--evaluate"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("term ") for line in out.splitlines()) == 52
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c0a6efce3b8380108a5667542aa3fe29a75deb797da1d08e44ac83d6958a6ac8"
    )


# digests of the full stdout, recorded while every partition's problem
# was still built whole in its joint context
SIX_POINT_DIGESTS = {
    "2*c2 + 3*c1^2": "0f7b57eff1a2c67576baf55550a69705ffc1c2afa2952f247a41119b27b8f37e",
    "c1^3*c2 + c3^2": "b047367512449d541508b0832af7495612b5f7bde7576146f9c425c6a15b6bfa",
}


@pytest.mark.parametrize("phi", sorted(SIX_POINT_DIGESTS))
def test_cli_ghilb_six_points_is_pinned(capsys, phi):
    assert cli.main(["ghilb", "--k", "6", "--phi", phi, "--evaluate"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("term ") for line in out.splitlines()) == 203
    assert hashlib.sha256(out.encode()).hexdigest() == SIX_POINT_DIGESTS[phi]


def test_cli_ghilb_seven_points_is_pinned(capsys):
    # digest of the full stdout, recorded while every order of a block
    # multiset was still multiplied out and eliminated on its own; the
    # 64 bodies include orders that repeat a block size, as (2,2,1,1,1)
    assert cli.main(["ghilb", "--k", "7", "--phi", "2*c2-c1^2", "--evaluate"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("term ") for line in out.splitlines()) == 877
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c2ff5e487e10480387936f754ea58ec81d40e55a938cffad7c3939a07998c52d"
    )


def test_cli_ghilb_block_polynomials_are_pinned(capsys):
    # digest of the full stdout, recorded while relabel and the text
    # renderer still decoded every field of every packed key
    argv = ["ghilb", "--k", "4", "--q", "1:z1", "--q", "2:z1*z2", "--q", "3:z1^2*z3"]
    assert cli.main(argv + ["--phi", "c2", "--evaluate"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("term ") for line in out.splitlines()) == 15
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ac22318dc10b07b011483af9991317d662eae36c58b15435329831170f481b79"
    )


def test_cli_ghilb_keeps_no_relabel_once_its_body_is_printed(capsys, monkeypatch):
    # only block-multiset sources are read again; when a fold is taken, at
    # most the relabel fold of the body printed just before is still held
    from tautres import residue

    fold_factors = residue.fold_factors
    relabels = []

    def spy(problem, source=None):
        assert sum(ref() is not None for ref in relabels) <= 1
        out = fold_factors(problem, source)
        if source is not None:
            relabels.append(weakref.ref(out))
        return out

    monkeypatch.setattr(residue, "fold_factors", spy)
    assert cli.main(["ghilb", "--k", "5", "--phi", "2*c2-c1^2", "--evaluate"]) == 0
    capsys.readouterr()
    assert len(relabels) == 9  # 16 bodies, p(5) = 7 of them sources


def test_cli_ghilb_refuses_a_support_with_too_many_partitions(capsys, monkeypatch):
    def enumerated(n):
        raise AssertionError("set partitions of %d points were listed" % n)

    monkeypatch.setattr(assemble, "set_partitions", enumerated)
    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "13"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "27644437 set partitions" in err


def test_cli_verify(capsys):
    assert cli.main(["verify"]) == 0
    out = lines(capsys)
    assert out[-1] == "10/10 criteria passed"
    assert len([l for l in out if l.startswith("PASS")]) == 10


def test_cli_error_exits(tmp_path, capsys, monkeypatch):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", str(empty)])
    assert exc.value.code == 2
    assert "empty or missing" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", str(tmp_path / "missing.cfg")])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        cli.main(["mdeg", "--gens", "2;x", "--weights", "a"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        cli.main(["severi", "--r", "1", "--epd", "z10"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        cli.main(["severi", "--r", "4"])
    assert exc.value.code == 2
    assert "impractical" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "2", "--q", "nocolon"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "3", "--q", "1:z2"])
    assert exc.value.code == 2
    assert "unknown variable 'z2'" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "3", "--q", "0:z1"])
    assert exc.value.code == 2
    assert "m >= 1" in capsys.readouterr().err

    # a Q_m given twice, or an M that is no integer, names --q
    for argv, message in (
        (["ghilb", "--k", "3", "--q", "2:z1", "--q", "2:z2"], "--q gives Q_2 twice"),
        (["ghilb", "--k", "3", "--q", "x:z1"], "--q wants an integer M in M:TEXT, got 'x:z1'"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error: %s\n" % message in capsys.readouterr().err

    # a negative power of a class is no polynomial, not a power dropped
    for phi in ("c1^-2*c2", "c1^-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ghilb", "--k", "2", "--phi", phi, "--evaluate"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "negative power" in captured.err

    # empty Q_m or epd text is an error, not the absent default
    for argv in (
        ["ghilb", "--k", "2", "--q", "1:"],
        ["severi", "--r", "3", "--epd", ""],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "empty polynomial text" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "3", "--q", "1:z1 + 1"])
    assert exc.value.code == 2
    assert "not homogeneous" in capsys.readouterr().err

    # the dual of a nonempty locus is never 0; the severi epd is refused
    # before its block is built
    def refuse(*args, **kwargs):
        raise AssertionError("block built")

    for argv in (
        ["ghilb", "--k", "2", "--q", "1:0", "--evaluate"],
        ["severi", "--r", "3", "--epd", "0"],
    ):
        with monkeypatch.context() as patch, pytest.raises(SystemExit) as exc:
            if argv[0] == "severi":
                patch.setattr(assemble, "_block_pieces", refuse)
            cli.main(argv)
        assert exc.value.code == 2
        assert "is the zero polynomial; a nonempty locus has a nonzero dual" in capsys.readouterr().err

    # a dual is a polynomial, and the severi epd is refused before the build
    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "2", "--q", "1:z1^-1"])
    assert exc.value.code == 2
    assert "negative exponent" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["severi", "--r", "3", "--epd", "z10^-1"])
    assert exc.value.code == 2
    assert "negative exponent" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "2", "--phi", "c1*"])
    assert exc.value.code == 2
    assert "dangling *" in capsys.readouterr().err

    # zero denominators in config lines, --phi and --prefactor
    for section in ("numerator", "denominator"):
        zero = tmp_path / ("zero_%s.cfg" % section)
        zero.write_text("[vars]\nz10\n[%s]\n1/0\n" % section)
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", str(zero)])
        assert exc.value.code == 2
        assert "bad %s line" % section in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["ghilb", "--k", "2", "--phi", "1/0*c1"])
    assert exc.value.code == 2
    assert "bad rational" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["severi", "--r", "3", "--prefactor", "1/0"])
    assert exc.value.code == 2
    assert "bad prefactor" in capsys.readouterr().err

    # a custom surface without c2, which the top-degree basis names
    custom = tmp_path / "custom.cfg"
    custom.write_text(
        (CONFIGS / "one_node.cfg").read_text().replace(
            "preset generic-surface", "custom dim=2 chern=c1:1 segre=c1;c1^2"
        )
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", str(custom)])
    assert exc.value.code == 2
    assert "unknown variable 'c2'" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        cli.main([])
