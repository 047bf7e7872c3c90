"""What the benchmark's traced run needs from the library.

perfbench/tracer.py patches library functions by name and reads packed
polynomials through their public views.  A refactor that drops one of
those names makes every traced benchmark run fail, so the contract is
checked here, against the tracer file itself.
"""

import importlib
import importlib.util
from pathlib import Path

from tautres import assemble, cli
from tautres.assemble import AlgebraSpec, assemble_ghilb, assemble_punctual, severi_bundle
from tautres.chern import generic_surface
from tautres.poly import MPoly, format_poly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_patched_name_resolves():
    tracer = load_tracer()
    for modname, names in tracer.PATCHES.items():
        mod = importlib.import_module(modname)
        for fname in names:
            assert callable(getattr(mod, fname, None)), "%s.%s" % (modname, fname)
    assert callable(MPoly.__mul__) and callable(MPoly.coefficient_of)


def test_assembled_problems_expose_their_numerator_terms():
    surface = generic_surface()
    problems = [p for _, p in assemble_ghilb(3, severi_bundle(), surface, "c2")]
    problems.append(assemble_punctual(AlgebraSpec.morin(3), severi_bundle(), surface, "c2"))
    for p in problems:
        assert len(p.numerator.terms) == len(p.numerator) > 0


def test_a_traced_cli_call_records_its_layers(capsys):
    tracer = load_tracer()
    with tracer.installed(tracer.Tracer()) as t:
        assert cli.main(["ghilb", "--k", "3", "--phi", "c2", "--evaluate"]) == 0
    capsys.readouterr()
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["assemble.calls"] == 1
    assert metrics["residue.calls"] == 3  # one per block multiset of the 5 terms
    assert metrics["poly.format_bytes"] > 0
    # the patches are undone
    assert cli.format_poly is format_poly


def test_a_traced_punctual_evaluation_records_its_layers():
    # the in-process path of the benchmark's punctual workload, called
    # through the module names the tracer patches; (2,2) has residue 4
    # and expands 6 forms, where (2,1) vanishes by degree before any
    tracer = load_tracer()
    surface = generic_surface()
    with tracer.installed(tracer.Tracer()) as t:
        problem = assemble.assemble_punctual(AlgebraSpec(5, (2, 2)), severi_bundle(), surface, "c2")
        assemble.evaluate(problem, surface)
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["assemble.calls"] == 1
    assert metrics["residue.calls"] == 1
    assert metrics["residue.expand_calls"] > 0
    assert metrics["assemble.num_terms"] > 0
    assert assemble.assemble_punctual is assemble_punctual
