"""Frozen records: construction, immutability, equality, hashing, replace."""

from fractions import Fraction

import pytest

from tautres.assemble import AlgebraSpec, severi_bundle
from tautres.chern import BundleModel, generic_surface, p2_surface
from tautres.config import ProblemConfig
from tautres.diagrams import DiagramND, from_partition
from tautres.multidegree import MonomialIdeal
from tautres.poly import MPoly, VariableContext, parse_linear_form
from tautres.record import replace
from tautres.residue import ResidueProblem


def test_assignment_and_deletion_raise():
    ctx = VariableContext(residue_vars=("z1",))
    alg = AlgebraSpec.morin(3)
    problem = ResidueProblem(ctx, MPoly.const(ctx, 1))
    for record, field in ((ctx, "dim_cap"), (alg, "k"), (problem, "prefactor")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.unknown = 1
    assert alg.k == 3 and problem.prefactor == 1


def test_equal_specs_and_diagrams_are_interchangeable_keys():
    d1 = from_partition((2, 1))
    d2 = DiagramND(2, frozenset({(1, 0), (0, 1), (0, 0)}))
    assert d1 is not d2 and d1 == d2 and hash(d1) == hash(d2)
    a1, a2 = AlgebraSpec.from_diagram(d1, epd="z1"), AlgebraSpec.from_diagram(d2, epd="z1")
    assert a1 == a2 and hash(a1) == hash(a2)
    table = {a1: "first", d1: "diagram"}
    assert table[a2] == "first" and table[d2] == "diagram"
    table[a2] = "second"
    assert len(table) == 2 and table[a1] == "second"
    # a different field value is a different key
    assert AlgebraSpec.from_diagram(d1) != a1
    assert AlgebraSpec.from_diagram(d1) not in table


def test_equality_is_by_class_and_fields():
    ctx1 = VariableContext(residue_vars=("z1",), geometry=(("L", 1),))
    ctx2 = VariableContext(("z1",), (("L", 1),), None)
    assert ctx1 == ctx2 and hash(ctx1) == hash(ctx2)
    assert ctx1 != VariableContext(residue_vars=("z1",), geometry=(("L", 1),), dim_cap=2)
    assert BundleModel(1, ("L",)) != (1, ("L",))
    assert BundleModel(1, ("L",)) == severi_bundle()


def test_defaults_and_keyword_construction():
    cfg = ProblemConfig()
    assert cfg.var_lines == () and cfg.segre_order is None
    assert cfg.prefactor == Fraction(1) and cfg.surface_line == "preset generic-surface"
    assert ProblemConfig(segre_order=2).segre_order == 2
    alg = AlgebraSpec(k=3, filtration=(2,))
    assert alg.epd is None and alg.diagram is None
    assert alg == AlgebraSpec(3, (2,)) == AlgebraSpec(3, filtration=(2,), epd=None)
    assert repr(BundleModel(1, ("L",))) == "BundleModel(rank=1, roots=('L',))"
    for args, kwargs in (
        ((3,), {}),  # filtration missing
        ((3, (2,)), {"k": 3}),  # k given twice
        ((3, (2,)), {"weight": 1}),  # no such field
        ((3, (2,), None, None, None), {}),  # one value too many
    ):
        with pytest.raises(TypeError):
            AlgebraSpec(*args, **kwargs)


def test_replace_returns_a_checked_copy():
    ctx = VariableContext(residue_vars=("z1",))
    problem = ResidueProblem(ctx, MPoly.const(ctx, 1))
    signed = replace(problem, prefactor=Fraction(-1))
    assert signed.prefactor == -1 and problem.prefactor == 1
    assert signed.numerator is problem.numerator and signed.ctx is ctx
    plane = p2_surface(4)
    assert plane == replace(generic_surface(), name="P2", pairing=plane.pairing)
    with pytest.raises(ValueError, match="rank/root count"):
        replace(BundleModel(1, ("L",)), rank=2)
    with pytest.raises(ValueError, match="filtration must sum"):
        replace(AlgebraSpec.morin(3), k=4)
    with pytest.raises(TypeError):
        replace(problem, weight=1)
    # __post_init__ runs again on the copy
    ideal = replace(MonomialIdeal(2, ((1, 1),), (1, 1)), generators=((2, 1), (1, 0)))
    assert ideal.generators == ((1, 0),)


def test_linear_form_keeps_its_own_repr_and_equality():
    ctx = VariableContext(residue_vars=("z1", "z2"), geometry=(("L", 1),))
    form = parse_linear_form(ctx, "(z1 - z2 + L)^2")
    assert repr(form) == "(z1 - z2 + L)^2"
    assert form == parse_linear_form(ctx, "(L + z1 - z2)^2")
    assert form != form.with_multiplicity(1)
    with pytest.raises(TypeError):
        hash(form)
    with pytest.raises(AttributeError):
        form.multiplicity = 3
