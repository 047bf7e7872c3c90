"""Self-tests for the benchmark: checkers, span arithmetic, speed scaling, repeatable counts.

Run from the repository root with `python3 -m pytest -q perfbench`.  The
last test makes two traced benchmark runs per workload it names; the
whole file takes about three minutes.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import speed
import tracer

sys.path.insert(0, run.SRC)

NODAL_R2_D5 = """\
value -42*L^2 - 39*L*c1 - 6*c1^2 - 7*c2
L^2 -42 1
L*c1 -39 1
c1^2 -6 1
c2 -7 1
a_2[P2 d=5] -540 1
N_2[P2 d=5] 882 1
"""


def _golden():
    with open(run.GOLDEN_PATH) as fh:
        return json.load(fh)


def _text(values: dict) -> str:
    """Canonical-looking text for a {monomial: value} map."""
    if not values:
        return "0"
    chunks = []
    for mono, v in sorted(values.items()):
        mag = abs(v)
        body = str(mag) if not mono else mono if mag == 1 else "%s*%s" % (mag, mono)
        chunks.append(("-" if v < 0 else "+", body))
    head = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    return head + "".join(" %s %s" % c for c in chunks[1:])


# -- span arithmetic -------------------------------------------------------


def _span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, "i0", attrs]


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 11.0, 0),  # overlaps b and runs past the root's end
    ]
    assert tracer.self_times(spans) == [2.0, 2.0, 1.0, 4.0, 3.0]


def test_outermost_skips_a_layer_nested_in_itself():
    spans = [
        _span("poly.parse", 0.0, 4.0),
        _span("poly.parse", 1.0, 2.0, 0),
        _span("poly.parse", 5.0, 6.0),
    ]
    assert tracer.outermost(spans, "poly.parse") == [0, 2]


def test_residue_time_splits_into_fold_expand_and_elimination():
    mul = lambda s, e, p, pairs, out: _span("poly.mul", s, e, p, {"pairs": pairs, "out": out})
    spans = [
        _span("assemble", 0.0, 2.0, None, {"num_terms": 7, "forms": 2}),
        mul(0.5, 1.5, 0, 12, 7),
        _span("residue", 3.0, 13.0, None, {"out": 1}),
        mul(3.0, 7.0, 2, 100, 60),  # fold
        mul(7.0, 8.0, 2, 10, 30),  # fold, the peak
        _span("residue.expand", 8.0, 9.5, 2, {"out": 4}),
        mul(8.5, 9.0, 5, 6, 4),  # inside the expansion: not fold
        _span("poly.coeff", 10.0, 10.5, 2, {"in": 50}),
        _span("poly.coeff", 11.0, 11.5, 2, {"in": 20}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["residue.s"] == 10.0
    assert m["residue.fold_s"] == 5.0
    assert m["residue.fold_pairs"] == 110
    assert m["residue.fold_peak_terms"] == 60
    assert m["residue.expand_s"] == 1.5
    assert m["residue.elim_s"] == 3.5
    assert (m["residue.elim_terms_in"], m["residue.elim_peak_terms"]) == (70, 50)
    assert (m["assemble.mul_s"], m["assemble.mul_pairs"], m["assemble.num_terms"]) == (1.0, 12, 7)
    assert m["assemble.self_s"] == 1.0
    assert m["poly.mul_calls"] == 4
    assert m["poly.mul_yield"] == Fraction(101, 128)


# -- checkers ----------------------------------------------------------------


def test_nodal_checker_accepts_cli_output_and_rejects_a_wrong_n2():
    item = {"r": 2, "d": 5}
    assert checks.check_nodal(item, 0, NODAL_R2_D5) == []
    wrong = NODAL_R2_D5.replace("N_2[P2 d=5] 882 1", "N_2[P2 d=5] 883 1")
    assert checks.check_nodal(item, 0, wrong) == ["N_2[P2 d=5]: got 883, want 882"]
    assert checks.check_nodal(item, 2, NODAL_R2_D5) == ["exit status 2"]


def test_plane_counts_match_the_classical_values():
    assert checks.plane_node_count(2, 4) == 225
    assert checks.plane_node_count(1, 3) == 12


def test_hilb_checker_rejects_a_perturbed_residue_line():
    golden = _golden()["hilb"]
    a, b = 4, 7
    lines = []
    for label, values in golden.items():
        want = checks.combine(a, checks.decode(values["c2"]), b, checks.decode(values["c1^2"]))
        lines += ["term %s" % label, "residue %s" % _text(want), ""]
    stdout = "\n".join(lines)
    assert checks.check_hilb(0, stdout, a, b, golden) == []
    perturbed = stdout.replace("residue 7\n", "residue 8\n", 1)
    assert perturbed != stdout
    assert len(checks.check_hilb(0, perturbed, a, b, golden)) == 1
    assert checks.check_hilb(0, stdout, a, b + 1, golden) != []


def test_punctual_checker_rejects_a_changed_coefficient():
    golden = _golden()["punctual"]["2,3"]
    a, b = 2, 5
    coeffs = {
        m: a * Fraction(golden["c2"]["coefficients"].get(m, 0)) + b * Fraction(golden["c1^2"]["coefficients"].get(m, 0))
        for m in ("L^2", "L*c1", "c1^2", "c2")
    }
    assert checks.check_punctual(coeffs, "0", a, b, golden) == []
    coeffs["c2"] += 1
    assert len(checks.check_punctual(coeffs, "0", a, b, golden)) == 1
    coeffs["c2"] -= 1
    assert len(checks.check_punctual(coeffs, "3", a, b, golden)) == 1


def test_template_checker_rejects_a_numerator_off_by_one_term():
    from tautres.assemble import assemble_severi
    from tautres.poly import MPoly, format_poly

    num = assemble_severi(2).numerator
    point = {n: Fraction(i + 2, 3) for i, n in enumerate(checks.severi_box_names(2))}
    n = len(num.terms)
    assert checks.check_template(format_poly(num), 2, point, n) == []
    dropped = dict(num.terms)
    dropped.pop(next(iter(dropped)))
    short = format_poly(MPoly(num.ctx, dropped))
    count_fail, value_fail = checks.check_template(short, 2, point, n)
    assert "terms" in count_fail and "check point" in value_fail
    # with the count adjusted, the value alone still rejects it
    assert len(checks.check_template(short, 2, point, n - 1)) == 1


def test_text_parser_reads_library_output():
    assert checks.parse_poly_text("3*L_1^2 + 8*L_1*L_2 - 5/2*c1 - 1") == {
        "L_1^2": 3, "L_1*L_2": 8, "c1": Fraction(-5, 2), "": -1,
    }
    assert checks.parse_poly_text("0") == {}
    with pytest.raises(ValueError):
        checks.parse_poly_text("3*L +")


# -- speed scaling -----------------------------------------------------------


def _speed(samples):
    sp = speed.Speed()
    sp.samples = list(samples)
    return sp


def test_local_scale_uses_an_items_own_samples_when_it_has_enough():
    nominal = speed.REF_NOMINAL_S
    sp = _speed([nominal] * 8 + [2 * nominal] * 8)
    assert sp.local_scales([(0, 8), (8, 16)]) == [1.0, 0.5]


def test_local_scale_widens_to_neighbours_until_it_has_enough():
    nominal = speed.REF_NOMINAL_S
    # items 0..9 took one sample each; item 9's window is items 2..9 at least
    sp = _speed([nominal / 2] * 5 + [nominal] * 5)
    spans = [(i, i + 1) for i in range(10)]
    scales = sp.local_scales(spans)
    assert scales[0] == 2.0  # window 0..7 (LOCAL_SAMPLES = 8): median of 5 fast, 3 slow
    assert scales[9] == 1.0  # window 2..9: median of 3 fast, 5 slow
    # an item without samples and no neighbours falls back to the run's median
    assert _speed([nominal]).local_scales([(1, 1)]) == [1.0]


def test_kernel_work_is_fixed():
    sp = speed.Speed()
    assert len(sp.a) == len(sp.b) == speed.REF_TERMS
    assert speed.reference_kernel(sp.a, sp.b) == speed.reference_kernel(*(speed.Speed().a, speed.Speed().b))


# -- traced runs repeat their counts ---------------------------------------

EXACT_COUNTS = (
    "assemble.num_terms",
    "assemble.mul_pairs",
    "residue.fold_pairs",
    "residue.calls",
    "residue.fold_peak_terms",
    "residue.elim_peak_terms",
)


def _traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {m: v["value"] for m, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["nodal", "punctual"])
def test_exact_counts_repeat_across_traced_runs(workload):
    first, second = _traced_run(workload, 7), _traced_run(workload, 7)
    assert {m: first[m] for m in EXACT_COUNTS} == {m: second[m] for m in EXACT_COUNTS}
    assert first["residue.calls"] > 0 and first["assemble.num_terms"] > 0
