"""Print the built-in nodal-degree data and plane curve counts.

Runs the two built-in problems (r = 1, 2), applies the exponential
transform, and pairs the results against the plane preset for a small
range of curve degrees.  Everything is exact rational arithmetic.

Usage: python scripts/severi_report.py [--dmin 3] [--dmax 6]
"""

import argparse

from tautres.assemble import severi_coefficient
from tautres.chern import p2_surface, pair_integral
from tautres.diagrams import bell_transform, severi_count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dmin", type=int, default=3)
    ap.add_argument("--dmax", type=int, default=6)
    args = ap.parse_args()

    sels = [severi_coefficient(r) for r in (1, 2)]
    for r, sel in enumerate(sels, start=1):
        print("a_%d = %s" % (r, sel.as_poly_text()))
        for mono, coef in sel.coefficients.items():
            print("  %-5s %s" % (mono, coef))
    print()

    header = "%4s %10s %10s %10s %10s %10s" % ("d", "a_1", "a_2", "P_2", "N_1", "N_2")
    print("plane preset, canonical-class convention (L = d*H)")
    print(header)
    for d in range(args.dmin, args.dmax + 1):
        surface = p2_surface(d)
        a_vals = [pair_integral(sel.coefficients, surface) for sel in sels]
        p_vals = bell_transform(a_vals)
        n1 = severi_count(p_vals[0], 1)
        n2 = severi_count(p_vals[1], 2)
        print(
            "%4d %10s %10s %10s %10s %10s"
            % (d, a_vals[0], a_vals[1], p_vals[1], n1, n2)
        )
    print()
    print("N_1 = 3(d-1)^2; the r-node counts are valid for d large enough")
    print("that every r-nodal curve in the linear system is reduced.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
