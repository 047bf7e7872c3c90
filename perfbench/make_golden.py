"""Regenerate golden.json: per-monomial values for the punctual and hilb checks.

Usage, from the repository root:

    python3 perfbench/make_golden.py

The library source is taken from SEED_COMMIT, the commit the values were
first recorded at, with `git archive` (never from the working tree),
unpacked into a temporary directory inside the repository, and run once
with phi = c2 and once with phi = c1^2.  The residue is linear in phi, so
the benchmark checks phi = a*c2 + b*c1^2 against the same combination of
these values.  golden.json records the commit.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import checks
import run

MONOMIALS = ("c2", "c1^2")
SEED_COMMIT = "cbef120bf67bfbbf1c95e54aec7a1a76169b79ae"


def git(*args) -> bytes:
    return subprocess.run(("git",) + args, cwd=run.ROOT, check=True, capture_output=True).stdout


def punctual_values(lib) -> dict:
    out = {}
    for f in dict.fromkeys(run.PUNCTUAL_FILTRATIONS):
        entry = {}
        for phi in MONOMIALS:
            sel = run.punctual_selection(lib, f, phi)
            entry[phi] = {
                "coefficients": checks.encode({m: v for m, v in sel.coefficients.items() if v}),
                "remainder": checks.encode(checks.parse_poly_text(lib.poly.format_poly(sel.remainder))),
            }
        out[run.filtration_key(f)] = entry
    return out


def hilb_values(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    out: dict = {}
    for phi in MONOMIALS:
        cmd = [sys.executable, "-m", "tautres.cli"] + run.ghilb_argv(phi)
        stdout = subprocess.run(cmd, cwd=run.ROOT, env=env, check=True, capture_output=True, text=True).stdout
        for label, text in checks.ghilb_residues(stdout):
            out.setdefault(label, {})[phi] = checks.encode(checks.parse_poly_text(text))
    return out


def main() -> int:
    commit = git("rev-parse", "--verify", SEED_COMMIT + "^{commit}").decode().strip()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".golden-") as tmp:
        tarfile.open(fileobj=io.BytesIO(git("archive", commit, "src"))).extractall(tmp, filter="data")
        src = os.path.join(tmp, "src")
        sys.path.insert(0, src)
        lib = run.load_library()
        if not os.path.abspath(lib.poly.__file__).startswith(os.path.abspath(src)):
            raise SystemExit("imported tautres from %s, not from the archive" % lib.poly.__file__)
        golden = {
            "commit": commit,
            "hilb_k": run.HILB_K,
            "punctual": punctual_values(lib),
            "hilb": hilb_values(src),
        }
    with open(run.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print("wrote %s from %s" % (os.path.relpath(run.GOLDEN_PATH, run.ROOT), commit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
