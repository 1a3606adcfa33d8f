"""Importing the package stays light: ``import lme`` is most of the start-up
time of every command, so no scipy module rides along, and the CLI parser is
built on the first ``main`` call, not at import.  scipy is loaded only by the
Drazin candidate of the consistency evidence (``geninv.core_nilpotent``), so
a process that only solves, compares or diagonalizes never pays for it."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code: str, *argv: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports lme from src/ and
    return the words it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


# counts ArgumentParser constructions during the import
CODE = """
import argparse, sys
built = []
original = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    original(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import lme, lme.cli
print('scipy.optimize' in sys.modules, len(built))
"""


def test_lme_and_cli_do_not_import_scipy_optimize():
    """Nor does the import construct an ``argparse.ArgumentParser``."""
    assert run_fresh(CODE) == ["False", "0"]


# prints whether any module named scipy or scipy.* is loaded
LOADED = "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"

# a small seeded instance, shared by the snippets below
INSTANCE = """
import sys, pickle, hashlib
import numpy as np
import lme
from lme.instances import random_equation_instance
spec, _ = random_equation_instance(np.random.default_rng(7), 4, 2, zero_diag_rows=1)
"""


def test_import_loads_no_scipy():
    assert run_fresh("import sys, lme, lme.cli\n" + LOADED) == ["False"]


def test_solve_compare_pair_verify_and_diagonalize_load_no_scipy(tmp_path):
    code = INSTANCE + """
import lme.cli
result = lme.solve(spec)
lme.compare(result, lme.vectorize(spec))
lme.induced_pair_without_diagonalizer(spec.a_list[0], spec.a_list[1])
verify = lme.cli.main(["verify", "--trials", "2", "--n", "4", "--out", sys.argv[1] + "/v.json"])
paths = []
for i, m in enumerate(spec.a_list):
    paths.append(f"{sys.argv[1]}/a{i}.json")
    lme.cli.write_matrix(paths[-1], m)
diag = lme.cli.main(["diagonalize", *paths, "--out", sys.argv[1] + "/d.json"])
print(verify, diag)
""" + LOADED
    assert run_fresh(code, str(tmp_path)) == ["0", "0", "False"]


def test_evidence_loads_scipy_linalg_with_the_same_result():
    """The evidence imports scipy.linalg itself, and a process that imported
    it first gets the same evidence, bit for bit."""
    code = "import sys\nif sys.argv[1] == 'first':\n    import scipy.linalg\n" + INSTANCE + """
evidence = lme.check_consistent(spec)
print('scipy.linalg' in sys.modules, hashlib.sha256(pickle.dumps(evidence)).hexdigest())
"""
    lazy = run_fresh(code, "lazy")
    first = run_fresh(code, "first")
    assert lazy[0] == "True"
    assert lazy == first
