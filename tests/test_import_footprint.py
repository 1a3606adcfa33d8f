"""Importing the package stays light: ``import lme`` is most of the start-up
time of every command, so no heavy optional scipy module may ride along, and
the CLI parser is built on the first ``main`` call, not at import."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CODE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "0"]
