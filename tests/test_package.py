"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import c2n3


def test_every_exported_name_resolves():
    assert len(set(c2n3.__all__)) == len(c2n3.__all__)
    missing = [name for name in c2n3.__all__ if not hasattr(c2n3, name)]
    assert missing == []


def test_importing_the_cli_leaves_mpmath_unloaded():
    # mpmath is a test-only dependency: the installed package runs on numpy alone
    src = str(Path(c2n3.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, c2n3.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"
