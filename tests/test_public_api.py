"""The package's exported names stay in step with its code, and importing
it stays light."""

import os
import subprocess
import sys
from pathlib import Path

import covertlink


def test_all_names_are_unique():
    assert len(covertlink.__all__) == len(set(covertlink.__all__))


def test_all_names_resolve_on_the_package():
    missing = [name for name in covertlink.__all__ if not hasattr(covertlink, name)]
    assert missing == []


def test_all_names_are_public():
    assert [name for name in covertlink.__all__ if name.startswith("_")] == []


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes most of a second to import; the library reaches the
    # binomial ufuncs and ndtri through scipy.special alone
    src = str(Path(covertlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, covertlink; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"
