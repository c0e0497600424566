"""Load a module of ``perfbench/`` from its file.

``perfbench/`` is a directory of scripts, not a package, and its
``reference.py`` imports nothing from ``ammknn``, so the tests check the
package against the same naive reference the benchmark does. Nothing
under ``perfbench/`` is changed.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, freshly executed."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
