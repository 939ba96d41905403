"""The benchmark's tracer against the library names it patches.

skewbench/tracing.py and skewbench/cli_shim.py look up and rebind library
functions, methods and module globals by name.  Installing both and
uninstalling must work and leave every name as it was, so a library
change that deletes or renames a traced name fails here rather than in a
traced benchmark run.
"""

import importlib
import pathlib
import sys

from skewpoly import cli
from skewpoly.frames import Frame, LinearMap, QuatMap
from skewpoly.rings import FieldElement, FiniteField, Quaternion, QuaternionRing

BENCH = pathlib.Path(__file__).parent.parent / "skewbench"
CLASSES = (FieldElement, FiniteField, Quaternion, QuaternionRing, Frame, LinearMap, QuatMap)


def _snapshot():
    """Every binding the tracer may touch: the namespace of each loaded
    skewpoly module and the attributes of the patched classes."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if mod is not None and (name == "skewpoly" or name.startswith("skewpoly."))}
    classes = {cls: dict(vars(cls)) for cls in CLASSES}
    return modules, classes, sys.getrecursionlimit()


def test_tracer_and_cli_shim_install_and_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    cli_shim = importlib.import_module("cli_shim")
    verbs = dict(cli._VERBS)
    before = _snapshot()
    first = tracing.Tracer()
    try:
        first.install()
        assert first._patches
    finally:
        first.uninstall()
    assert _snapshot() == before
    second = tracing.Tracer()
    try:
        cli_shim.install(second)
        assert cli._VERBS["eval"] is not verbs["eval"]
    finally:
        second.uninstall()
        # the shim swaps the verb handlers in place for the life of its
        # process, outside the tracer's patch list
        cli._VERBS.update(verbs)
    assert _snapshot() == before
