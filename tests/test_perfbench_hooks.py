"""Every entry point the wall-clock benchmark uses still exists.

``perfbench/tracing.py`` times the engine from outside by wrapping named
functions and methods (its ``SPANS`` and ``LEAVES`` tables).  Renaming
or deleting one of them breaks a traced benchmark run, so this test
resolves every name here, in the unit suite.  Likewise
``perfbench/run.py`` records the session's ``engine`` and
``merge_mode`` constants in every report.  It only reads
``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.hive import HiveSession

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
HOOKS = [hook[:3] for hook in tracing.SPANS + tracing.LEAVES]


@pytest.mark.parametrize("module_name, owner, attr", HOOKS,
                         ids=[".".join(filter(None, hook)) for hook in HOOKS])
def test_hook_resolves(module_name, owner, attr):
    target = importlib.import_module(module_name)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr, None)), \
        "%s has no callable %r" % (target.__name__, attr)


def test_environment_constants():
    environment = load_perfbench("run").environment(HiveSession())
    assert environment["engine"] == "vectorized"
    assert environment["merge"] == "overlay"
