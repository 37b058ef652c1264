"""Every entry point the wall-clock benchmark wraps still exists.

``perfbench/tracing.py`` times the engine from outside by wrapping named
functions and methods (its ``SPANS`` and ``LEAVES`` tables).  Renaming
or deleting one of them breaks a traced benchmark run, so this test
resolves every name here, in the unit suite.  It only reads
``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
HOOKS = [hook[:3] for hook in tracing.SPANS + tracing.LEAVES]


@pytest.mark.parametrize("module_name, owner, attr", HOOKS,
                         ids=[".".join(filter(None, hook)) for hook in HOOKS])
def test_hook_resolves(module_name, owner, attr):
    target = importlib.import_module(module_name)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr, None)), \
        "%s has no callable %r" % (target.__name__, attr)
