"""The repository benchmark's layer tracer still fits the package.

``perfbench/layers.py`` wraps public entry points of every layer by
name (``measure_wcet_detailed``, ``CompactTrace.replay``, ...), and its
``install`` raises ``AttributeError`` when one is gone.  Installing and
removing the wrappers here makes such a rename fail this suite, not
only a traced benchmark run, and checks that every original comes back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    # What LayerTrace.patch reads: the class dict, or the module global.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_then_unpatch_restores_every_original():
    layers = _load_layers()
    trace = layers.LayerTrace()
    layers.install(trace)
    patched = list(trace._patches)
    try:
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        trace.unpatch()
    assert trace._patches == []
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
