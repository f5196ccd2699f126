"""The benchmark's per-layer tracer patches `cubesym` functions by name; a
renamed or deleted target would silently read 0 in every per-layer metric."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import cubesym.cli  # noqa: F401  (imports every module the CLI uses)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_finds_its_target(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name.startswith("cubesym.")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert tracer.missing_metrics() == []
    finally:
        tracer.uninstall()
    for name, names in before.items():
        for attr, value in names.items():
            assert vars(sys.modules[name]).get(attr) is value, (name, attr)
