"""Guards for the tooling that drives the library from outside."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_wraps_bound_names(monkeypatch):
    # The traced benchmark wraps library functions by module attribute; a
    # refactor that unbinds one of them makes install() raise AttributeError.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
