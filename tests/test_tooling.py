"""Guards for the tooling that drives the library from outside."""
import ast
import importlib
from pathlib import Path

import pytest

from dphawkes import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "dphawkes"


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


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # Each CLI step of each benchmark workload is parsed, not run: a flag the
    # CLI no longer takes would otherwise show only as a failed benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    argvs = [args[0] for name, workload in workloads.WORKLOADS.items()
             for _, fn, *args in workload(tmp_path / name, seed=1, small=True).steps()
             if fn is cli.main]
    assert len(argvs) == 9  # release: 4 + 4 steps; experiments: the sweep
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"benchmark command line does not parse: {argv}")


def test_release_spec_and_b_label_grammar_live_in_privacy():
    # A release and its bound are requested as (budget, B label): only privacy
    # builds a SensitivitySpec from the label (complexity reads the spec's
    # constants, the package re-exports the type), and the label's grammar is
    # defined once, beside SensitivitySpec.for_b_mode.
    naming, defining = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if "SensitivitySpec" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None)):
                naming.add(path.name)
            if isinstance(node, ast.FunctionDef) and node.name == "check_b_mode":
                defining.add(path.name)
    assert naming == {"__init__.py", "privacy.py", "complexity.py"}
    assert defining == {"privacy.py"}
