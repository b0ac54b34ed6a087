"""Guards for the tooling that drives the library from outside."""
import ast
import importlib
import re
from pathlib import Path

import pytest

import dphawkes
from dphawkes import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "dphawkes"

# Imported but unused names that stay bound only because the traced benchmark
# (perfbench/spans.py) wraps them by module attribute. ROADMAP.md item 1 moves
# the tracer off them and deletes the imports; this list then empties.
TRACER_ONLY_IMPORTS = {
    "cli.py": {"invert_moments", "privatize_stats"},
    "experiments.py": {"bin_events", "ingest_timestamps", "invert_moments", "privatize_stats",
                       "mean_sensitivity", "variance_sensitivity", "validate_horizon",
                       "simulate_branching"},
}


def _modules():
    """(file name, parsed tree) of each package module but __init__.py."""
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _readme_public_api() -> list[str]:
    """The names the README's Public API section lists: each bullet's backticked
    names before its colon, module-qualified where the package does not export them."""
    section = (ROOT / "README.md").read_text().split("\n## Public API\n", 1)[1]
    heads = re.findall(r"^- (`[^:]*):", section.split("\n## ", 1)[0], re.M)
    return [name for head in heads for name in re.findall(r"`([\w.]+)`", head)]


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


def test_release_spec_has_one_constructor():
    # A spec is built from its B label only: for_b_mode is SensitivitySpec's one
    # classmethod and holds every SensitivitySpec(...) or cls(...) call in the
    # package, so a new label is one more branch there, not another constructor.
    def calls(node, callees):
        return {call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) in callees}

    everywhere, in_for_b_mode, classmethods = set(), set(), []
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            spec = isinstance(top, ast.ClassDef) and top.name == "SensitivitySpec"
            callees = {"SensitivitySpec", "cls"} if spec else {"SensitivitySpec"}
            everywhere |= {(path.name, line) for line in calls(top, callees)}
            for method in top.body if spec else ():
                if isinstance(method, ast.FunctionDef) and "classmethod" in [
                        getattr(d, "id", None) for d in method.decorator_list]:
                    classmethods.append(method.name)
                    if method.name == "for_b_mode":
                        in_for_b_mode = {(path.name, line) for line in calls(method, callees)}
    assert classmethods == ["for_b_mode"]
    assert everywhere == in_for_b_mode != set()


def test_estimation_failures_are_caught_by_their_base_class():
    # A failed estimate is one rule: an except clause names EstimationFailed,
    # never one of its subclasses, and the base class is defined once.
    from dphawkes import EstimationFailed, HorizonTooShort, NoCountedEvents, NonConvergence
    caught, defining = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {getattr(n, "id", getattr(n, "attr", None))
                           for n in ast.walk(node.type)}
            if isinstance(node, ast.ClassDef) and node.name == "EstimationFailed":
                defining.add(path.name)
    assert "EstimationFailed" in caught
    assert not caught & {"NonConvergence", "HorizonTooShort", "NoCountedEvents"}
    assert defining == {"errors.py"}
    assert issubclass(NonConvergence, RuntimeError) and issubclass(HorizonTooShort, ValueError)
    assert issubclass(NoCountedEvents, EstimationFailed) and issubclass(NoCountedEvents, ValueError)
    assert issubclass(NonConvergence, EstimationFailed)
    assert issubclass(HorizonTooShort, EstimationFailed)


def test_main_builds_each_commands_config():
    # The config is read once: only main calls _config_from_args, and every
    # command takes the config it built and the keys a flag or file gave.
    tree = ast.parse((SRC / "cli.py").read_text())
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_config_from_args"}
    assert callers == {"main"}
    commands = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert len(commands) == 7
    for fn in commands:
        assert [a.arg for a in fn.args.args] == ["args", "config", "given"], fn.name


def test_every_import_is_used_but_the_tracers():
    # An import no code of its module uses is dead, except the tracer's list.
    for name, tree in _modules():
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used == TRACER_ONLY_IMPORTS.get(name, set()), name


def test_every_exported_name_is_called_or_listed_public():
    # dphawkes.__all__ holds what the package itself calls; any other name is
    # listed, with its reason, in the README's Public API section.
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for _, tree in _modules() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    listed = _readme_public_api()
    assert set(dphawkes.__all__) - referenced - set(listed) == set()
    for name in listed:  # a listed name still exists, as the package or its module exports it
        module, _, attr = name.rpartition(".")
        assert hasattr(importlib.import_module(f"dphawkes.{module}".rstrip(".")), attr), name
