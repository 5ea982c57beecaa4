"""The oracle stays independent, and only verify consults it: checked on the
import statements in the source, so an import inside a function counts as well.  Invariants are
checked with typed exceptions, never with assert, which python -O strips.
Only the CLI writes JSON.  Every name the benchmark traces or reads a cache
from still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import repst


SOURCE = Path(repst.__file__).parent


def _imported_names(module: str) -> set[str]:
    """Every dotted component and imported name of every import in the module."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_snoracle_imports_no_interpolation_module():
    assert not _imported_names("snoracle") & {"deligne", "schurweyl", "groupalg"}


@pytest.mark.parametrize("module", ["exact", "deligne", "schurweyl", "groupalg"])
def test_interpolation_modules_import_nothing_from_snoracle(module):
    assert "snoracle" not in _imported_names(module)


def test_only_verify_imports_snoracle():
    """The oracle is a dependency of the checks alone."""
    importers = [path.stem for path in sorted(SOURCE.glob("*.py"))
                 if path.stem != "snoracle" and "snoracle" in _imported_names(path.stem)]
    assert importers == ["verify"]


def test_deligne_does_not_import_hook_dim():
    assert "hook_dim" not in _imported_names("deligne")


def test_snoracle_does_not_import_hook_product():
    # the oracle's dimensions come from Frobenius's formula, so they check
    # the hook-length route that dimension_poly divides by
    assert "hook_product" not in _imported_names("snoracle")


def test_import_walker_sees_known_imports():
    assert {"partitions", "check_cycle_type"} <= _imported_names("snoracle")
    assert {"partitions", "support", "exact"} <= _imported_names("deligne")


def test_no_assert_statements_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_cli_writes_json():
    """The library returns values and reports; cli alone turns them into the wire format."""
    library = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "cli.py"]
    assert [path.name for path in library if "json" in _imported_names(path.stem)] == []
    assert [f"{path.name}:{node.lineno} {node.name}"
            for path in library
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("to_json")] == []


def _benchmark_layers():
    """perfbench/layers.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _resolve(module: str, dotted: str):
    value = importlib.import_module(module)
    for name in dotted.split("."):
        value = getattr(value, name, None)
    return value


def test_every_benchmark_target_resolves():
    missing = [span for span, module, attribute in _benchmark_layers().TARGETS
               if _resolve(module, attribute) is None]
    assert missing == []


def test_every_benchmark_cache_is_a_functools_cache():
    layers = _benchmark_layers()
    names = set(layers.KNOWN_CACHES) | set(layers.CACHE_OF.values())
    not_cached = []
    for name in sorted(names):
        module, attribute = name.split(".", 1)
        fn = _resolve(f"repst.{module}", attribute)
        if not (callable(getattr(fn, "cache_info", None))
                and callable(getattr(fn, "cache_clear", None))):
            not_cached.append(name)
    assert not_cached == []
