"""The oracle stays independent, and only verify consults it: checked on the
import statements in the source, so an import inside a function counts as well.  Invariants are
checked with typed exceptions, never with assert, which python -O strips.
Only the CLI writes JSON, and no module imports another's private name.
Only the Frobenius kernel and the tensor powers name the series type.
Every name the benchmark traces or reads a cache from still exists."""

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


def test_no_module_imports_another_modules_private_name():
    """A `_`-prefixed name stays in its module: no module imports one from
    another repst module, or reads one off a repst module it imported."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "repst"):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
                if node.module in (None, "repst"):
                    modules.update(alias.asname or alias.name for alias in node.names)
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert found == []


def _named_identifiers(path: Path) -> set[str]:
    """Every identifier the module's code names: variables, attributes,
    imported names and definitions; strings and comments do not count."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def test_only_the_frobenius_kernel_and_tensor_powers_name_the_series_type():
    """TruncatedSeries serves deligne's power block and schurweyl's
    tensor_power_hilbert; every other caller reads coefficient tuples."""
    users = [path.stem for path in sorted(SOURCE.glob("*.py"))
             if "TruncatedSeries" in _named_identifiers(path)]
    assert users == ["deligne", "exact", "schurweyl"]


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
