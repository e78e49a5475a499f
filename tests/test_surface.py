"""The package's public surface: every name the benchmark worker and the
README import from it resolves, and the package itself exports exactly the
README's entry points."""

import ast
import importlib
import re
import types
from pathlib import Path

import orthofrac
from orthofrac.designs import full_factorial
from orthofrac.search import SearchProblem

ROOT = Path(__file__).resolve().parents[1]


def _orthofrac_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every `from orthofrac... import name` in the source."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "orthofrac"
        for alias in node.names
    ]


def _resolve(module: str, name: str):
    """What `from module import name` binds: an attribute, else a submodule."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    return importlib.import_module(f"{module}.{name}")


def _readme_imports() -> list[tuple[str, str]]:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    return _orthofrac_imports(block)


def test_bench_worker_imports_resolve():
    imports = _orthofrac_imports((ROOT / "bench" / "worker.py").read_text())
    assert ("orthofrac.classify", "classify") in imports and ("orthofrac", "cli") in imports
    for module, name in imports:
        _resolve(module, name)
    # The worker reads these through the modules it imports whole.
    assert callable(_resolve("orthofrac", "cli").main)
    assert callable(_resolve("orthofrac", "search").get_checker)
    SearchProblem(full_factorial([2, 2]), 2, 1, workers=2)


def test_readme_entry_points_are_the_package_exports():
    imports = _readme_imports()
    for module, name in imports:
        _resolve(module, name)
    exported = {
        name for name, value in vars(orthofrac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {name for module, name in imports if module == "orthofrac"}
    assert isinstance(orthofrac.classify, types.ModuleType)
    assert callable(_resolve("orthofrac.classify", "classify"))
