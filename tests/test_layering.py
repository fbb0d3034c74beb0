"""Layering: the serving tiers never import the online loop or the load harness.

``repro.deploy``, ``repro.serving_shard`` and ``repro.service`` serve
requests; ``repro.online`` (the continual-learning loop) and
``repro.load`` (the scenario harness) drive them from above.  An import
the other way is a cycle waiting to happen and couples serving to the
code that tests it.  ``repro/__init__.py`` imports every subpackage
eagerly, so ``sys.modules`` cannot tell who imported whom; the source
is scanned with :mod:`ast` instead, lazy in-function imports included.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
LOWER_PACKAGES = ("deploy", "serving_shard", "service")
UPPER_PACKAGES = ("repro.online", "repro.load")


def imported_modules(path: pathlib.Path):
    """Absolute module names ``path`` imports, with line numbers."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else ()
            if node.module:
                yield node.lineno, ".".join(base + (node.module,))
            else:
                for alias in node.names:
                    yield node.lineno, ".".join(base + (alias.name,))


def test_relative_imports_resolve():
    path = SRC / "repro" / "serving_shard" / "runtime.py"
    modules = {name for _, name in imported_modules(path)}
    assert "repro.deploy.resilience" in modules
    assert "repro.core.fallback" in modules


@pytest.mark.parametrize("package", LOWER_PACKAGES)
def test_serving_tier_does_not_import_online_or_load(package):
    offenders = []
    for path in sorted((SRC / "repro" / package).rglob("*.py")):
        for lineno, name in imported_modules(path):
            if any(name == upper or name.startswith(upper + ".")
                   for upper in UPPER_PACKAGES):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno} imports {name}")
    assert not offenders, "\n".join(offenders)
