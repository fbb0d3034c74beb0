"""Layering and the serving-stage contract, checked on the source.

``repro.deploy``, ``repro.serving_shard`` and ``repro.service`` serve
requests; ``repro.online`` (the continual-learning loop) and
``repro.load`` (the scenario harness) drive them from above.  An import
the other way is a cycle waiting to happen and couples serving to the
code that tests it.  ``repro/__init__.py`` imports every subpackage
eagerly, so ``sys.modules`` cannot tell who imported whom; the source
is scanned with :mod:`ast` instead, lazy in-function imports included.

Every serving stage implements only ``handle_batch``; ``handle`` is a
batch of one, defined once on ``ServingStage``.  The same scan keeps a
second ``handle`` path from growing back, and a second rollout
controller: ``DeploymentController`` is the only class with canary,
shadow, promote or rollback methods.
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


def classes_under(root: pathlib.Path):
    """``(path, ast.ClassDef)`` for every class defined under ``root``."""
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield path, node


def method_names(cls: ast.ClassDef):
    return {node.name for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def base_names(cls: ast.ClassDef):
    return {getattr(base, "id", getattr(base, "attr", None))
            for base in cls.bases}


def test_no_class_defines_both_handle_and_handle_batch():
    offenders = [f"{path.relative_to(SRC)}:{cls.lineno} {cls.name}"
                 for path, cls in classes_under(SRC / "repro")
                 if {"handle", "handle_batch"} <= method_names(cls)]
    assert not offenders, "\n".join(offenders)


def test_batch_stages_subclass_serving_stage():
    offenders = [f"{path.relative_to(SRC)}:{cls.lineno} {cls.name}"
                 for package in LOWER_PACKAGES
                 for path, cls in classes_under(SRC / "repro" / package)
                 if "handle_batch" in method_names(cls)
                 and "ServingStage" not in base_names(cls)]
    assert not offenders, "\n".join(offenders)


#: Starting or stopping a canary or shadow, promoting, rolling back.
ROLLOUT_METHODS = ({f"{verb}_{mode}" for verb in ("start", "stop")
                    for mode in ("canary", "shadow")}
                   | {"promote", "rollback"})


def test_deployment_controller_is_the_one_rollout_controller():
    owners = sorted(f"{path.relative_to(SRC)}:{cls.lineno} {cls.name}"
                    for path, cls in classes_under(SRC / "repro")
                    if ROLLOUT_METHODS & method_names(cls))
    assert [owner.rsplit(" ", 1)[1] for owner in owners] == [
        "DeploymentController"], "\n".join(owners)
