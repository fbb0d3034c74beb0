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
shadow, promote or rollback methods.  Likewise a second pointer decode:
only the route decoder calls its candidate scoring.

Code that only tests reach is surface to keep without a use: every
public top-level definition in ``src/repro`` must be named by the
package itself, a bench or perfbench, apart from a short allowlist of
references the tests compare against.  An import that its module never
reads is a name a reader searches for in vain, so there are none in
``src/repro`` or the bench scripts.
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


#: The route decoder's candidate scoring.
DECODER_INTERNALS = {"log_probs_batch"}


def test_route_decoder_internals_have_one_owner():
    """Only ``RouteDecoder`` (its step loop and teacher-forced pass)
    calls it, so no other module scores pointer candidates; the fused
    greedy kernel scores them in place, without it."""
    callers = sorted(
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                       filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in DECODER_INTERNALS)
    assert {caller.split(":")[0] for caller in callers} == {
        "repro/core/decoder.py"}, "\n".join(callers)


#: Public definitions that only tests use, each kept for its reason.
TEST_ONLY_KEEP = {
    # The finite-difference checker the gradient tests compare against.
    "check_gradients",
    # Run by the per-head GAT-e reference in tests/test_gat_tape.py.
    "masked_softmax",
    # Subclassed as a recording fake in tests/test_packed_training.py.
    "SGD",
}


def referenced_names(path: pathlib.Path):
    """Every name and attribute that ``path`` mentions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_definition_has_a_use_outside_tests():
    """A public top-level ``def`` or ``class`` stays only if
    ``src/repro`` (not counting ``__init__.py`` re-exports),
    ``benchmarks/*.py`` or ``perfbench/*.py`` names it.  The match is
    loose (``np.clip`` would hide a ``clip`` op), so this stops
    regrowth; it does not prove that a name is used."""
    package = SRC / "repro"
    users = [path for path in sorted(package.rglob("*.py"))
             if path.name != "__init__.py"]
    for folder in ("benchmarks", "perfbench"):
        users += sorted((SRC.parent / folder).glob("*.py"))
    used = {name for path in users for name in referenced_names(path)}
    unused = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno} {node.name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used | TEST_ONLY_KEEP]
    assert not unused, "\n".join(unused)


def read_names(tree: ast.AST):
    """Names that ``tree`` reads: every ``Name`` (attribute roots are
    ``Name`` nodes too) and every name inside a string annotation."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations += [arg.annotation for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if arg is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    names |= read_names(ast.parse(text.value, mode="eval"))
    return names


def test_every_import_is_read():
    """A module of ``src/repro`` (not ``__init__.py``, whose imports are
    re-exports) or a ``benchmarks/*.py`` script reads every name it
    imports."""
    paths = [path for path in sorted((SRC / "repro").rglob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((SRC.parent / "benchmarks").glob("*.py"))
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [alias.asname or alias.name for alias in node.names
                         if alias.name != "*"]
            else:
                continue
            unread += [f"{path.relative_to(SRC.parent).as_posix()}:"
                       f"{node.lineno} {name}"
                       for name in bound if name not in read]
    assert not unread, "\n".join(unread)
