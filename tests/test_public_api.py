"""Public-API quality gates: exports resolve, are documented, and
``__all__`` is consistent across every package."""

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.autodiff",
    "repro.nn",
    "repro.data",
    "repro.graphs",
    "repro.core",
    "repro.baselines",
    "repro.metrics",
    "repro.obs",
    "repro.training",
    "repro.eval",
    "repro.service",
    "repro.experiments",
    "repro.deploy",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestPublicAPI:
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} missing __all__"
        for name in package.__all__:
            assert hasattr(package, name), (
                f"{package_name}.__all__ lists {name!r} but it is not "
                "importable")

    def test_public_callables_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            member = getattr(package, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                if not inspect.getdoc(member):
                    undocumented.append(name)
        assert not undocumented, (
            f"{package_name} exports undocumented public API: {undocumented}")

    def test_no_duplicate_exports(self, package_name):
        package = importlib.import_module(package_name)
        assert len(package.__all__) == len(set(package.__all__))


class TestVersionAndConveniences:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(part.isdigit() for part in parts)

    def test_top_level_convenience_names(self):
        for name in ("M2G4RTP", "Trainer", "SyntheticWorld", "RTPDataset",
                     "GraphBuilder", "evaluate_method", "RTPService"):
            assert hasattr(repro, name)

    def test_public_modules_have_docstrings(self):
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            assert package.__doc__, f"{package_name} missing module docstring"

    def test_cli_module_importable(self):
        from repro.cli import build_parser
        parser = build_parser()
        assert parser.prog == "repro-rtp"
