"""Public API surface: every ``__all__`` export exists, is documented,
and the package layers only depend downward."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.tokenizers",
    "repro.models",
    "repro.pretraining",
    "repro.data",
    "repro.matching",
    "repro.baselines",
    "repro.evaluation",
    "repro.obs",
    "repro.utils",
    "repro.analysis",
    "repro.analysis.concurrency",
    "repro.resilience",
    "repro.perf",
    "repro.serve",
    "repro.dedupe",
    "repro.bench",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES[1:])
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(symbol)
    assert not undocumented, f"{name}: undocumented {undocumented}"


def test_nn_layer_does_not_import_models():
    import repro.nn as nn_pkg
    import sys
    # importing repro.nn alone must not pull in the model layer
    for mod in list(sys.modules):
        if mod.startswith("repro.nn"):
            source = inspect.getsource(sys.modules[mod]) \
                if hasattr(sys.modules[mod], "__file__") else ""
            assert "from ..models" not in source
            assert "import repro.models" not in source


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_cli_module_entrypoint_exists():
    from repro.cli import build_parser, main
    assert callable(main)
    parser = build_parser()
    assert parser.prog == "repro"


def test_architectures_constant_consistent():
    from repro.models import ARCHITECTURES
    from repro.evaluation import ALL_ARCHS
    assert set(ARCHITECTURES) == set(ALL_ARCHS)


def test_paper_constants_consistent():
    from repro.evaluation import PAPER_TABLE5, PAPER_TABLE6_SECONDS, \
        ALL_DATASETS
    assert set(PAPER_TABLE5) == set(ALL_DATASETS)
    assert set(PAPER_TABLE6_SECONDS) == set(ALL_DATASETS)
    # the paper's headline: best transformer wins on every dataset
    for magellan, deepmatcher, transformer in PAPER_TABLE5.values():
        assert transformer > max(magellan, deepmatcher)
