"""Examples and benchmark modules: syntax-valid, documented, well-formed.

Executing the examples needs the full model zoo (minutes of CPU), so the
test suite checks everything short of that: each script compiles, has a
module docstring and a main() guard, and each benchmark module targets a
real table/figure via the shared helpers.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_with_docstring_and_main(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
    has_main_guard = any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body)
    assert has_main_guard, f"{path.name} lacks a __main__ guard"
    functions = [n.name for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef)]
    assert "main" in functions


def test_at_least_three_examples_exist():
    assert len(EXAMPLES) >= 3
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_module_well_formed(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
    test_functions = [n.name for n in tree.body
                      if isinstance(n, ast.FunctionDef)
                      and n.name.startswith("test_")]
    assert test_functions, f"{path.name} has no test function"
    source = path.read_text()
    assert "benchmark" in source
    assert "emit(" in source  # persists its rendered output


def test_every_paper_artifact_has_a_benchmark():
    names = {p.stem for p in BENCHMARKS}
    for expected in ("bench_table3_datasets", "bench_table5_comparison",
                     "bench_table6_training_time", "bench_figure10_abt_buy",
                     "bench_figure11_itunes_amazon",
                     "bench_figure12_walmart_amazon",
                     "bench_figure13_dblp_acm",
                     "bench_figure14_dblp_scholar", "bench_convergence",
                     "bench_ablations"):
        assert expected in names, expected


def test_examples_import_only_public_api():
    """Examples should demonstrate the public API, not internals."""
    for path in EXAMPLES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    parts = node.module.split(".")
                    # allow one level below the top packages
                    assert len(parts) <= 3, \
                        f"{path.name} imports deep internal {node.module}"
