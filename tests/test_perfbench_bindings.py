"""Every package name the benchmark in ``perfbench/`` binds still resolves.

The benchmark wraps package functions by name (``TRACED`` in
``perfbench/spans.py``), imports package names at the top of its modules,
and reads model attributes in its tracing hooks and its oracle.  A rename or
move in the package would otherwise only show when the benchmark runs
(``perfbench/run.py --trace 1``).  The benchmark's files are only read here.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import numpy as np

from bebcharge.solver import SolveLimits, branch_and_bound

from test_milp import tiny_model

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_benchmark_module(name):
    """Import ``perfbench/<name>.py`` under a private module name."""
    qualified = f"_perfbench_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[qualified]


def test_traced_names_resolve():
    traced = load_benchmark_module("spans").TRACED
    paths = {(module, path) for _, module, path in traced}
    assert ("bebcharge.solver", "linprog") in paths
    assert ("bebcharge.solver", "build_warm_start") in paths
    for layer, module_name, path in traced:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


def test_benchmark_imports_resolve():
    bound = []
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bebcharge"):
                bound += [(source.name, node.module, alias.name) for alias in node.names]
    assert any(name == "workloads.py" for name, _, _ in bound)
    for source, module_name, name in bound:
        assert hasattr(importlib.import_module(module_name), name), (
            f"{source}: {module_name}.{name}"
        )


def test_hooks_and_oracle_read_the_model():
    spans = load_benchmark_module("spans")
    oracle = load_benchmark_module("oracle")
    model, _, _ = tiny_model()
    solution = branch_and_bound(model, SolveLimits(mip_gap=0.0))

    tracer = spans.Tracer()
    spans.HOOKS["solver.branch_and_bound"](tracer, (model,), {}, solution)
    assert tracer.counts[("setup", "milp.cols")] == model.n_variables
    assert tracer.counts[("setup", "milp.rows")] == model.n_constraints
    assert tracer.counts[("setup", "milp.int_cols")] == int(model.integer.sum())
    assert tracer.counts[("setup", "solver.nodes")] == solution.nodes_explored

    # the oracle's own matrix, read from the row and column views, is the
    # stored form
    form = oracle.matrix_form(model)
    assert np.array_equal(form.A.toarray(), model.A.toarray())
    for got, want in [(form.row_lo, model.row_lo), (form.row_hi, model.row_hi),
                      (form.c, model.c), (form.lb, model.lb), (form.ub, model.ub),
                      (form.integer, model.integer)]:
        assert np.array_equal(got, want)
    assert oracle.assignment_ok(model, solution.assignment)
