"""Static checks of the package source, by the standard library's ast: no
unused import, no unreferenced private module-level name, no undefined
__all__ entry, no lattice grid built by np.meshgrid outside
theta.grid_pairs, no BLAS product outside the two matrix products and no
np.linalg name but the SVD of the rank oracle, no number written in a
criterion description, no exception but ValueError raised by the
measuring routes, no module whose
compilation outgrows the import peak, and, imported, no submodule shadowed
by a package attribute of its name.  They catch what a refactor leaves
behind."""

import ast
import importlib
import pkgutil
import re
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "torusbergman"
MODULES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def _references(tree: ast.Module) -> set[str]:
    """Names read in the module: loaded names, attribute names and __all__ entries."""
    refs = set(_all_entries(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _module_level(tree: ast.Module) -> set[str]:
    """Names bound at the top level: functions, classes, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def _scoped_nodes(tree: ast.Module):
    """Every node below the top, with the dotted name of the function or class
    that holds it (or <module>)."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            yield scope or "<module>", child
            yield from visit(child, scope)

    return visit(tree, "")


def _meshgrid_callers(tree: ast.Module) -> list[str]:
    """Dotted names of the functions (or <module>) that call meshgrid, in order."""
    return [scope for scope, node in _scoped_nodes(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "meshgrid"]


def _linalg_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(scope, name) for each linalg function named as an attribute (np.linalg.svd)
    or imported from numpy.linalg, and (scope, "linalg") for an import of the module."""
    found = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg":
            found.append((scope, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(scope, a.name) for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(scope, "linalg") for a in node.names if a.name.split(".")[-1] == "linalg"]
    return found


_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _blas_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(scope, name) for each BLAS product: "@" for the matrix-product operator
    (or @=), and dot, vdot, inner, matmul or tensordot named as an attribute
    (np.vdot, x.dot) or imported from numpy."""
    found = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((scope, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_CALLS:
            found.append((scope, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(scope, a.name) for a in node.names if a.name in _BLAS_CALLS]
    return found


def _description_numbers(tree: ast.Module) -> list[str]:
    """The numbers written in _CRITERIA_DESC's text: numeric constants, and digits
    outside {placeholders} that no letter, digit or ^ precedes (b0 and k^n are names)."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_CRITERIA_DESC" for t in node.targets):
            for c in ast.walk(node.value):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    text = re.sub(r"\{[^{}]*\}", "", c.value)
                    found += re.findall(r"(?<![\w^.])\d+(?:\.\d*)?(?:[eE][-+]?\d+)?%?", text)
                elif isinstance(c, ast.Constant):
                    found.append(repr(c.value))
    return found


def _raised(tree: ast.Module) -> list[tuple[str, str]]:
    """(scope, exception name) for each raise statement; a bare re-raise is named 'raise'."""
    found = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((scope, "raise" if exc is None else getattr(exc, "id", getattr(exc, "attr", "?"))))
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_unused_import(name):
    tree = MODULES[name]
    assert [n for n in _imported(tree) if n not in _references(tree)] == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_private_names_are_referenced(name):
    used = set().union(*(_references(t) for t in MODULES.values()))
    used |= {a.name for t in MODULES.values() for n in ast.walk(t)
             if isinstance(n, ast.ImportFrom) for a in n.names}
    private = {n for n in _module_level(MODULES[name]) if n.startswith("_") and not n.startswith("__")}
    assert sorted(private - used) == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_all_entries_are_defined(name):
    tree = MODULES[name]
    assert [n for n in _all_entries(tree) if n not in _module_level(tree)] == []


def test_lattice_grids_go_through_the_grid_evaluator():
    # a pointwise lattice grid starts from a meshgrid of its axes; the package's
    # grids go through theta.weighted_grid, and only grid_pairs lists points
    callers = [(name, f) for name, tree in MODULES.items() for f in _meshgrid_callers(tree)]
    assert callers == [("theta.py", "grid_pairs")]


def test_no_blas_or_lapack_outside_the_matrix_products():
    # BLAS carries the work only in the two matrix products, theta's E_j @ G_j
    # and the FS scan's overlap blocks; each norm, dot and mat-vec is a numpy
    # sum (np.linalg.norm and np.vdot are BLAS level-1 calls), and the fits,
    # the factor ranks and b0 are closed forms.  The one LAPACK call left is
    # the SVD of embedding._rank, which only the one-point product oracle
    # differential reaches
    names = sorted((name, scope, f) for name, tree in MODULES.items()
                   for scope, f in _blas_names(tree) + _linalg_names(tree))
    assert names == [("embedding.py", "_factor_min_fs", "@"), ("embedding.py", "_rank", "svd"),
                     ("theta.py", "weighted_grid", "@")]


def test_criteria_descriptions_hold_no_numeric_literal():
    # each bound is written once, in its sub-check record, and a description
    # shows it through a placeholder formatted from that record
    assert _description_numbers(MODULES["experiment.py"]) == []


@pytest.mark.parametrize("name", ["kernel.py", "embedding.py", "pullback.py"])
def test_measuring_routes_raise_only_value_errors(name):
    # the routes report floored rungs and rises; only bad arguments raise, and
    # experiment.py decides every verdict from what the routes return
    raised = _raised(MODULES[name])
    assert raised and {exc for _, exc in raised} == {"ValueError"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_compiles_within_the_import_peak(name):
    # a CLI run compiles the package at import when no bytecode is written,
    # and its peak RSS follows the largest module's compile: a 616-line
    # experiment.py peaked at 2.44 MB in compile() and raised every bench
    # workload's peak_rss_mb by 0.4-0.7 MB
    text = (SRC / name).read_text()
    tracemalloc.start()
    try:
        compile(text, str(SRC / name), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_750_000, f"{name}: {peak / 1e6:.2f} MB"


def test_submodules_are_package_attributes():
    # `from torusbergman import kernel` once gave the function that __init__
    # re-exported under the module's name, and monkeypatching it patched nothing
    import torusbergman

    for info in pkgutil.iter_modules(torusbergman.__path__):
        module = importlib.import_module(f"torusbergman.{info.name}")
        assert getattr(torusbergman, info.name) is module, info.name


def test_checks_see_a_leftover():
    # the checks themselves: an orphaned import, an unread private helper and a
    # stale __all__ entry are each reported
    tree = ast.parse("from collections.abc import Iterator\n__all__ = ['gone']\ndef _helper():\n    pass\n")
    assert [n for n in _imported(tree) if n not in _references(tree)] == ["Iterator"]
    assert "_helper" in _module_level(tree) and "_helper" not in _references(tree)
    assert [n for n in _all_entries(tree) if n not in _module_level(tree)] == ["gone"]
    # and a meshgrid call is found wherever it is: function, method or module level
    tree = ast.parse("import numpy as np\nfrom numpy import meshgrid\ndef grid_pairs(t):\n"
                     "    return np.meshgrid(t, t)\nclass Basis:\n    def member(self, t):\n"
                     "        A, B = meshgrid(t, t)\nGRID = np.meshgrid([0.5], [0.5])\n")
    assert _meshgrid_callers(tree) == ["grid_pairs", "Basis.member", "<module>"]
    # and a linalg function is seen however it is named
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import det\nfrom numpy import linalg\n"
                     "def fit(A, y):\n    return np.linalg.lstsq(A, y), np.linalg.norm(y), linalg.qr(A)\n")
    assert _linalg_names(tree) == [("<module>", "det"), ("<module>", "linalg"), ("fit", "lstsq"),
                                   ("fit", "norm"), ("fit", "qr")]
    # and a BLAS product is seen however it is written
    tree = ast.parse("import numpy as np\nfrom numpy import vdot, sum\ndef f(a, b, M):\n"
                     "    M @= M\n    return a @ b, np.dot(a, b), a.dot(b), np.inner(a, b), np.matmul(M, a)\n")
    assert _blas_names(tree) == [("<module>", "vdot"), ("f", "@"), ("f", "@"), ("f", "dot"), ("f", "dot"),
                                 ("f", "inner"), ("f", "matmul")]
    # and a bound written into a description, as text or as a constant, is seen,
    # while names, placeholders and their format specs are not
    tree = ast.parse('_CRITERIA_DESC = {"A4": "within 10% and <= 1e-9 of 2 Im Psi, b0*k^n " "{bound:.0%}",\n'
                     '                  "A5": ("gamma > {gamma:g}", 0.5)}\n')
    assert _description_numbers(tree) == ["10%", "1e-9", "2", "0.5"]
    # and a raise is named however it is written
    tree = ast.parse("def f(x):\n    if x:\n        raise FloatingPointError('k')\n    raise ValueError\n"
                     "class R:\n    def g(self):\n        try:\n            pass\n        except OSError:\n"
                     "            raise\n")
    assert _raised(tree) == [("f", "FloatingPointError"), ("f", "ValueError"), ("R.g", "raise")]
