"""Every dense product in the package goes through ``linalg.matmul``.

numpy and scipy each bundle their own OpenBLAS, with a thread pool each,
and a pool that has just run keeps its workers spinning on the cores the
other then needs. The package runs LAPACK on scipy's, so ``linalg.matmul``
runs products there too. A numpy product (``@``, ``np.dot``, ``.dot(``) or
a ``numpy.linalg`` call would wake the second pool without any result
changing, so this test reads the source for them.
"""
from __future__ import annotations

import ast
from pathlib import Path

import dbmmd

SRC = Path(dbmmd.__file__).parent

# (file, scope, form) of the one numpy product kept: the synthetic rotation,
# whose bits the golden feature digest and the benchmark's labels pin.
ALLOWED = [("synthetic.py", "_apply_shift", "@")]

ANY_OWNER = {"dot", "vdot", "tensordot"}  # np.dot and ndarray.dot alike
NUMPY_NAMES = {"matmul", "inner", "linalg"}
NUMPY = {"np", "numpy"}


class _NumpyProducts(ast.NodeVisitor):
    """(scope, what) of each numpy product or numpy.linalg use in a module."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _hit(self, what: str):
        self.found.append((".".join(self.scope), what))

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._hit("@")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._hit("@=")
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr in ANY_OWNER or (
            node.attr in NUMPY_NAMES and isinstance(node.value, ast.Name)
            and node.value.id in NUMPY
        ):
            self._hit(f".{node.attr}")
        self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "numpy.linalg":
                self._hit("import numpy.linalg")

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if module == "numpy.linalg" or (
            module == "numpy" and any(a.name in ANY_OWNER | NUMPY_NAMES for a in node.names)
        ):
            self._hit(f"from {module} import")


def numpy_products(source: str) -> list[tuple[str, str]]:
    visitor = _NumpyProducts()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_no_numpy_product_outside_the_pinned_rotation():
    found = [
        (path.name, scope, what)
        for path in sorted(SRC.glob("*.py"))
        for scope, what in numpy_products(path.read_text())
    ]
    assert found == ALLOWED


def test_the_scan_sees_every_form():
    source = """
import numpy as np
import numpy.linalg
from numpy.linalg import norm
from numpy import dot

def f(a, b):
    c = a @ b
    c @= b
    return np.dot(a, b) + a.dot(b) + np.matmul(a, b) + np.linalg.norm(a)

class K:
    def g(self, a):
        return a @ a.T
"""
    assert numpy_products(source) == [
        ("", "import numpy.linalg"), ("", "from numpy.linalg import"),
        ("", "from numpy import"), ("f", "@"), ("f", "@="), ("f", ".dot"), ("f", ".dot"),
        ("f", ".matmul"), ("f", ".linalg"), ("K.g", "@"),
    ]
