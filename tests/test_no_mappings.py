"""No module of the package maps memory of its own.

tracemalloc sees numpy's allocations but not an array over an ``mmap``
buffer or an ``np.memmap``, so the memory tests' traced peaks hold every
array only while all of them come from numpy's allocator. This test
reads the source for the ways around it.
"""
from __future__ import annotations

import ast
from pathlib import Path

import dbmmd

SRC = Path(dbmmd.__file__).parent


def mappings(source: str) -> list[str]:
    """Each ``mmap`` import and ``memmap`` attribute in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "mmap"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "mmap" or any(
                    a.name == "memmap" for a in node.names):
                found.append(f"from {node.module} import")
        elif isinstance(node, ast.Attribute) and node.attr == "memmap":
            found.append(".memmap")
    return found


def test_no_module_maps_memory():
    found = {path.name: hits for path in sorted(SRC.glob("*.py"))
             if (hits := mappings(path.read_text()))}
    assert found == {}
    # the scan sees each form
    assert mappings("import mmap\nfrom mmap import mmap\nfrom numpy import memmap\n"
                    "a = np.memmap('f')\n") == [
        "mmap", "from mmap import", "from numpy import", ".memmap"]
