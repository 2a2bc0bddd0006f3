"""No decision of the library reads a float.

The scan walks the syntax tree of every module of src/padictiles and lists each construct that makes or
reads a float: a float or complex literal, the names float, complex and cmath, the float constants and
sums of math (.fsum, .tau, .pi, .inf, .nan, .float_info) and a true division `/`.  Each may stand only in
a function of ALLOWED, with the kinds listed there: the float evaluator and the two numeric() methods,
which feed report hints, the public diagnostic spectrum_orthogonality_defect, and the path joins of the
gallery writer.  Module-level imports are not hits; a use of what they bind is.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from padictiles import decide

SRC = Path(__file__).resolve().parents[1] / "src" / "padictiles"

FLOAT_NAMES = {"float", "complex", "cmath"}
FLOAT_ATTRS = {"fsum", "tau", "pi", "inf", "nan", "float_info"}

# (module, qualified function) -> the kinds of hit it may hold
ALLOWED = {
    ("cyclotomic", "_float_sum"): {"complex", "cmath", ".tau", ".fsum", ".inf", ".float_info", "/"},
    ("cyclotomic", "CyclotomicSum.numeric"): {"complex"},
    ("copen", "ScaledCyclotomic.numeric"): {"complex", "float", ".inf", ".float_info"},
    ("decide", "spectrum_orthogonality_defect"): {"float", "float literal"},
    ("cli", "cmd_gallery"): {"/"},  # pathlib joins
}


def _kinds(node: ast.AST):
    """The float constructs that node itself is (not its children)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        yield f"{type(node.value).__name__} literal"
    elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr in FLOAT_ATTRS:
        yield "." + node.attr
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        yield "/"
    elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
        yield "cmath"
    elif isinstance(node, ast.ImportFrom) and node.module == "math":
        yield from ("." + a.name for a in node.names if a.name in FLOAT_ATTRS)
    elif isinstance(node, ast.Import):  # import cmath binds the name cmath, whose uses are hits
        yield from ("cmath" for a in node.names if a.name == "cmath" and a.asname not in {None, "cmath"})


def float_hits(source: str) -> list[tuple[str, str, int]]:
    """(qualified name of the enclosing function or class, or "<module>"; kind; line) of each float
    construct in source.  A function's annotations, defaults and decorators count as its own."""
    hits = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        hits.extend((scope, kind, node.lineno) for kind in _kinds(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return hits


def _allowed(module: str, scope: str, kind: str) -> bool:
    """A hit is allowed in a function of ALLOWED, or in a function or class nested in one."""
    parts = scope.split(".")
    return any(kind in ALLOWED.get((module, ".".join(parts[:i])), ()) for i in range(1, len(parts) + 1))


def _forbidden(module: str, source: str) -> list[tuple[str, str, int]]:
    return [hit for hit in float_hits(source) if not _allowed(module, *hit[:2])]


def test_no_float_outside_the_allowlist():
    modules = sorted(SRC.glob("*.py"))
    assert {path.stem for path in modules} >= {module for module, _ in ALLOWED}
    found = {path.stem: _forbidden(path.stem, path.read_text(encoding="utf-8")) for path in modules}
    assert {module: hits for module, hits in found.items() if hits} == {}


def test_every_allowlist_entry_is_used():
    # an entry whose function lost its floats, or went, is dropped rather than left to admit new ones
    used = {(path.stem, scope, kind) for path in SRC.glob("*.py")
            for scope, kind, _ in float_hits(path.read_text(encoding="utf-8"))}
    assert {(m, f, k) for (m, f), kinds in ALLOWED.items() for k in kinds} <= used


def test_decide_allows_only_its_public_diagnostic():
    assert [f for m, f in ALLOWED if m == "decide"] == ["spectrum_orthogonality_defect"]
    assert "spectrum_orthogonality_defect" in decide.__all__


def test_the_scan_finds_the_numeric_guard_the_spectrum_constructor_had():
    guard = (
        "def _spectrum_from_homogeneity(C, levels, maps=None):\n"
        "    if _defect(p, M, counts) >= 1e-9:\n"
        "        raise ConstructionFailed(f'numeric guard failed for C={C.C}')\n"
    )
    assert _forbidden("decide", guard) == [("_spectrum_from_homogeneity", "float literal", 2)]


@pytest.mark.parametrize("source, kind", [
    ("def f(x):\n    return x / 2\n", "/"),
    ("def f(x):\n    x /= 2\n", "/"),
    ("def f(x):\n    return float(x)\n", "float"),
    ("def f(x):\n    return x + 1j\n", "complex literal"),
    ("def f(x):\n    return cmath.exp(x)\n", "cmath"),
    ("def f(x):\n    return math.fsum(x)\n", ".fsum"),
    ("def f(x):\n    return math.tau * x\n", ".tau"),
    ("def f(x) -> float:\n    return x\n", "float"),
    ("from math import tau\n", ".tau"),
    ("from cmath import rect\n", "cmath"),
    ("import cmath as c\n", "cmath"),
])
def test_the_scan_finds_each_kind(source, kind):
    assert [k for _, k, _ in _forbidden("decide", source)] == [kind]


def test_the_allowlist_admits_only_its_own_kinds_and_functions():
    div = "class CyclotomicSum:\n    def numeric(self):\n        return self.x / 2\n"
    assert _forbidden("cyclotomic", div) == [("CyclotomicSum.numeric", "/", 3)]
    assert _forbidden("cli", "def cmd_gallery(a):\n    return a / 'b'\n") == []
    assert _forbidden("pairs", "def cmd_gallery(a):\n    return a / 'b'\n") == [("cmd_gallery", "/", 2)]
    nested = "def _float_sum(q):\n    def step(j):\n        return j / q\n    return step\n"
    assert _forbidden("cyclotomic", nested) == []
