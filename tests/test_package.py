import ast
import importlib
from pathlib import Path

import pytest

import framecalc

MODULES = ("contract", "linalg", "frames", "approx", "gabor", "reference")


def test_package_surface_is_the_modules_surfaces():
    modules = [importlib.import_module(f"framecalc.{name}") for name in MODULES]
    expected = [name for module in modules for name in module.__all__]
    assert framecalc.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(framecalc, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from framecalc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(framecalc.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        framecalc.no_such_name


def test_every_public_name_has_a_caller():
    # A public name is used, not only defined, exported or imported, somewhere
    # in the package or the demos: a name read only by tests is not kept.
    root = Path(__file__).resolve().parent.parent
    used = set()
    for path in [*(root / "src" / "framecalc").glob("*.py"), *(root / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert [name for name in framecalc.__all__ if name not in used] == []


NUMPY_FACTORIZATIONS = {"cholesky", "eig", "eigh", "eigvalsh", "inv", "lstsq", "qr", "solve", "svd"}
# numpy.linalg.norm takes an SVD for these orders of a matrix.
SINGULAR_VALUE_ORDS = (2, -2, "nuc")


def _in_linalg(node):
    """Whether ``node`` names an attribute of a ``linalg`` module."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"


def _takes_singular_values(call):
    """Whether a numpy.linalg.norm call's ``ord``, positional or keyword, is
    one that factors; an ``ord`` that is not a literal may be, so it counts."""
    ords = call.args[1:2] + [keyword.value for keyword in call.keywords if keyword.arg == "ord"]
    try:
        return any(ast.literal_eval(order) in SINGULAR_VALUE_ORDS for order in ords)
    except ValueError:
        return True


def _factorization_calls(node, function):
    """(enclosing function, name) of each numpy.linalg factorization under
    ``node``, a norm of singular values included."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if _in_linalg(node) and node.attr in NUMPY_FACTORIZATIONS:
        yield function, node.attr
    if isinstance(node, ast.Call) and _in_linalg(node.func) and node.func.attr == "norm" and _takes_singular_values(node):
        yield function, "norm"
    if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
        yield from ((function, alias.name) for alias in node.names if alias.name in NUMPY_FACTORIZATIONS)
    for child in ast.iter_child_nodes(node):
        yield from _factorization_calls(child, function)


def test_the_one_factorization_is_svd_in_linalg_svd():
    # Every spectral quantity reads an SVD taken in linalg.svd, so no layer
    # factors anything else through numpy.linalg: neither a factorization
    # nor a norm of singular values (ord 2, -2 or "nuc").
    root = Path(__file__).resolve().parent.parent / "src" / "framecalc"
    calls = [
        (path.stem, *call)
        for path in sorted(root.glob("*.py"))
        for call in _factorization_calls(ast.parse(path.read_text(encoding="utf-8")), None)
    ]
    assert calls == [("linalg", "svd", "svd")]
