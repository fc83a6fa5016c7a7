import importlib

import framecalc

MODULES = ("linalg", "frames", "approx", "gabor", "reference")


def test_package_surface_is_the_modules_surfaces():
    modules = [importlib.import_module(f"framecalc.{name}") for name in MODULES]
    expected = [name for module in modules for name in module.__all__]
    assert framecalc.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(framecalc, name) is getattr(module, name), name
