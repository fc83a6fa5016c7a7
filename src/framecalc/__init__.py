"""Finite-frame numerical analysis.

Construct frames in R^n, compute exact duals and the full fractional-power
family of reconstruction systems through spectral calculus on the frame
operator, approximate duals with three perturbative schemes whose analytical
error bounds are verified empirically, and reproduce a smooth tight window
for modulated-translate systems.

See the demos/ directory for narrative walkthroughs and the ``framecalc``
command line for file-based workflows.

``import framecalc`` loads no layer and not numpy. The first name asked of
the package that it does not yet hold imports ``contract`` and the five layers
and binds all of their public names, each listed by one module, and
``__all__``, so that from then on the namespace is that of an eager package,
while each ``framecalc`` process loads only what its subcommand runs.
"""

__version__ = "0.1.0"

_LAYERS = ("contract", "linalg", "frames", "approx", "gabor", "reference")


def __getattr__(name: str):
    # PEP 562: called only for a name missing from the package globals.
    import importlib

    namespace = globals()
    if "__all__" not in namespace:
        public = {}
        for layer in _LAYERS:
            # Not ``from . import``: its fromlist probe would re-enter here.
            module = importlib.import_module(f"{__name__}.{layer}")
            public.update((attr, getattr(module, attr)) for attr in module.__all__)
        namespace.update(public)
        # A name is public exactly when its module lists it.
        namespace["__all__"] = list(public)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
