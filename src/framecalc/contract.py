"""What framecalc accepts from outside, checked without numpy: the frame file
format, the count rule, the scheme names and the error for a non-frame.

A frame file is {"dim": n, "vectors": [[...], ...], "bounds": [A, B]}, with
"bounds" optional. Floats are written with 17 significant digits, and negative
zero as ``-0.0``, so files round-trip bit-faithfully. Nothing here loads numpy
or a layer until a file passes its schema. The package exports the public names
from here, as it does those of every layer.
"""

from __future__ import annotations

import json
import numbers
from enum import Enum

__all__ = ["NotAFrameError", "Scheme", "frame_from_dict", "frame_to_json", "load_frame"]


class NotAFrameError(ValueError):
    """The vector family does not span, or spans too marginally to invert."""


class Scheme(Enum):
    NEUMANN = "Neumann"
    BINOMIAL_HALF = "BinomialHalf"
    LOGARITHMIC = "Logarithmic"


def _check_count(name: str, value) -> int:
    """A count as an ``int``: a non-negative int or numpy integer, never a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def frame_from_dict(data):
    """Build a ``Frame`` from a parsed JSON object, validating the schema."""
    if not isinstance(data, dict):
        raise ValueError("frame file must contain a JSON object")
    missing = {"dim", "vectors"} - set(data)
    if missing:
        raise ValueError(f"frame file is missing fields: {sorted(missing)}")
    unknown = set(data) - {"dim", "vectors", "bounds"}
    if unknown:
        raise ValueError(f"frame file has unknown fields: {sorted(unknown)}")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    vectors = data["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise ValueError("'vectors' must be a non-empty list of vectors")
    for row in vectors:
        if not isinstance(row, list) or len(row) != dim or not all(map(_is_number, row)):
            raise ValueError(f"every vector must be a list of {dim} numbers")
    bounds = None
    if "bounds" in data and data["bounds"] is not None:
        raw = data["bounds"]
        if not isinstance(raw, list) or len(raw) != 2 or not all(map(_is_number, raw)):
            raise ValueError("'bounds' must be a two-element list of numbers [A, B]")
        bounds = (float(raw[0]), float(raw[1]))
    from .frames import Frame

    return Frame(dim, vectors, bounds)


def load_frame(path):
    """Read a ``Frame`` from a JSON file; text that is not JSON, or nests too
    deep for the parser, is a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed JSON: {exc}") from exc
    return frame_from_dict(data)


def _format_float(x: float) -> str:
    """17 significant digits: enough for every float64 to round-trip. Negative
    zero is ``-0.0``, since JSON reads ``-0`` as the integer 0."""
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def _json_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, float):
        return _format_float(value)
    return json.dumps(value)


def _json_object(pairs) -> str:
    """A JSON object with one ``key: value`` pair per line; floats carry 17
    significant digits and lists stay on their key's line."""
    body = ",\n".join(f'  "{key}": {_json_value(value)}' for key, value in pairs)
    return "{\n" + body + "\n}\n"


def frame_to_json(frame) -> str:
    """Serialize a ``Frame`` to the JSON file format (17 significant digits)."""
    pairs = [("dim", frame.dim), ("vectors", frame.vectors.tolist())]
    if frame.declared_bounds is not None:
        pairs.append(("bounds", frame.declared_bounds))
    return _json_object(pairs)
