"""Sidecar persistence: every fitted object round-trips through plain
JSON, bit-exactly. One codec serves every fitted dataclass: a JSON object
keyed by its field names, rebuilt from its field type hints, so renaming a
field changes the file format. Floats survive because json emits Python's
repr; arrays carry dtype and shape, so empty and multi-dimensional blocks
reload unambiguously. A sidecar is one line of compact JSON with sorted
keys, so identical objects are identical bytes, and json's C encoder
writes it (`python -m json.tool` prints one readably). Reading accepts
only what writing produces: utf-8, finite numbers, numeric and boolean
arrays.

The learner classes are imported when a learner is encoded or decoded, not
with this module: `features` writes its stack sidecar without loading the
learners.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path

import numpy as np

from .dataset import open_text
from .errors import ParseError
from .features.stack import StackModel


def json_text(payload: dict) -> str:
    """The text `save_json` writes for `payload`."""
    return json.dumps(payload, sort_keys=True, allow_nan=False,
                      separators=(",", ":")) + "\n"


def save_json(path: str | Path, payload: dict) -> None:
    with open_text(path, "w") as fh:
        fh.write(json_text(payload))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


# `save_json` writes no NaN or Infinity, and no float whose literal
# overflows: the decoder hands both kinds of literal to `_finite_float`.
_DECODER = json.JSONDecoder(parse_float=_finite_float,
                            parse_constant=_finite_float)


def decode_json(data: bytes, source: str | Path) -> dict:
    """The payload of the sidecar bytes `data`, read from `source`."""
    try:
        return _DECODER.decode(data.decode("utf-8"))
    except ValueError as exc:  # also JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid sidecar file {source}: {exc}") from None


def load_json(path: str | Path) -> dict:
    return decode_json(Path(path).read_bytes(), path)


def array_to_obj(a: np.ndarray) -> dict:
    return {"dtype": str(a.dtype), "shape": list(a.shape),
            "data": a.ravel().tolist()}


def array_from_obj(obj: dict) -> np.ndarray:
    dtype = np.dtype(obj["dtype"])
    if dtype.kind not in "biuf":
        raise ValueError(f"not a numeric or boolean dtype: {dtype}")
    return np.array(obj["data"], dtype=dtype).reshape(obj["shape"])


def to_obj(value):
    """JSON form of a dataclass, array, tuple or list; other values as they are."""
    if isinstance(value, np.ndarray):
        return array_to_obj(value)
    if dataclasses.is_dataclass(value):
        return {f.name: to_obj(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_obj(v) for v in value]
    return value


@functools.cache
def _field_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def from_obj(hint, obj):
    """Rebuild a `hint` from its to_obj form; a misfit raises ParseError."""
    if hint is np.ndarray:
        try:
            return array_from_obj(obj)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"array does not fit its dtype and shape: {exc}") from None
    if dataclasses.is_dataclass(hint):
        fields = _field_hints(hint)
        keys = obj.keys() if isinstance(obj, dict) else set()
        if keys != fields.keys():
            missing, unknown = sorted(fields.keys() - keys), sorted(keys - fields.keys())
            raise ParseError(f"{hint.__name__}: missing fields {missing}, not fields {unknown}")
        try:
            return hint(**{name: from_obj(h, obj[name]) for name, h in fields.items()})
        except ParseError as exc:
            raise ParseError(f"{hint.__name__}: {exc}") from None
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        return None if obj is None else from_obj(args[0], obj)
    if typing.get_origin(hint) is tuple:
        varying = args[-1] is Ellipsis
        if not isinstance(obj, list) or not (varying or len(obj) == len(args)):
            raise ParseError(f"does not fit {hint}: {obj!r:.60}")
        hints = [args[0]] * len(obj) if varying else args
        return tuple(from_obj(h, v) for h, v in zip(hints, obj))
    # JSON has no int/float distinction: an int fits a float field and is
    # kept as it is, so a re-save writes the same bytes. A bool is no int.
    if type(obj) is not hint and not (hint is float and type(obj) is int):
        raise ParseError(f"does not fit {hint.__name__}: {obj!r:.60}")
    return obj


def stack_to_obj(model: StackModel) -> dict:
    return to_obj(model)


def stack_from_obj(obj: dict) -> StackModel:
    return from_obj(StackModel, obj)


def _learner_kinds() -> dict:
    """The learner class of each sidecar `kind`."""
    from .learners.forest import ForestModel
    from .learners.gbdt import GbdtModel
    return {"gbdt": GbdtModel, "forest": ForestModel}


def learner_to_obj(model) -> dict:
    for kind, cls in _learner_kinds().items():
        if isinstance(model, cls):
            return {"kind": kind, **to_obj(model)}
    raise ParseError(f"not a serializable learner: {type(model).__name__}")


def learner_from_obj(obj: dict):
    kinds = _learner_kinds()
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ParseError(f"unknown learner kind in sidecar: {kind!r}")
    return from_obj(kinds[kind], {k: v for k, v in obj.items() if k != "kind"})
