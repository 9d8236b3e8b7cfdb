"""Line-oriented model descriptor format.

One layer per line, ``<name> <kind> key=value ...``, preceded by a header
``model <name> batch=<n> elem_bytes=<n> [input=HxWxC|N]``.  ``#`` starts a
comment.  Layers are either *derived* (hyperparameters given, counts
inferred and shape-checked against the previous layer) or *explicit*
(``params= out= flops=`` given directly, used for fused blocks and for
linearized branchy architectures where chain inference does not apply;
``shape=HxWxC`` sets the shape the next layer sees and must hold ``out=``
elements).  Every dimension of a shape is at least 1.  A key the header
or the layer's kind does not take is an error, and so are ``flops=`` and
``shape=`` on a derived layer, whose flops and shape are inferred, and a
kind's hyperparameters on an explicit layer, whose counts are given.
Scenario files read their ``key=value`` pairs through ``parse_pairs`` too.
"""

from __future__ import annotations

import re
from itertools import islice
from math import prod
from typing import Callable, Optional

from .layers import (
    BLOCK,
    CONVOLUTION,
    FULLY_CONNECTED,
    LayerKind,
    LayerSpec,
    ModelError,
    ModelGraph,
    TensorShape,
    infer_layer,
)

_KIND_TOKENS = {kind.value: kind for kind in LayerKind}
_TOKEN = re.compile(r"\S+")

# The keys each kind of line accepts, in the order errors list them, each
# with the type of its value: the header's, an explicit layer's, and a
# derived layer's of each kind (params and out, then its hyperparameters).
_HEADER_KEYS = {"batch": int, "elem_bytes": int, "input": str}
_EXPLICIT_KEYS = {"params": int, "out": int, "flops": int, "shape": str}
_KIND_KEYS = {
    LayerKind.CONVOLUTION: ("k", "cout", "stride", "pad", "cin"),
    LayerKind.POOLING: ("window", "stride", "pad"),
    LayerKind.FULLY_CONNECTED: ("in",),
}
_DERIVED_KEYS = {
    kind: dict.fromkeys(("params", "out") + _KIND_KEYS.get(kind, ()), int) for kind in LayerKind
}


class DescriptorError(ValueError):
    """Descriptor syntax or consistency error, with source position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class ShapeMismatchError(DescriptorError):
    """Adjacent layers disagree on the tensor flowing between them."""


def _column(code: str, token: int) -> int:
    """1-based column where the ``token``-th whitespace-separated token of
    ``code`` starts.  Only error messages report columns, so only they pay
    for finding them."""
    return next(islice(_TOKEN.finditer(code), token, None)).start() + 1


def _parse_shape(
    text: str, elems: Optional[int], key: str, tokens: list[str], line: int, code: str
) -> TensorShape:
    """The shape ``text`` of the ``key=`` word among ``tokens``, split from
    ``code``, with ``elems`` elements unless that is None.  Its errors point
    at that word."""
    parts = text.lower().split("x")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        dims = []  # reported below, with the wrong-rank shapes
    if len(dims) not in (1, 3):
        problem = "expected HxWxC or N"
    elif min(dims) < 1:
        problem = "every dimension must be >= 1"
    elif elems is not None and prod(dims) != elems:
        problem = f"{prod(dims)} elements, but out={elems}"
    else:
        return TensorShape.flat(dims[0]) if len(dims) == 1 else TensorShape(*dims)
    at = next(i for i, token in enumerate(tokens) if token.startswith(key + "="))
    raise DescriptorError(f"bad shape {text!r} ({problem})", line, _column(code, at))


def parse_pairs(
    tokens: list[str], first: int, allowed: dict[str, Callable], line: int, code: str
) -> dict[str, object]:
    """The ``key=value`` pairs of ``tokens[first:]``, split from ``code``,
    each value converted by ``allowed[key]``.  A value its converter rejects
    with ValueError needs a number if that is ``float``, else an integer."""
    pairs: dict[str, object] = {}
    for i, token in enumerate(tokens[first:], first):
        key, _, value = token.partition("=")
        if not key or not value:  # also a token without '='
            raise DescriptorError(f"expected key=value, got {token!r}", line, _column(code, i))
        convert = allowed.get(key)
        if convert is None:
            raise DescriptorError(
                f"unknown key {key!r}; expected one of {', '.join(allowed)}", line, _column(code, i)
            )
        if key in pairs:
            raise DescriptorError(f"duplicate key {key!r}", line, _column(code, i))
        try:
            pairs[key] = convert(value)
        except ValueError:
            expected = "a number" if convert is float else "an integer"
            raise DescriptorError(
                f"key {key!r} needs {expected}, got {value!r}", line, _column(code, i)
            ) from None
    return pairs


def file_error(exc: Exception) -> str:
    """Why a file could not be read or written, without its path."""
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


def parse_model(text: str) -> ModelGraph:
    """Parse a descriptor document into a validated ModelGraph."""
    header: Optional[dict[str, object]] = None
    header_line = 0
    layers: list[LayerSpec] = []
    shape: Optional[TensorShape] = None
    prev_name = "<input>"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.partition("#")[0]
        tokens = code.split()
        if not tokens:
            continue

        if header is None:
            if tokens[0] != "model":
                raise DescriptorError(f"expected 'model' header, got {tokens[0]!r}", lineno, _column(code, 0))
            if len(tokens) < 2 or "=" in tokens[1]:
                raise DescriptorError("model header needs a name", lineno, _column(code, 0))
            header = {"name": tokens[1]}
            header.update(parse_pairs(tokens, 2, _HEADER_KEYS, lineno, code))
            if "batch" not in header:
                raise DescriptorError("model header needs batch=<n>", lineno, _column(code, 0))
            if "input" in header:
                shape = _parse_shape(str(header["input"]), None, "input", tokens, lineno, code)
            header_line = lineno
            continue

        if len(tokens) < 2:
            raise DescriptorError("layer line needs <name> <kind> [key=value ...]", lineno, _column(code, 0))
        name, kind_token = tokens[0], tokens[1]
        if "=" in name or "=" in kind_token:
            raise DescriptorError("layer line needs <name> <kind> before key=value pairs",
                                  lineno, _column(code, 0))
        kind = _KIND_TOKENS.get(kind_token)
        if kind is None:
            raise DescriptorError(
                f"unknown layer kind {kind_token!r} (expected one of {', '.join(sorted(_KIND_TOKENS))})",
                lineno,
                _column(code, 1),
            )
        keys = {token.partition("=")[0] for token in tokens[2:]}
        explicit = "params" in keys or ("out" in keys and kind is not FULLY_CONNECTED)
        layer_keys = _EXPLICIT_KEYS if explicit else _DERIVED_KEYS[kind]
        kv = parse_pairs(tokens, 2, layer_keys, lineno, code)
        try:
            if explicit:
                if "out" not in kv:
                    raise DescriptorError(f"explicit layer {name!r} needs out=<elems>",
                                          lineno, _column(code, 0))
                params, out_elems, flops = int(kv.get("params", 0)), int(kv["out"]), int(kv.get("flops", 0))
                if "shape" in kv:
                    new_shape = _parse_shape(str(kv["shape"]), out_elems, "shape", tokens, lineno, code)
                else:
                    new_shape = TensorShape.flat(out_elems)
            else:
                if kind is BLOCK:
                    raise DescriptorError(
                        f"block layer {name!r} needs explicit params= out= flops=", lineno, _column(code, 0)
                    )
                if shape is None:
                    raise DescriptorError(
                        f"layer {name!r} needs an input shape (set input= in the header "
                        "or give explicit out=)",
                        lineno,
                        _column(code, 0),
                    )
                if kind is CONVOLUTION and "cin" in kv:
                    declared = int(kv["cin"])
                    if shape.is_flat or declared != shape.c:
                        raise ShapeMismatchError(
                            f"layer {name!r} declares cin={declared} but {prev_name!r} "
                            f"produces {shape}",
                            lineno,
                            _column(code, 0),
                        )
                if kind is FULLY_CONNECTED and "in" in kv:
                    declared = int(kv["in"])
                    if declared != shape.elems:
                        raise ShapeMismatchError(
                            f"layer {name!r} declares in={declared} but {prev_name!r} "
                            f"produces {shape.elems} elements",
                            lineno,
                            _column(code, 0),
                        )
                try:
                    params, out_elems, flops, new_shape = infer_layer(kind, kv, shape)
                except KeyError as exc:  # a required hyperparameter is missing
                    raise DescriptorError(f"{kind.value} layer {name!r} needs {exc.args[0]}=",
                                          lineno, _column(code, 0)) from None
            layers.append(LayerSpec(name, kind, params, out_elems, flops))
        except ModelError as exc:
            raise DescriptorError(str(exc), lineno, _column(code, 0)) from None
        shape = new_shape
        prev_name = name

    if header is None:
        raise DescriptorError("empty descriptor (no 'model' header)", max(1, len(text.splitlines()) or 1))
    try:
        return ModelGraph(
            name=str(header["name"]),
            layers=tuple(layers),
            batch_size=int(header["batch"]),  # type: ignore[arg-type]
            bytes_per_element=int(header.get("elem_bytes", 4)),  # type: ignore[arg-type]
        )
    except ModelError as exc:
        raise DescriptorError(str(exc), header_line) from None
