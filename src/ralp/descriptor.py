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

This module owns the shape format, the settings each kind takes
(``_KIND_KEYS``) and the counting rules that derive a layer's parameter
count, output shape and flops from them (``_derive_layer``).  Shapes live
only while a descriptor is parsed, as tuples of dims; the ModelGraph it
returns holds element counts.  One parse derives each repeated layer body
once: a line whose text after its name (spacing included), and the shape
it reads, match an earlier line's reuses what that line made, without
splitting its words or reading its settings again.
"""

from __future__ import annotations

import re
from itertools import islice
from math import prod
from typing import Callable, Mapping, Optional

from .layers import (
    BLOCK,
    CONVOLUTION,
    FLATTEN,
    FULLY_CONNECTED,
    LOSS,
    PASS_THROUGH_KINDS,
    POOLING,
    LayerKind,
    LayerSpec,
    ModelError,
    ModelGraph,
)

# (h, w, c) for a spatial shape, (n,) for a flat one.
Shape = tuple[int, ...]

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


def conv_output_hw(h: int, w: int, kernel: int, stride: int, pad: int) -> tuple[int, int]:
    """Spatial output dims for a conv/pool window with explicit padding."""
    if kernel <= 0 or stride <= 0 or pad < 0:
        raise ModelError(f"nonpositive window geometry: kernel={kernel} stride={stride} pad={pad}")
    h_out = (h + 2 * pad - kernel) // stride + 1
    w_out = (w + 2 * pad - kernel) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ModelError(
            f"window {kernel}x{kernel} stride {stride} does not fit padded input {h}x{w} (pad {pad})"
        )
    return h_out, w_out


def _derive_layer(kind: LayerKind, settings: Mapping[str, int], shape: Shape) -> tuple[int, Shape, int]:
    """(param_count, output shape, forward flops) of a derived layer of
    ``kind`` that reads ``shape``.  A missing setting raises KeyError.

    conv: params = K*K*C_in*C_out + C_out, flops = 2*K*K*C_in*C_out*H_out*W_out;
    fc: params = I*U + U, flops = 2*I*U (bias included, multiply-add counted
    as 2).  Every other kind carries no parameters and its compute is treated
    as negligible; a loss layer ends the chain, so nothing flows forward.
    """
    if kind is CONVOLUTION:
        k, c_out = settings["k"], settings["cout"]
        if len(shape) != 3:
            raise ModelError("convolution requires a spatial input shape")
        if c_out <= 0:
            raise ModelError(f"nonpositive output channels: {c_out}")
        h, w, c_in = shape
        h, w = conv_output_hw(h, w, k, settings.get("stride", 1), settings.get("pad", 0))
        return k * k * c_in * c_out + c_out, (h, w, c_out), 2 * k * k * c_in * c_out * h * w
    if kind is POOLING:
        window = settings["window"]
        if len(shape) != 3:
            raise ModelError("pooling requires a spatial input shape")
        h, w, c = shape
        h, w = conv_output_hw(h, w, window, settings.get("stride", window), settings.get("pad", 0))
        return 0, (h, w, c), 0
    if kind is FULLY_CONNECTED:
        out, n = settings["out"], prod(shape)
        if n <= 0 or out <= 0:
            raise ModelError(f"nonpositive fully-connected dims: in={n} out={out}")
        return n * out + out, (out,), 2 * n * out
    if kind is FLATTEN:
        return 0, (prod(shape),), 0
    if kind in PASS_THROUGH_KINDS:
        return 0, shape, 0
    if kind is LOSS:
        return 0, (0,), 0
    raise ModelError(f"layer kind {kind.value} has no derivation rule; give explicit totals")


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
) -> Shape:
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
        return tuple(dims)
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
    shape: Optional[Shape] = None
    prev_name = "<input>"
    # What each layer line made, keyed by the shape it read and its text
    # after the name, spacing included.  Past the name checks those alone
    # decide the line's outcome (its name and number appear only in errors,
    # which are never stored), so a line that repeats them reuses what the
    # first one made without splitting its words.
    made: dict[tuple, tuple[LayerKind, int, int, int, Shape]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.partition("#")[0]
        name_rest = code.split(None, 1)
        if not name_rest:
            continue

        if header is None:
            tokens = code.split()
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

        if len(name_rest) < 2:
            raise DescriptorError("layer line needs <name> <kind> [key=value ...]", lineno, _column(code, 0))
        name, rest = name_rest
        body = (shape, rest)
        seen = made.get(body)
        if seen is not None and "=" not in name:
            kind, params, out_elems, flops, shape = seen
            layers.append(LayerSpec(name, kind, params, out_elems, flops))
            prev_name = name
            continue
        tokens = code.split()
        kind_token = tokens[1]
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
                    new_shape = (out_elems,)
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
                    if len(shape) != 3 or declared != shape[2]:
                        raise ShapeMismatchError(
                            f"layer {name!r} declares cin={declared} but {prev_name!r} "
                            f"produces {'x'.join(map(str, shape))}",
                            lineno,
                            _column(code, 0),
                        )
                if kind is FULLY_CONNECTED and "in" in kv:
                    declared = int(kv["in"])
                    if declared != prod(shape):
                        raise ShapeMismatchError(
                            f"layer {name!r} declares in={declared} but {prev_name!r} "
                            f"produces {prod(shape)} elements",
                            lineno,
                            _column(code, 0),
                        )
                try:
                    params, new_shape, flops = _derive_layer(kind, kv, shape)
                except KeyError as exc:  # a required hyperparameter is missing
                    raise DescriptorError(f"{kind.value} layer {name!r} needs {exc.args[0]}=",
                                          lineno, _column(code, 0)) from None
                out_elems = prod(new_shape)
            layers.append(LayerSpec(name, kind, params, out_elems, flops))
        except ModelError as exc:
            raise DescriptorError(str(exc), lineno, _column(code, 0)) from None
        made[body] = (kind, params, out_elems, flops, new_shape)
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
