"""Line-oriented model descriptor format.

One layer per line, ``<name> <kind> key=value ...``, preceded by a header
``model <name> batch=<n> elem_bytes=<n> [input=HxWxC|N]``.  ``#`` starts a
comment.  Layers are either *derived* (hyperparameters given, counts
inferred and shape-checked against the previous layer) or *explicit*
(``params= out= flops=`` given directly, used for fused blocks and for
linearized branchy architectures where chain inference does not apply;
``shape=HxWxC`` sets the shape the next layer sees and must hold ``out=``
elements).  An integer, a shape's dimensions included, is ASCII digits
after an optional ``-`` (``integer``).  Every dimension of a shape is at
least 1.  A key the header or the layer's kind does not take is an error,
and so are ``flops=`` and ``shape=`` on a derived layer, whose flops and
shape are inferred, and a kind's hyperparameters on an explicit layer,
whose counts are given.  Scenario files read their ``key=value`` pairs
through ``parse_pairs``, and they and the CLI's flags read their numbers
through ``integer`` and ``number``.

This module owns the shape format, the settings each kind takes
(``_KIND_KEYS``) and the counting rules that derive a layer's parameter
count, output shape and flops from them, with their checks
(``_derived_layer``).  Shapes live
only while a descriptor is parsed, as tuples of dims; the ModelGraph it
returns holds element counts.

One parse does the work of a layer line only for what no earlier line of
the same parse has done.  It keeps one memo keyed on a line's text after
its name (spacing included), holding what the latest line with that text
read and made:

(a) a text met before copies that line's checked record under the new
    name if the line is explicit, whose outcome no input shape changes, or
    read the same shape; at another shape a derived line reuses the kind
    and settings, so only the derivation and its checks run;
(b) a new explicit line in the documented key order,
    ``<kind> params= out= flops= [shape=HxWxC]`` spaced with blanks and
    tabs and with plain decimal numbers, is read by one regular expression.

Every other line, and a line of tier (b) that fails a check, is split into
words and read by ``parse_pairs``, which with ``_derived_layer`` raises
every error a layer line can have.  README counts the lines each tier
reads.  Nothing is kept from one parse to the next.
"""

from __future__ import annotations

import re
from itertools import islice
from math import isfinite, prod
from typing import Any, Callable, Mapping, Optional

from .layers import (
    BLOCK,
    CONVOLUTION,
    FLATTEN,
    FULLY_CONNECTED,
    LOSS,
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
# An explicit layer's text after its name in the documented key order,
# spaced with blanks and tabs, with plain decimal numbers.
_CANONICAL_EXPLICIT = re.compile(
    r"([a-z]+)[ \t]+params=([0-9]+)[ \t]+out=([0-9]+)[ \t]+flops=([0-9]+)"
    r"(?:[ \t]+shape=([0-9]+)x([0-9]+)x([0-9]+))?[ \t]*"
)
# An integer as the formats spell it: ASCII digits after an optional '-'.
_INTEGER = re.compile(r"-?[0-9]+")
# A number: an integer, then an optional fraction and exponent.
_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
# Builds a tuple subclass without calling its __new__: the parser's copy
# of a checked LayerSpec under another name.
_new_record = tuple.__new__


def integer(text: str) -> int:
    """``text`` read as ASCII digits after an optional ``-``: the only
    integer spelling descriptors, scenarios and flags take.  ValueError for
    any other, and for a number too long for ``int``."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def number(text: str) -> float:
    """``text`` read as ``integer``'s spelling with an optional fraction and
    ``e``/``E`` exponent, which every finite ``repr(float)`` fits.  ValueError
    for any other spelling, and for a value past the float range."""
    if _NUMBER.fullmatch(text) is None or not isfinite(value := float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# The keys each kind of line accepts, in the order errors list them, each
# with its value's converter: the header's, an explicit layer's, and a
# derived layer's of each kind (params and out, then its hyperparameters).
_HEADER_KEYS = {"batch": integer, "elem_bytes": integer, "input": str}
_EXPLICIT_KEYS = {"params": integer, "out": integer, "flops": integer, "shape": str}
_KIND_KEYS = {
    LayerKind.CONVOLUTION: ("k", "cout", "stride", "pad", "cin"),
    LayerKind.POOLING: ("window", "stride", "pad"),
    LayerKind.FULLY_CONNECTED: ("in",),
}
_DERIVED_KEYS = {
    kind: dict.fromkeys(("params", "out") + _KIND_KEYS.get(kind, ()), integer) for kind in LayerKind
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
) -> Shape:
    """The shape ``text`` of the ``key=`` word among ``tokens``, split from
    ``code``, with ``elems`` elements unless that is None.  Its errors point
    at that word."""
    parts = text.lower().split("x")
    try:
        dims = [integer(p) for p in parts]
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
    with ValueError needs a number if that is ``number``, else an integer."""
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
            expected = "a number" if convert is number else "an integer"
            raise DescriptorError(
                f"key {key!r} needs {expected}, got {value!r}", line, _column(code, i)
            ) from None
    return pairs


def file_error(exc: Exception) -> str:
    """Why a file could not be read or written, without its path."""
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


def _window_hw(h: int, w: int, kernel: int, stride: int, pad: int, line: int, code: str) -> tuple[int, int]:
    """Output height and width, ``(h + 2*pad - kernel) // stride + 1`` each, of a
    conv or pool window.  Its errors point at the first word of ``code``."""
    if kernel <= 0 or stride <= 0 or pad < 0:
        raise DescriptorError(f"nonpositive window geometry: kernel={kernel} stride={stride} pad={pad}",
                              line, _column(code, 0))
    h_out = (h + 2 * pad - kernel) // stride + 1
    w_out = (w + 2 * pad - kernel) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise DescriptorError(f"window {kernel}x{kernel} stride {stride} does not fit padded input "
                              f"{h}x{w} (pad {pad})", line, _column(code, 0))
    return h_out, w_out


def _derived_layer(
    name: str, kind: LayerKind, kv: Mapping[str, int], shape: Optional[Shape], prev_name: str,
    line: int, code: str
) -> tuple[LayerSpec, Shape]:
    """The record of derived layer ``name`` of ``kind`` with settings ``kv``,
    which reads ``shape`` from ``prev_name``, and the shape it hands on.
    Its errors point at the first word of ``code``, line ``line``.

    conv: params = K*K*C_in*C_out + C_out, flops = 2*K*K*C_in*C_out*H_out*W_out;
    fc: params = I*U + U, flops = 2*I*U (bias included, multiply-add counted
    as 2).  Every other kind carries no parameters and its compute is treated
    as negligible; a loss layer ends the chain, so nothing flows forward.
    """
    if kind is BLOCK:
        raise DescriptorError(f"block layer {name!r} needs explicit params= out= flops=",
                              line, _column(code, 0))
    if shape is None:
        raise DescriptorError(f"layer {name!r} needs an input shape (set input= in the header or "
                              f"give explicit out=)", line, _column(code, 0))
    try:
        if kind is CONVOLUTION:
            if "cin" in kv and (len(shape) != 3 or kv["cin"] != shape[2]):
                raise ShapeMismatchError(f"layer {name!r} declares cin={kv['cin']} but {prev_name!r} "
                                         f"produces {'x'.join(map(str, shape))}", line, _column(code, 0))
            k, c_out = kv["k"], kv["cout"]
            if len(shape) != 3:
                raise DescriptorError("convolution requires a spatial input shape", line, _column(code, 0))
            if c_out <= 0:
                raise DescriptorError(f"nonpositive output channels: {c_out}", line, _column(code, 0))
            h, w, c_in = shape
            h, w = _window_hw(h, w, k, kv.get("stride", 1), kv.get("pad", 0), line, code)
            params, new_shape = k * k * c_in * c_out + c_out, (h, w, c_out)
            flops = 2 * k * k * c_in * c_out * h * w
        elif kind is POOLING:
            window = kv["window"]
            if len(shape) != 3:
                raise DescriptorError("pooling requires a spatial input shape", line, _column(code, 0))
            h, w, c = shape
            h, w = _window_hw(h, w, window, kv.get("stride", window), kv.get("pad", 0), line, code)
            params, new_shape, flops = 0, (h, w, c), 0
        elif kind is FULLY_CONNECTED:
            n = prod(shape)
            if "in" in kv and kv["in"] != n:
                raise ShapeMismatchError(f"layer {name!r} declares in={kv['in']} but {prev_name!r} "
                                         f"produces {n} elements", line, _column(code, 0))
            out = kv["out"]
            if n <= 0 or out <= 0:
                raise DescriptorError(f"nonpositive fully-connected dims: in={n} out={out}",
                                      line, _column(code, 0))
            params, new_shape, flops = n * out + out, (out,), 2 * n * out
        elif kind is FLATTEN:
            params, new_shape, flops = 0, (prod(shape),), 0
        elif kind is LOSS:
            params, new_shape, flops = 0, (0,), 0
        else:  # norm, act, concat and add hand on what they read
            params, new_shape, flops = 0, shape, 0
        return LayerSpec(name, kind, params, prod(new_shape), flops), new_shape
    except KeyError as exc:  # a required setting is missing
        raise DescriptorError(f"{kind.value} layer {name!r} needs {exc.args[0]}=",
                              line, _column(code, 0)) from None
    except ModelError as exc:  # the record's own checks
        raise DescriptorError(str(exc), line, _column(code, 0)) from None


def _canonical_layer(name: str, text: str) -> Optional[tuple[LayerSpec, Shape]]:
    """The record of explicit layer ``name`` and the shape it hands on, if
    its ``text`` after the name is in the documented key order
    (``_CANONICAL_EXPLICIT``).  None for any other text, and for a line
    that fails a check, which ``_read_layer`` reads again to say why."""
    match = _CANONICAL_EXPLICIT.fullmatch(text)
    if match is None:
        return None
    kind_token, params, out_elems, flops, h, w, c = match.groups()
    kind = _KIND_TOKENS.get(kind_token)
    if kind is None:
        return None
    try:  # int() also refuses a number too long to convert
        out_elems = int(out_elems)
        shape = (out_elems,) if h is None else (int(h), int(w), int(c))
        if min(shape) < 1 or prod(shape) != out_elems:
            return None
        return LayerSpec(name, kind, int(params), out_elems, int(flops)), shape
    except ValueError:  # ModelError included
        return None


def _read_layer(
    name: str, shape: Optional[Shape], prev_name: str, line: int, code: str
) -> tuple[LayerSpec, Shape, Optional[dict]]:
    """Layer line ``line``, ``code``, read word by word: the record of layer
    ``name``, which reads ``shape`` from ``prev_name``, the shape it hands
    on, and its settings if it is a derived layer (None if explicit).  Every
    error a layer line can have is raised here or in ``_derived_layer``,
    with its column."""
    tokens = code.split()
    kind_token = tokens[1]
    if "=" in name or "=" in kind_token:
        raise DescriptorError("layer line needs <name> <kind> before key=value pairs", line, _column(code, 0))
    kind = _KIND_TOKENS.get(kind_token)
    if kind is None:
        raise DescriptorError(
            f"unknown layer kind {kind_token!r} (expected one of {', '.join(sorted(_KIND_TOKENS))})",
            line,
            _column(code, 1),
        )
    keys = {token.partition("=")[0] for token in tokens[2:]}
    if "params" in keys or ("out" in keys and kind is not FULLY_CONNECTED):
        kv = parse_pairs(tokens, 2, _EXPLICIT_KEYS, line, code)
        if "out" not in kv:
            raise DescriptorError(f"explicit layer {name!r} needs out=<elems>", line, _column(code, 0))
        out_elems = kv["out"]
        if "shape" in kv:
            new_shape = _parse_shape(kv["shape"], out_elems, "shape", tokens, line, code)
        else:
            new_shape = (out_elems,)
        try:
            return LayerSpec(name, kind, kv.get("params", 0), out_elems, kv.get("flops", 0)), new_shape, None
        except ModelError as exc:
            raise DescriptorError(str(exc), line, _column(code, 0)) from None
    kv = parse_pairs(tokens, 2, _DERIVED_KEYS[kind], line, code)
    return (*_derived_layer(name, kind, kv, shape, prev_name, line, code), kv)


def parse_model(text: str) -> ModelGraph:
    """Parse a descriptor document into a validated ModelGraph."""
    model_name: Optional[str] = None
    header: dict[str, Any] = {}
    header_line = 0
    layers: list[LayerSpec] = []
    shape: Optional[Shape] = None
    # Past the name checks, a layer line's outcome is decided by its text
    # after the name (spacing included) and the shape it reads: its name
    # and number appear only in errors, and an error ends the parse, so
    # only lines that passed are remembered.  ``memo`` holds, for each
    # text, the settings of a derived line (None for an explicit one, which
    # no input shape changes), the shape its latest line read, the record's
    # fields after the name and the shape that line handed on.
    memo: dict[str, tuple[Optional[dict], Optional[Shape], tuple, Shape]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.partition("#")[0]
        name_rest = code.split(None, 1)
        if not name_rest:
            continue

        if model_name is None:
            tokens = code.split()
            if tokens[0] != "model":
                raise DescriptorError(f"expected 'model' header, got {tokens[0]!r}", lineno, _column(code, 0))
            if len(tokens) < 2 or "=" in tokens[1]:
                raise DescriptorError("model header needs a name", lineno, _column(code, 0))
            model_name, header = tokens[1], parse_pairs(tokens, 2, _HEADER_KEYS, lineno, code)
            if "batch" not in header:
                raise DescriptorError("model header needs batch=<n>", lineno, _column(code, 0))
            if "input" in header:
                shape = _parse_shape(header["input"], None, "input", tokens, lineno, code)
            header_line = lineno
            continue

        if len(name_rest) < 2:
            raise DescriptorError("layer line needs <name> <kind> [key=value ...]", lineno, _column(code, 0))
        name, rest = name_rest
        spec = None
        if "=" not in name:
            known = memo.get(rest)
            if known is not None:  # (a) a text met before
                kv, read_shape, fields, new_shape = known
                if kv is None or read_shape == shape:
                    # A copy of a checked record under another name:
                    # LayerSpec's checks read no name.
                    layers.append(_new_record(LayerSpec, (name,) + fields))
                    shape = new_shape
                    continue
                spec, new_shape = _derived_layer(name, fields[0], kv, shape, layers[-1].name,
                                                 lineno, code)
            else:  # (b) a new explicit line in the documented key order
                canonical = _canonical_layer(name, rest)
                if canonical is not None:
                    (spec, new_shape), kv = canonical, None
        if spec is None:  # any other line, and every line that fails a check
            prev_name = layers[-1].name if layers else "<input>"
            spec, new_shape, kv = _read_layer(name, shape, prev_name, lineno, code)
        layers.append(spec)
        memo[rest] = kv, shape, spec[1:], new_shape
        shape = new_shape

    if model_name is None:
        raise DescriptorError("empty descriptor (no 'model' header)", max(1, len(text.splitlines()) or 1))
    try:
        return ModelGraph(
            name=model_name,
            layers=tuple(layers),
            batch_size=header["batch"],
            bytes_per_element=header.get("elem_bytes", 4),
        )
    except ModelError as exc:
        raise DescriptorError(str(exc), header_line) from None
