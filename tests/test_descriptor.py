import hashlib
import random
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ralp import descriptor
from ralp.descriptor import DescriptorError, ShapeMismatchError, parse_model
from ralp.layers import LayerKind, ModelGraph
from conftest import make_layer, mutate, random_mutations

_WEIGHTED = (LayerKind.CONVOLUTION, LayerKind.FULLY_CONNECTED, LayerKind.BLOCK)

_layer_tuples = st.lists(
    st.tuples(
        st.sampled_from(
            [
                LayerKind.CONVOLUTION,
                LayerKind.FULLY_CONNECTED,
                LayerKind.BLOCK,
                LayerKind.POOLING,
                LayerKind.NORMALIZATION,
                LayerKind.ACTIVATION,
            ]
        ),
        st.integers(min_value=1, max_value=10**7),  # params (dropped for free kinds)
        st.integers(min_value=1, max_value=10**7),  # output elems
        st.integers(min_value=0, max_value=10**9),  # flops
    ),
    min_size=1,
    max_size=20,
)


class TestParse:
    def test_single_fc_layer(self):
        # I*U + U = 10*2 + 2, worked by hand
        model = parse_model("model tiny batch=1 input=10\nout fc out=2\n")
        assert model.num_layers == 1
        assert model.layers[0].param_count == 22
        assert model.layers[0].kind is LayerKind.FULLY_CONNECTED

    def test_pooling_only_model_has_no_params(self):
        model = parse_model("model p batch=2 input=8x8x4\np1 pool window=2\n")
        assert model.layers[0].param_count == 0
        assert model.total_param_bytes == 0
        assert model.layers[0].output_elems_per_sample == 4 * 4 * 4

    @pytest.mark.parametrize("text, reason", [
        ("model bad batch=1 input=8x8x3\nc1 conv k=3 cout=16 pad=1\nc2 conv k=3 cin=8 cout=32 pad=1\n",
         "layer 'c2' declares cin=8 but 'c1' produces 8x8x16"),
        ("model m batch=1 input=16\nc conv k=1 cin=16 cout=2\n",
         "layer 'c' declares cin=16 but '<input>' produces 16"),
        ("model bad batch=1 input=4x4x2\nf1 fc in=33 out=2\n",
         "layer 'f1' declares in=33 but '<input>' produces 32 elements"),
    ])
    def test_shape_mismatch_names_both_layers_and_the_shape(self, text, reason):
        with pytest.raises(ShapeMismatchError) as err:
            parse_model(text)
        assert err.value.reason == reason

    def test_unknown_kind(self):
        with pytest.raises(DescriptorError, match="unknown layer kind"):
            parse_model("model m batch=1 input=4\nx warp out=3\n")

    def test_syntax_error_reports_position(self):
        with pytest.raises(DescriptorError, match=r"line 2"):
            parse_model("model m batch=1 input=4\njust-a-name\n")

    def test_missing_header(self):
        with pytest.raises(DescriptorError, match="model"):
            parse_model("c1 conv k=3 cout=4\n")

    def test_missing_batch(self):
        with pytest.raises(DescriptorError, match="batch"):
            parse_model("model m input=4\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\nmodel m batch=2 input=10\n\nf fc out=5  # trailing\n"
        model = parse_model(text)
        assert model.num_layers == 1
        assert model.batch_size == 2

    def test_explicit_block_entry(self):
        text = "model m batch=1\nb1 block params=1000 out=64 flops=9000\nf fc out=10\n"
        model = parse_model(text)
        assert model.layers[0].kind is LayerKind.BLOCK
        assert model.layers[0].param_count == 1000
        # fc chains off the explicit flat output
        assert model.layers[1].param_count == 64 * 10 + 10

    def test_block_requires_explicit_totals(self):
        with pytest.raises(DescriptorError, match="explicit"):
            parse_model("model m batch=1 input=4\nb block\n")

    def test_layer_without_input_shape(self):
        with pytest.raises(DescriptorError, match="input shape"):
            parse_model("model m batch=1\nc conv k=3 cout=4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DescriptorError, match="duplicate"):
            parse_model("model m batch=1 input=4\nf fc out=2 out=3\n")

    def test_window_exceeding_padded_input_reports_line(self):
        with pytest.raises(DescriptorError, match=r"line 2.*does not fit"):
            parse_model("model m batch=1 input=2x2x3\nc conv k=5 cout=4\n")

    def test_elem_bytes_default_and_override(self):
        assert parse_model("model m batch=1 input=4\nf fc out=2\n").bytes_per_element == 4
        assert parse_model("model m batch=1 elem_bytes=2 input=4\nf fc out=2\n").bytes_per_element == 2


    @pytest.mark.parametrize("text, line, column, message", [
        ("model m batch=1 input=4x4x3 bogus=2\nc1 conv k=3 cout=4\n", 1, 29, "unknown key 'bogus'"),
        ("model m batch=1 input=4x4x3\nc1 conv k=3 cout=4 pad=1 zz=3\n", 2, 26, "unknown key 'zz'"),
        ("model m batch=1 input=4x4x3\nc1 conv k=3 cout=4 window=2\n", 2, 20, "unknown key 'window'"),
        ("model m batch=1 input=4x4x3\np1 pool window=2 cout=4\n", 2, 18, "unknown key 'cout'"),
        ("model m batch=1 input=4\nf1 fc out=2 k=3\n", 2, 13, "unknown key 'k'"),
        ("model m batch=1 input=4\nn1 norm stride=1\n", 2, 9, "unknown key 'stride'"),
        # flops and shape are inferred on a derived layer, so giving either is an error
        ("model m batch=1 input=4x4x3\nc conv k=3 cout=4 pad=1 flops=5\n", 2, 25, "unknown key 'flops'"),
        ("model m batch=1 input=4x4x3\nc conv k=3 cout=4 pad=1 shape=9x9x9\nf fc out=2\n", 2, 25,
         "unknown key 'shape'"),
        ("model m batch=1 input=4\nf1 fc out=2 flops=9\n", 2, 13, "unknown key 'flops'"),
        ("model m batch=1 input=4x4x3\np1 pool window=2 shape=2x2x3\n", 2, 18, "unknown key 'shape'"),
        # an explicit layer's counts are given, so its kind's hyperparameters are errors
        ("model m batch=1 input=4x4x3\nc conv params=5 out=3 k=3 cout=99 stride=7\n", 2, 23,
         "unknown key 'k'"),
        ("model m batch=1 input=4x4x3\np pool out=12 window=2\n", 2, 15, "unknown key 'window'"),
        ("model m batch=1 input=4\nf fc params=10 out=2 in=5\n", 2, 22, "unknown key 'in'"),
    ])
    def test_unknown_key_names_line_and_column(self, text, line, column, message):
        with pytest.raises(DescriptorError, match=rf"line {line}, column {column}: {message}"):
            parse_model(text)

    @pytest.mark.parametrize("text, line, column, message", [
        # an explicit shape must hold out= elements, or the next layer is
        # sized for a tensor the block does not produce
        ("model m batch=1 input=4\nb block params=5 out=4 shape=2x2x10\nf fc out=2\n", 2, 24,
         "bad shape '2x2x10' (40 elements, but out=4)"),
        # a zero dimension is not a flat vector (the column test covers
        # layer lines; these are header lines)
        ("model m batch=1 input=0x0x3\nf fc out=2\n", 1, 17, "bad shape '0x0x3' (every dimension must be >= 1)"),
        ("model m batch=1 input=0\nf fc out=2\n", 1, 17, "bad shape '0' (every dimension must be >= 1)"),
    ])
    def test_bad_shape_names_line_and_column(self, text, line, column, message):
        with pytest.raises(DescriptorError, match=rf"^line {line}, column {column}: {re.escape(message)}"):
            parse_model(text)

    def test_error_keeps_its_bare_reason(self):
        with pytest.raises(DescriptorError) as err:
            parse_model("model m batch=x input=4\nf fc out=2\n")
        assert err.value.reason == "key 'batch' needs an integer, got 'x'"
        assert str(err.value) == "line 1, column 9: " + err.value.reason

    def test_every_documented_key_is_accepted(self):
        text = (
            "model m batch=2 elem_bytes=4 input=8x8x3\n"
            "c1 conv k=3 cout=4 stride=1 pad=1 cin=3\n"
            "p1 pool window=2 stride=2 pad=0\n"
            "f1 fc in=64 out=10\n"
            "b1 block params=5 out=40 flops=7 shape=2x2x10\n"
        )
        assert parse_model(text).num_layers == 4

    @pytest.mark.parametrize("line, key", [
        ("c conv cout=4", "k"), ("c conv k=3", "cout"), ("p pool stride=2", "window"), ("f fc in=48", "out"),
    ])
    def test_missing_hyperparameter_names_line(self, line, key):
        with pytest.raises(DescriptorError, match=rf"line 2, column 1: .* needs {key}="):
            parse_model(f"model m batch=1 input=4x4x3\n{line}\n")


class TestInference:
    """The counting rules on one- or two-layer descriptors, worked by hand."""

    def test_conv_params_3x3x3_to_64(self):
        # 9*3*64 + 64
        (conv,) = parse_model("model m batch=1 input=32x32x3\nc conv k=3 cout=64 pad=1\n").layers
        assert conv.param_count == 1792
        assert conv.output_elems_per_sample == 32 * 32 * 64
        assert conv.compute_flops_per_sample == 2 * 9 * 3 * 64 * 32 * 32

    def test_fc_params_4096_to_1000(self):
        (fc,) = parse_model("model m batch=1 input=4096\nf fc out=1000\n").layers
        assert fc.param_count == 4_097_000
        assert fc.output_elems_per_sample == 1000
        assert fc.compute_flops_per_sample == 2 * 4096 * 1000

    def test_maxpool_halves_spatial_dims(self):
        # a 4x4 window fits the pool's 4x4x16 output exactly, once
        pool, conv = parse_model("model m batch=1 input=8x8x16\np pool window=2\nc conv k=4 cin=16 cout=1\n").layers
        assert (pool.param_count, pool.output_elems_per_sample, pool.compute_flops_per_sample) == (0, 4 * 4 * 16, 0)
        assert (conv.output_elems_per_sample, conv.compute_flops_per_sample) == (1, 2 * 16 * 16)

    def test_flatten_to_256(self):
        flat, fc = parse_model("model m batch=1 input=4x4x16\nf flatten\no fc out=10\n").layers
        assert (flat.param_count, flat.output_elems_per_sample) == (0, 256)
        assert fc.param_count == 256 * 10 + 10

    def test_stride_and_valid_padding(self):
        # (227 - 11)/4 + 1 = 55
        (conv,) = parse_model("model m batch=1 input=227x227x3\nc conv k=11 cout=64 stride=4\n").layers
        assert conv.output_elems_per_sample == 55 * 55 * 64

    def test_window_larger_than_padded_input(self):
        with pytest.raises(DescriptorError) as err:
            parse_model("model m batch=1 input=2x2x4\np pool window=5\n")
        assert err.value.reason == "window 5x5 stride 5 does not fit padded input 2x2 (pad 0)"

    @pytest.mark.parametrize("layers, reason", [
        # a loss layer passes nothing forward
        ("l loss\nf fc out=10", "nonpositive fully-connected dims: in=0 out=10"),
        ("f fc out=0", "nonpositive fully-connected dims: in=192 out=0"),
        ("c conv k=3 cout=-1", "nonpositive output channels: -1"),
    ])
    def test_nonpositive_dimensions(self, layers, reason):
        with pytest.raises(DescriptorError) as err:
            parse_model(f"model m batch=1 input=8x8x3\n{layers}\n")
        assert err.value.reason == reason


class TestExplicitTotals:
    @given(spec=_layer_tuples, batch=st.integers(1, 512), elem=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=150, deadline=None)
    def test_random_chains_parse_to_the_same_graph(self, spec, batch, elem):
        layers = tuple(
            make_layer(i + 1, kind, params if kind in _WEIGHTED else 0, out, flops)
            for i, (kind, params, out, flops) in enumerate(spec)
        )
        built = ModelGraph(name="rt", layers=layers, batch_size=batch, bytes_per_element=elem)
        text = f"model rt batch={batch} elem_bytes={elem}\n" + "".join(
            f"{l.name} {l.kind.value} params={l.param_count} "
            f"out={l.output_elems_per_sample} flops={l.compute_flops_per_sample}\n"
            for l in layers
        )
        assert parse_model(text) == built


# Malformed header and layer lines: (words, index of the offending word,
# message).  ``{kv}`` expands to the line's valid key=value words with one
# bad word inserted; its index is then the bad word's.
_HEADER = (["model", "m"], ["batch=2", "input=8x8x3"])
_LAYER = (["c", "conv"], ["k=3", "cout=4", "pad=1"])
_BAD_WORDS = [
    ("oops", "expected key=value, got 'oops'"),
    ("=4", "expected key=value, got '=4'"),
    ("stride=", "expected key=value, got 'stride='"),
    ("zz=1", "unknown key 'zz'"),
]
_WHOLE_LINE = [  # errors that point at a fixed word
    (["modle", "m", "batch=2"], 0, "expected 'model' header"),
    (["c", "warp", "k=3"], 1, "unknown layer kind 'warp'"),
    (["c"], 0, "layer line needs <name> <kind>"),
    (["k=3", "conv"], 0, "before key=value pairs"),
    (["c", "conv", "k=9", "cout=4"], 0, "does not fit"),
    (["c", "block", "out=4", "shape=2x2"], 3, "bad shape '2x2' (expected HxWxC or N)"),
    (["c", "block", "shape=2x2x10", "out=4"], 2, "bad shape '2x2x10' (40 elements, but out=4)"),
    (["c", "block", "out=4", "shape=2x0x2"], 3, "bad shape '2x0x2' (every dimension must be >= 1)"),
]
_SPACE = st.text(alphabet=" \t", min_size=1, max_size=3)


class TestErrorColumns:
    @given(data=st.data(), header=st.booleans(), lead=st.text(alphabet=" \t", max_size=3),
           comment=st.sampled_from(["", "#", "  # k=oops zz=1", "\t#x y"]))
    @settings(max_examples=300, deadline=None)
    def test_column_is_the_offending_word(self, data, header, lead, comment):
        kind = data.draw(st.sampled_from(["bad", "duplicate", "integer", "whole"]))
        if kind == "whole":
            words, at, message = data.draw(st.sampled_from(_WHOLE_LINE))
            header = words[0] == "modle"
        else:
            head, kv = _HEADER if header else _LAYER
            kv = list(kv)
            if kind == "duplicate":
                pos = data.draw(st.integers(1, len(kv)))
                bad, message = kv[0], f"duplicate key {kv[0].partition('=')[0]!r}"
            else:
                pos = data.draw(st.integers(0, len(kv)))
                if kind == "integer":
                    key = "elem_bytes" if header else "stride"
                    bad, message = f"{key}=two", f"key {key!r} needs an integer, got 'two'"
                else:
                    bad, message = data.draw(st.sampled_from(_BAD_WORDS))
                    if header and bad == "stride=":
                        bad, message = "input=", "expected key=value, got 'input='"
            kv.insert(pos, bad)
            words, at = head + kv, len(head) + pos
        line = lead + "".join(w + data.draw(_SPACE) for w in words) + comment
        text = f"{line}\nc conv k=3 cout=4\n" if header else f"model m batch=2 input=8x8x3\n{line}\n"
        with pytest.raises(DescriptorError) as err:
            parse_model(text)
        starts = [m.start() + 1 for m in re.finditer(r"\S+", line)]
        assert (err.value.line, err.value.column) == (1 if header else 2, starts[at])
        assert message in str(err.value)


# Small chains that between them use every kind and every layer key.
_DIGEST_CHAINS = (
    "model c1 batch=4 elem_bytes=2 input=16x16x3\n"
    "a conv k=3 cout=8 pad=1 cin=3\nb act\nc pool window=2 stride=2 pad=0\n"
    "d norm\ne block params=50 out=256 flops=90 shape=8x8x4\nf flatten\n"
    "g fc in=256 out=10\nh loss\n",
    "model c2 batch=2 input=12\nf1 fc out=6\nr add\nj concat\nf2 fc out=3\n",
    "model c3 batch=1\nb1 block params=5 out=12 flops=7 shape=2x2x3\n"
    "c conv k=2 cout=4 stride=2\np pool window=1\nx flatten\nf fc out=2\n",
)


def _outcome_digest(texts) -> tuple[int, str]:
    """How many of ``texts`` parse, and the sha256 of what ``parse_model``
    makes of each: the layers, batch and element width of each model, or
    the type and message of each error."""
    digest = hashlib.sha256()
    parsed = 0
    for i, text in enumerate(texts):
        try:
            model = parse_model(text)
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        else:
            parsed += 1
            outcome = repr((model.name, model.batch_size, model.bytes_per_element, [
                (l.name, l.kind.value, l.param_count, l.output_elems_per_sample,
                 l.compute_flops_per_sample) for l in model.layers
            ]))
        digest.update(f"{i}\n{outcome}\n".encode())
    return parsed, digest.hexdigest()


def _mutated(sources: list[str], count: int) -> list[str]:
    """``count`` mutated copies of ``sources``, ``mutate``d with seeds 0, 1, ..."""
    return [mutate(sources[i % len(sources)], random_mutations(random.Random(i))) for i in range(count)]


def _parse_digest(sources: list[str], count: int) -> tuple[int, str]:
    """``_outcome_digest`` of ``count`` mutated copies of ``sources``."""
    return _outcome_digest(_mutated(sources, count))


class TestParseDigest:
    """sha256 of what ``parse_model`` makes of 3,000 mutated descriptors
    (the catalog and the chains above, mutated by ``mutate``).  Recorded
    before the per-layer path of the parser was tuned, it pins which error
    each broken line reports, and every message."""

    def test_mutated_descriptors(self):
        catalog = Path(str(resources.files("ralp"))) / "catalog_data"
        sources = [p.read_text() for p in sorted(catalog.glob("*.model"))] + list(_DIGEST_CHAINS)
        parsed, digest = _parse_digest(sources, 3000)
        assert parsed == 635
        assert digest == "0bc68d5513cbbd3332b7c2f9ff1611761d6b53b7e851f9531b3f0b207c65b714"


def _repeated_blocks(side: int, width: int, convs: int) -> list[str]:
    """A VGG-like descriptor of repeated blocks: stages of ``convs``
    conv/act/norm blocks at ``width`` channels, each stage followed by a
    2x2 pool, with the width doubled, while a pool still fits."""
    lines = [f"model v{side} batch=2 input={side}x{side}x3"]
    n = 0
    while True:
        for _ in range(convs):
            n += 1
            lines += [f"c{n} conv k=3 cout={width} pad=1", f"a{n} act", f"b{n} norm"]
        if side < 2:
            return lines
        lines.append(f"p{n} pool window=2")
        side //= 2
        width *= 2


def _with(lines: list[str], at: int, *extra: str) -> str:
    """``lines`` as a descriptor, with ``extra`` put before ``lines[at]``,
    or after the last line when ``at`` is past it."""
    return "\n".join(lines[:at] + list(extra) + lines[at:]) + "\n"


# Descriptors in which most layer lines repeat an earlier line's words at
# the same input shape.
_BLOCK_SOURCES = (
    _with(_repeated_blocks(16, 4, 2), 99, "f flatten", "o fc out=10", "l loss"),
    _with(_repeated_blocks(8, 2, 3), 99, "f flatten", "o fc out=6"),
    # a loss mid-chain, then an act whose words earlier lines had at another
    # shape
    _with(_repeated_blocks(8, 4, 2), 10, "l loss", "x act"),
    # a cin= mismatch right after b2, which repeats b1
    _with(_repeated_blocks(8, 8, 2), 7, "x conv k=3 cout=8 pad=1 cin=4"),
    # one pool more than fits
    _with(_repeated_blocks(4, 2, 2), 99, "x pool window=2"),
)


class TestRepeatedBlockDigest:
    """``TestParseDigest`` over mutated descriptors of repeated blocks,
    recorded before the parser derived each repeated layer once: what a
    line makes must not depend on whether an earlier line had its words at
    its input shape."""

    def test_mutated_repeated_blocks(self):
        parsed, digest = _parse_digest(list(_BLOCK_SOURCES), 3000)
        assert parsed == 260
        assert digest == "b749ac48ebf07887f7cf37713734c17acd00cb594471e1871f6633e21b84a120"


class TestRepeatedLayers:
    def test_each_repeated_body_is_derived_once(self, monkeypatch):
        # Derived: c0 at the input shape; a0 and c1 at c0's output, which
        # a1..a3 and c2, c3 repeat; p0; c4 and a4 at the pooled shape, which
        # the 4-channel convs keep, so c5, c6 and a5, a6 repeat them; p1,
        # f and o.
        calls = []

        def counted(kind, settings, shape):
            calls.append((shape, kind, tuple(sorted(settings.items()))))
            return derive(kind, settings, shape)

        derive = descriptor._derive_layer
        monkeypatch.setattr(descriptor, "_derive_layer", counted)
        blocks = "c{0} conv k=3 cout=4 pad=1\na{0} act\n"
        model = parse_model("model m batch=1 input=8x8x3\n"
                            + "".join(blocks.format(i) for i in range(4)) + "p0 pool window=2\n"
                            + "".join(blocks.format(i) for i in range(4, 7)) + "p1 pool window=2\n"
                            "f flatten\no fc out=10\n")
        assert model.num_layers == 18
        assert len(calls) == 9 and len(set(calls)) == 9

    def test_lines_differing_in_spacing_are_separate_bodies(self, monkeypatch):
        # The memo keys on the text after the name, spacing included: c2
        # and c4 put two spaces before cout= (the spaces after c2's name are
        # not part of its text), and a2 has spaces before its comment.  So
        # c1, c2, a1 and a2 are each derived, c3 and c4 reuse c1 and c2, and
        # every line gives what an evenly spaced line gives.
        calls = []

        def counted(kind, settings, shape):
            calls.append(kind)
            return derive(kind, settings, shape)

        derive = descriptor._derive_layer
        monkeypatch.setattr(descriptor, "_derive_layer", counted)
        uneven = parse_model("model m batch=1 input=8x8x4\n"
                             "c1 conv k=3 cout=4 pad=1\nc2   conv k=3  cout=4 pad=1\n"
                             "c3 conv k=3 cout=4 pad=1\nc4 conv k=3  cout=4 pad=1\n"
                             "a1 act\na2 act  # comment\n")
        assert len(calls) == 4
        even = parse_model("model m batch=1 input=8x8x4\n"
                           + "".join(f"c{i} conv k=3 cout=4 pad=1\n" for i in range(1, 5))
                           + "a1 act\na2 act\n")
        assert uneven == even and uneven.layers == even.layers


# Explicit layer lines in the documented key order, and lines that differ
# from one in the ways a reader of that order alone could get wrong:
# spacing, number spellings, shapes, kinds that take no parameters or no
# empty output, and '=' where a name or kind belongs.
_CANONICAL = "block params=5 out=12 flops=7 shape=2x2x3"
_EXPLICIT_VARIANTS = (
    _CANONICAL, "block params=5 out=12 flops=7", "conv params=5 out=12 flops=7 shape=2x2x3",
    "fc params=5 out=12 flops=7 shape=12", "block params=0 out=12 flops=0 shape=1x1x12",
    # spacing
    "block\tparams=5\tout=12\tflops=7\tshape=2x2x3", "block   params=5  out=12 flops=7   shape=2x2x3",
    "block params=5 out=12 flops=7 shape=2x2x3   # note", "block params=5 out=12 flops=7\t#",
    "block params=5 out=12 flops=7 ", "block params=5\xa0out=12 flops=7", "block params=5 out=12\x1fflops=7",
    "block params=5 out=12 flops=7\u3000shape=2x2x3", "block params=5 out=12 flops=7\xa0",
    # numbers
    "block params=007 out=0012 flops=00 shape=02x2x03", "block params=+5 out=12 flops=7",
    "block params=1_000 out=12 flops=7", "block params=5 out=1_2 flops=7 shape=2x2x3",
    "block params=\uff15 out=12 flops=7", "block params=5 out=\u0661\u0662 flops=7",
    "block params=5 out=12 flops=\u0967", "block params=-0 out=12 flops=7", "block params=-5 out=12 flops=7",
    "block params=5 out=12 flops=-7", "block params=5x out=12 flops=7", "block params=5 out=12.0 flops=7",
    "block params=5 out=12 flops=1e3", "block params=5 out=12 flops=", "block params=5 out=12 flops=7 shape=",
    "block params=99999999999999999999999 out=12 flops=7",
    # shapes
    "block params=5 out=12 flops=7 shape=2X2X3", "block params=5 out=12 flops=7 shape=2x0x3",
    "block params=5 out=0 flops=7 shape=0x2x3", "loss params=0 out=0 flops=0 shape=0x2x3",
    "loss params=0 out=0 flops=0 shape=1x0x1", "block params=5 out=12 flops=7 shape=2x2x4",
    "block params=5 out=12 flops=7 shape=2x2", "block params=5 out=12 flops=7 shape=2x2x3x1",
    "block params=5 out=12 flops=7 shape=x2x3", "block params=5 out=12 flops=7 shape=2x+2x3",
    "block params=5 out=12 flops=7 shape=12", "block params=5 out=12 flops=7 shape=2x2x3 shape=2x2x3",
    # kinds
    "act params=5 out=12 flops=7", "pool params=1 out=12 flops=0 shape=2x2x3", "act params=0 out=12 flops=7",
    "norm params=0 out=12 flops=0 shape=2x2x3", "concat params=0 out=12 flops=0", "add params=0 out=12 flops=0",
    "flatten params=0 out=12 flops=0", "loss params=0 out=0 flops=0", "loss params=5 out=0 flops=0",
    "conv params=5 out=0 flops=7", "fc params=5 out=0 flops=7", "blocks params=5 out=12 flops=7",
    "Block params=5 out=12 flops=7", "bl=ock params=5 out=12 flops=7", "block=x params=5 out=12 flops=7",
    # other key orders and sets
    "block out=12 params=5 flops=7 shape=2x2x3", "block params=5 flops=7 out=12", "block params=5 out=12",
    "block params=5 out=12 flops=7 flops=7", "block params=5 out=12 flops=7 shape=2x2x3 k=3",
    "block params=5 params=5 out=12 flops=7", "block flops=7 params=5 out=12 shape=2x2x3",
)


def _explicit_sources() -> list[str]:
    """Each variant after a canonical line, at the input shape or none,
    then read again after a conv and after an fc that read the shape it
    sets; twice at one shape as the first layer; and under a name with
    '=' in it."""
    sources = []
    for variant in _EXPLICIT_VARIANTS:
        for header in ("model e batch=2 input=4x4x3", "model e batch=2"):
            for follower in ("c conv k=1 cout=2", "f fc out=4"):
                sources.append(f"{header}\nb1 {_CANONICAL}\nv {variant}\n{follower}\nw {variant}\n")
        sources.append(f"model e batch=1 input=2x2x3\nv {variant}\nw {variant}\n")
        sources.append(f"model e batch=1 input=2x2x3\nb1 {_CANONICAL}\nv=1 {variant}\n")
    return sources


class TestExplicitLineDigest:
    """``TestParseDigest`` over descriptors of explicit lines in the
    documented key order and near misses of it (``_EXPLICIT_VARIANTS``),
    as written and mutated.  Recorded before the parser read such lines
    by their order alone: what an explicit line makes must not depend on
    how the parser reads it.  Re-recorded when integers became ASCII
    digits after an optional '-': seven variants that spell a number with
    '+', '_' or non-ASCII digits stopped parsing."""

    def test_explicit_lines_and_their_near_misses(self):
        sources = _explicit_sources()
        parsed, digest = _outcome_digest(sources + _mutated(sources, 2000))
        assert (len(sources), parsed) == (384, 242)
        assert digest == "377e6d8af54ee43867c66dee0d9412a05f18c220126dd2883d32a0f951a8d296"
