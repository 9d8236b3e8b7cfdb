#!/usr/bin/env python3
"""Regenerate the computed benchmark descriptors in src/ralp/catalog_data/.

Branchy architectures (googlenet, inception-v3, resnet-50) are linearized
to one entry per weighted convolution (batch norm folded into the conv
totals), in topological order, with standalone entries for the pooling
stages; the last convolution of each branch group carries the merged
block output.  All explicit numbers are computed here from the
architecture tables.  The linear stacks (alexnet, lenet, overfeat, vgg11,
vgg19) are hand-written descriptors with hyperparameters only, edited in
place: the descriptor parser derives their counts.

Run with --report to print totals and skewness of the whole catalog after
regeneration.
"""

from __future__ import annotations

import argparse
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "ralp" / "catalog_data"

def conv_entry(name, cin, kh, kw, cout, hw, *, bn, out_elems=None):
    """One linearized convolution: weights (+bias or +batch-norm scale/shift)
    and forward multiply-add flops at the given output spatial size."""
    params = kh * kw * cin * cout + (2 * cout if bn else cout)
    flops = 2 * kh * kw * cin * cout * hw * hw
    if out_elems is None:
        out_elems = hw * hw * cout
    return f"{name} conv params={params} out={out_elems} flops={flops}"


def pool_entry(name, out_elems):
    return f"{name} pool out={out_elems}"


def googlenet_lines():
    lines = [
        "# Stem plus nine branch groups, linearized one entry per convolution",
        "# (biases included); the last convolution of each group carries the",
        "# merged group output.",
        "model googlenet batch=32 elem_bytes=4",
        conv_entry("conv1", 3, 7, 7, 64, 112, bn=False),
        pool_entry("pool1", 56 * 56 * 64),
        conv_entry("conv2a", 64, 1, 1, 64, 56, bn=False),
        conv_entry("conv2b", 64, 3, 3, 192, 56, bn=False),
        pool_entry("pool2", 28 * 28 * 192),
    ]

    def block(name, cin, c1, c3r, c3, c5r, c5, proj, hw):
        cout = c1 + c3 + c5 + proj
        lines.extend(
            [
                conv_entry(f"{name}_1x1", cin, 1, 1, c1, hw, bn=False),
                conv_entry(f"{name}_3x3r", cin, 1, 1, c3r, hw, bn=False),
                conv_entry(f"{name}_3x3", c3r, 3, 3, c3, hw, bn=False),
                conv_entry(f"{name}_5x5r", cin, 1, 1, c5r, hw, bn=False),
                conv_entry(f"{name}_5x5", c5r, 5, 5, c5, hw, bn=False),
                conv_entry(f"{name}_proj", cin, 1, 1, proj, hw, bn=False,
                           out_elems=hw * hw * cout),
            ]
        )
        return cout

    block("i3a", 192, 64, 96, 128, 16, 32, 32, 28)
    block("i3b", 256, 128, 128, 192, 32, 96, 64, 28)
    lines.append(pool_entry("pool3", 14 * 14 * 480))
    block("i4a", 480, 192, 96, 208, 16, 48, 64, 14)
    block("i4b", 512, 160, 112, 224, 24, 64, 64, 14)
    block("i4c", 512, 128, 128, 256, 24, 64, 64, 14)
    block("i4d", 512, 112, 144, 288, 32, 64, 64, 14)
    block("i4e", 528, 256, 160, 320, 32, 128, 128, 14)
    lines.append(pool_entry("pool4", 7 * 7 * 832))
    block("i5a", 832, 256, 160, 320, 32, 128, 128, 7)
    block("i5b", 832, 384, 192, 384, 48, 128, 128, 7)
    lines.append(pool_entry("apool", 1024))
    lines.append("fc fc out=1000")
    return lines


def inception_v3_lines():
    lines = [
        "# Stem plus eleven branch groups, linearized one entry per convolution",
        "# (batch norm folded in); the last convolution of each group carries",
        "# the merged group output.",
        "model inception-v3 batch=32 elem_bytes=4",
        conv_entry("conv1", 3, 3, 3, 32, 149, bn=True),
        conv_entry("conv2", 32, 3, 3, 32, 147, bn=True),
        conv_entry("conv3", 32, 3, 3, 64, 147, bn=True),
        pool_entry("pool1", 73 * 73 * 64),
        conv_entry("conv4", 64, 1, 1, 80, 73, bn=True),
        conv_entry("conv5", 80, 3, 3, 192, 71, bn=True),
        pool_entry("pool2", 35 * 35 * 192),
    ]

    def group(name, convs, out_elems):
        # convs: (suffix, cin, kh, kw, cout, hw)
        for pos, (suffix, cin, kh, kw, cout, hw) in enumerate(convs):
            last = pos == len(convs) - 1
            lines.append(
                conv_entry(f"{name}_{suffix}", cin, kh, kw, cout, hw, bn=True,
                           out_elems=out_elems if last else None)
            )

    def inception_a(name, cin, pool_proj):
        out = 35 * 35 * (64 + 64 + 96 + pool_proj)
        group(
            name,
            [
                ("1x1", cin, 1, 1, 64, 35),
                ("5x5r", cin, 1, 1, 48, 35),
                ("5x5", 48, 5, 5, 64, 35),
                ("dbl1", cin, 1, 1, 64, 35),
                ("dbl2", 64, 3, 3, 96, 35),
                ("dbl3", 96, 3, 3, 96, 35),
                ("proj", cin, 1, 1, pool_proj, 35),
            ],
            out,
        )

    inception_a("mixed0", 192, 32)
    inception_a("mixed1", 256, 64)
    inception_a("mixed2", 288, 64)
    group(
        "mixed3",
        [
            ("3x3", 288, 3, 3, 384, 17),
            ("dbl1", 288, 1, 1, 64, 35),
            ("dbl2", 64, 3, 3, 96, 35),
            ("dbl3", 96, 3, 3, 96, 17),
        ],
        17 * 17 * 768,
    )

    def inception_b(name, c7):
        group(
            name,
            [
                ("1x1", 768, 1, 1, 192, 17),
                ("q1", 768, 1, 1, c7, 17),
                ("q2", c7, 1, 7, c7, 17),
                ("q3", c7, 7, 1, 192, 17),
                ("dbl1", 768, 1, 1, c7, 17),
                ("dbl2", c7, 7, 1, c7, 17),
                ("dbl3", c7, 1, 7, c7, 17),
                ("dbl4", c7, 7, 1, c7, 17),
                ("dbl5", c7, 1, 7, 192, 17),
                ("proj", 768, 1, 1, 192, 17),
            ],
            17 * 17 * 768,
        )

    inception_b("mixed4", 128)
    inception_b("mixed5", 160)
    inception_b("mixed6", 160)
    inception_b("mixed7", 192)
    group(
        "mixed8",
        [
            ("3x3a", 768, 1, 1, 192, 17),
            ("3x3b", 192, 3, 3, 320, 8),
            ("q1", 768, 1, 1, 192, 17),
            ("q2", 192, 1, 7, 192, 17),
            ("q3", 192, 7, 1, 192, 17),
            ("q4", 192, 3, 3, 192, 8),
        ],
        8 * 8 * 1280,
    )

    def inception_c(name, cin):
        group(
            name,
            [
                ("1x1", cin, 1, 1, 320, 8),
                ("b3a", cin, 1, 1, 384, 8),
                ("b3b", 384, 1, 3, 384, 8),
                ("b3c", 384, 3, 1, 384, 8),
                ("dbl1", cin, 1, 1, 448, 8),
                ("dbl2", 448, 3, 3, 384, 8),
                ("dbl3", 384, 1, 3, 384, 8),
                ("dbl4", 384, 3, 1, 384, 8),
                ("proj", cin, 1, 1, 192, 8),
            ],
            8 * 8 * 2048,
        )

    inception_c("mixed9", 1280)
    inception_c("mixed10", 2048)
    lines.append(pool_entry("apool", 2048))
    lines.append("fc fc out=1000")
    return lines


def resnet50_lines():
    lines = [
        "# Stem plus sixteen bottleneck blocks, linearized one entry per",
        "# convolution (batch norm folded in); the last convolution of each",
        "# block carries the block output.",
        "model resnet-50 batch=64 elem_bytes=4",
        conv_entry("conv1", 3, 7, 7, 64, 112, bn=True),
        pool_entry("pool1", 56 * 56 * 64),
    ]

    def bottleneck(name, cin, width, cout, hw_out, stride, downsample):
        # conv a runs at the incoming spatial size; conv b applies the stride.
        hw_in = hw_out * stride
        out = hw_out * hw_out * cout
        convs = [
            (f"{name}_a", cin, 1, 1, width, hw_in),
            (f"{name}_b", width, 3, 3, width, hw_out),
            (f"{name}_c", width, 1, 1, cout, hw_out),
        ]
        if downsample:
            convs.append((f"{name}_down", cin, 1, 1, cout, hw_out))
        for pos, (cname, c_in, kh, kw, c_out, hw) in enumerate(convs):
            last = pos == len(convs) - 1
            lines.append(
                conv_entry(cname, c_in, kh, kw, c_out, hw, bn=True,
                           out_elems=out if last else None)
            )

    stages = [
        ("s1", 64, 64, 256, 56, 3, 1),
        ("s2", 256, 128, 512, 28, 4, 2),
        ("s3", 512, 256, 1024, 14, 6, 2),
        ("s4", 1024, 512, 2048, 7, 3, 2),
    ]
    for prefix, cin, width, cout, hw_out, blocks, first_stride in stages:
        for b in range(blocks):
            bottleneck(
                f"{prefix}b{b + 1}",
                cin if b == 0 else cout,
                width,
                cout,
                hw_out,
                stride=first_stride if b == 0 else 1,
                downsample=(b == 0),
            )
    lines.append(pool_entry("apool", 2048))
    lines.append("fc fc out=1000")
    return lines


def build() -> dict[str, str]:
    return {
        "googlenet": "\n".join(googlenet_lines()) + "\n",
        "inception-v3": "\n".join(inception_v3_lines()) + "\n",
        "resnet-50": "\n".join(resnet50_lines()) + "\n",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", action="store_true",
                        help="parse the catalog and print totals/skewness")
    args = parser.parse_args()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(build().items()):
        (OUT_DIR / f"{name}.model").write_text(text, encoding="utf-8")
        print(f"wrote {name}.model")

    if args.report:
        from ralp import catalog_lookup, catalog_names, compute_skewness, profile

        print(f"\n{'model':14s} {'layers':>6s} {'params':>12s} {'GB':>7s} {'skewness':>9s} split")
        for name in catalog_names():
            model = catalog_lookup(name)
            params = [l.param_count for l in model.layers]
            skew = compute_skewness(params)
            report = profile(model)
            print(
                f"{name:14s} {model.num_layers:6d} {model.total_param_count:12,d} "
                f"{model.total_param_bytes / 2**30:7.4f} {skew:9.4f} {report.split_index}"
            )


if __name__ == "__main__":
    main()
