"""The traced benchmark (perfbench/tracer.py) wraps ralp functions by
module attribute.  These tests load it by path, so a change to ralp that
drops or renames one of those attributes, or stops calling through one,
fails here and not only in the traced benchmark."""

import importlib.util
from pathlib import Path

import ralp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(points):
    return [getattr(module, attr) for module, attr, _ in points]


def test_every_patch_point_is_callable():
    for module, attr, _ in load_tracer().PATCH_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_uninstall_restores_the_originals():
    tracer = load_tracer()
    points = tracer.PATCH_POINTS
    before = current(points)
    traced = tracer.Tracer()
    traced.install()
    try:
        assert all(fn is not orig and fn.__wrapped__ is orig
                   for fn, orig in zip(current(points), before))
    finally:
        traced.uninstall()
    assert all(fn is orig for fn, orig in zip(current(points), before))


def test_every_catalog_lookup_reaches_the_traced_parser():
    traced = load_tracer().Tracer()
    traced.install()
    try:
        model = ralp.catalog_lookup("lenet")
        ralp.catalog_lookup("lenet")
    finally:
        traced.uninstall()
    assert [(name, parent) for name, parent, *_ in traced.spans] == [
        ("catalog.catalog_lookup", -1),
        ("descriptor.parse_model", 0),
        ("catalog.catalog_lookup", -1),
        ("descriptor.parse_model", 2),
    ]
    assert traced.counts["descriptor.layers"] == 2 * model.num_layers


def parent_names(spans, name):
    return [spans[parent][0] if parent >= 0 else None
            for span_name, parent, *_ in spans if span_name == name]


def test_every_profile_call_reaches_the_traced_profiler():
    traced = load_tracer().Tracer()
    traced.install()
    try:
        ralp.parse_scenario("job v model=vgg11 strategy=ralp workers=2 split=auto\n",
                            ralp.catalog_lookup)
        ralp.compare_strategies(ralp.catalog_lookup("vgg11"), [8])
    finally:
        traced.uninstall()
    assert parent_names(traced.spans, "profiler.profile") == [
        "simulator.parse_scenario",
        "costmodel.compare_strategies",
    ]
