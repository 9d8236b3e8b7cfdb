import importlib.util
import json
import math
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "report_deviation", Path(__file__).resolve().parent.parent / "tools" / "report_deviation.py")
report_deviation = sys.modules["report_deviation"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_deviation)

compare, ulps = report_deviation.compare, report_deviation.ulps


def report(step: float, comm: float, steps: int = 3, name: str = "j") -> str:
    return json.dumps({"jobs": [{"job": name, "steps": steps,
                                 "communication": [comm, 0.5], "step": step}]})


BASE = [("scenario a", report(2.0, 0.25)), ("plan a layers", "('a', 1, 4, ())")]


def test_ulps_count_the_doubles_between():
    assert ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulps(1.0, 1.0 + 26 * math.ulp(1.0)) == 26
    assert ulps(-0.0, 0.0) == 0
    tiny = math.nextafter(0.0, 1.0)
    assert ulps(-tiny, tiny) == 2


def test_equal_items_count_their_floats():
    dev = compare(BASE, list(BASE))
    assert (dev.floats, dev.differ, dev.mismatches, dev.ok) == (3, 0, [], True)


def test_the_worst_relative_and_ulp_deviations_are_named():
    # The step is off by 4 ulps of 2.0, a relative 8.9e-16; the residual
    # by 26 ulps of 0.25, a relative 5.8e-15.
    step, comm = 2.0 + 4 * math.ulp(2.0), 0.25 + 26 * math.ulp(0.25)
    dev = compare(BASE, [("scenario a", report(step, comm)), BASE[1]])
    assert (dev.floats, dev.differ, dev.mismatches, dev.ok) == (3, 2, [], True)
    assert dev.worst_rel == ((comm - 0.25) / comm, 26, "scenario a.jobs[0].communication[0]")
    assert dev.worst_ulps == (26, (comm - 0.25) / comm, "scenario a.jobs[0].communication[0]")
    assert report_deviation.lines(dev, 2) == [
        "2 items, 3 floats, 2 differ",
        "worst relative 5.77e-15 (26 ulps) at scenario a.jobs[0].communication[0]",
        "worst ulps 26 (5.77e-15 relative) at scenario a.jobs[0].communication[0]",
        "within 1e-12 relative, 0 other fields differ",
    ]


def test_a_float_past_the_bound_fails():
    dev = compare(BASE, [("scenario a", report(2.0 * (1 + 2e-12), 0.25)), BASE[1]])
    assert dev.differ == 1 and dev.worst_rel[0] > 1e-12
    assert not dev.ok
    assert report_deviation.lines(dev, 2)[-1] == "NOT within 1e-12 relative, 0 other fields differ"


def test_any_other_field_that_differs_fails():
    dev = compare(BASE, [("scenario a", report(2.0, 0.25, steps=4)), ("plan a layers", "('a', 2, 4, ())")])
    assert dev.mismatches == ["scenario a.jobs[0].steps: 3 != 4",
                              "plan a layers: \"('a', 1, 4, ())\" != \"('a', 2, 4, ())\""]
    assert dev.floats == 3 and not dev.ok
    # An int where a float was, a renamed key, a shorter list.
    for text in (report(2, 0.25), report(2.0, 0.25).replace('"step"', '"span"'),
                 json.dumps({"jobs": []})):
        assert not compare(BASE[:1], [("scenario a", text)]).ok


def test_items_that_differ_in_name_or_number_fail():
    assert not compare(BASE, BASE[:1]).ok
    assert not compare(BASE, [("scenario b", BASE[0][1]), BASE[1]]).ok
