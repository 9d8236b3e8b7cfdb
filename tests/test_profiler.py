import dataclasses
import math
import random
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ralp.profiler
from ralp.catalog import catalog_lookup, catalog_names
from ralp.costmodel import compare_strategies
from ralp.descriptor import parse_model
from ralp.layers import LayerKind
from ralp.profiler import (
    ProfilerConfig,
    ProfilerError,
    SkewnessMode,
    compute_skewness,
    find_split,
    gate_eligibility,
    profile,
)
from conftest import random_model

CONV = LayerKind.CONVOLUTION
POOL = LayerKind.POOLING
FC = LayerKind.FULLY_CONNECTED
BLOCK = LayerKind.BLOCK


def exact_skewness(params, mode):
    """The skewness nearest the exact one, from Fraction central moments:
    the mean first, then each deviation from it."""
    sizes = [Fraction(x) for x in params]
    if mode is SkewnessMode.INDEX_WEIGHTED:
        values, weights = range(1, len(sizes) + 1), sizes
    else:
        values, weights = sizes, [1] * len(sizes)
    total = sum(weights)
    mean = sum(w * v for w, v in zip(weights, values)) / total
    dev = [v - mean for v in values]
    m2 = sum(w * d**2 for w, d in zip(weights, dev)) / total
    m3 = sum(w * d**3 for w, d in zip(weights, dev)) / total
    if m2 == 0:
        return 0.0
    square = m3**2 / m2**3
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(square.numerator) / square.denominator).sqrt()
    return float(-root if m3 < 0 else root)


def assert_within_an_ulp(got, want):
    assert abs(got - want) <= math.ulp(want), (got, want)


class TestSkewness:
    def test_uniform_mass_is_symmetric(self):
        for mode in SkewnessMode:
            assert compute_skewness([5, 5, 5, 5], mode) == 0.0

    def test_degenerate_distributions_read_exactly_zero(self):
        # Equal sizes (literal_values) and all the mass on one layer
        # (index_weighted) have no second moment at any scale.
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randint(2, 64)
            size = rng.randint(1, 10**9) * rng.uniform(1e-3, 1e6)
            assert compute_skewness([size] * n, SkewnessMode.LITERAL_VALUES) == 0.0
            one = [0.0] * n
            one[rng.randrange(n)] = size
            assert compute_skewness(one, SkewnessMode.INDEX_WEIGHTED) == 0.0

    def test_two_point_example(self):
        # weights 0.1/0.9 over indices 1/2: mu=1.9, m2=0.09, m3=-0.072
        got = compute_skewness([1, 9], SkewnessMode.INDEX_WEIGHTED)
        assert got == pytest.approx(-0.072 / 0.09**1.5, abs=1e-9)
        assert got == pytest.approx(-2.6667, abs=1e-4)

    def test_alexnet_matches_reported_factor(self):
        model = catalog_lookup("alexnet")
        params = [l.param_count for l in model.layers]
        assert compute_skewness(params) == pytest.approx(-2.27, abs=0.5)

    def test_literal_mode_is_positive_for_tail_heavy(self):
        # a few large values pull the plain third moment to the right
        assert compute_skewness([1, 1, 1, 100], SkewnessMode.LITERAL_VALUES) > 0
        assert compute_skewness([1, 1, 1, 100], SkewnessMode.INDEX_WEIGHTED) < 0

    def test_needs_two_layers(self):
        with pytest.raises(ProfilerError, match="2 layers"):
            compute_skewness([7])

    def test_all_zero_rejected(self):
        with pytest.raises(ProfilerError, match="zero"):
            compute_skewness([0, 0, 0])

    def test_negative_sizes_rejected(self):
        with pytest.raises(ProfilerError, match="negative"):
            compute_skewness([3, -1, 5])

    @pytest.mark.parametrize("params", [[1, "x", 2], [1, None], [[1, 2], [3, 4]]])
    def test_non_numeric_rejected(self, params):
        with pytest.raises(ProfilerError, match="numbers"):
            compute_skewness(params)

    @pytest.mark.parametrize("mode", list(SkewnessMode))
    def test_within_an_ulp_of_exact_moments(self, mode):
        # compute_skewness rounds only a true division of exact integers and
        # a square root, so it is at most 1 ulp from the nearest float.
        rng = np.random.default_rng(31)
        models = [[l.param_count for l in catalog_lookup(name).layers]
                  for name in ("alexnet", "googlenet", "resnet-50", "vgg19")]
        models += [rng.integers(0, 10**8, size=int(rng.integers(2, 400))).tolist()
                   for _ in range(50)]
        for params in models:
            assert_within_an_ulp(compute_skewness(params, mode), exact_skewness(params, mode))

    @pytest.mark.parametrize("mode", list(SkewnessMode))
    def test_catalog_within_an_ulp_of_exact_moments(self, mode):
        for name in catalog_names():
            params = catalog_lookup(name).param_bytes
            assert_within_an_ulp(compute_skewness(params, mode), exact_skewness(params, mode))

    @pytest.mark.parametrize("mode", list(SkewnessMode))
    @pytest.mark.parametrize("exponent", [100, 150, 200, 216, 250, 280, 288])
    def test_extreme_concentrations_within_an_ulp(self, mode, exponent):
        # Size ratios of 10**100 and more: a float mean of such sizes loses
        # the small layers, and from about 10**216 a float m2**1.5 underflows
        # to a zero divisor.  Some skewnesses here are near 1e140, and some,
        # such as index_weighted [big, big, 1, 5], below 1e-154, whose
        # square is below the float range.
        big = 10**exponent
        for params in ([1, big], [big, 1], [1, big, 1], [3, 0, big, 7, 2], [1, 1, big],
                       [big, big, 1, 5], [big] + [1] * 7, [big, 1, big // 3 + 1]):
            assert_within_an_ulp(compute_skewness(params, mode), exact_skewness(params, mode))

    @pytest.mark.parametrize("mode", list(SkewnessMode))
    @pytest.mark.parametrize("size", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_sizes_rejected(self, mode, size):
        with pytest.raises(ProfilerError, match="^parameter sizes must be finite numbers$"):
            compute_skewness([1, size], mode)

    @pytest.mark.parametrize("params", [[1, 10**700], [10**700, 1]], ids=["left", "right"])
    def test_a_skewness_past_the_float_range_is_rejected(self, params):
        # About +-1e350: its size ratio passes 2**2048.  Literal-value
        # skewnesses of n sizes stay below n, so only index_weighted gets here.
        with pytest.raises(ProfilerError, match="^the skewness is past the float range"):
            compute_skewness(params)

    @pytest.mark.parametrize("mode", list(SkewnessMode))
    def test_sizes_of_every_numeric_type_are_read_as_their_value(self, mode):
        # Ints stay exact; anything else is read as its float, as exactly.
        params = [3, True, 2.5, np.int64(7), np.float32(0.75), np.True_, "4", " 1e1 ", 2**70]
        want = exact_skewness([3, 1, 2.5, 7, 0.75, 1, 4, 10, 2**70], mode)
        assert_within_an_ulp(compute_skewness(params, mode), want)

    @given(
        params=st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=64).filter(
            lambda p: sum(p) > 0
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_literal_mode_is_bit_identical_under_permutation(self, params, seed):
        # Exact integer sums of the same terms do not depend on their order.
        shuffled = np.random.default_rng(seed).permutation(params).tolist()
        assert compute_skewness(shuffled, SkewnessMode.LITERAL_VALUES) == compute_skewness(
            params, SkewnessMode.LITERAL_VALUES
        )

    @given(
        params=st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=64).filter(
            lambda p: sum(p) > 0
        ),
        scale=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
        mode=st.sampled_from(list(SkewnessMode)),
    )
    @example(params=[0, 0, 133], scale=672770.9400242444, mode=SkewnessMode.INDEX_WEIGHTED)
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, params, scale, mode):
        # Scaling by a float rounds each product, so deviations lose accuracy
        # when the spread is minuscule relative to the magnitude; keep the
        # inputs well-conditioned and the invariant holds to 1e-9.
        assume(max(params) == 0 or (max(params) - min(params)) / max(params) > 1e-4)
        base = compute_skewness(params, mode)
        scaled = compute_skewness([p * scale for p in params], mode)
        assert math.isclose(base, scaled, rel_tol=1e-9, abs_tol=1e-9)

    @given(
        params=st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=64).filter(
            lambda p: sum(p) > 0
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_reversal_negates_index_weighted(self, params):
        fwd = compute_skewness(params, SkewnessMode.INDEX_WEIGHTED)
        rev = compute_skewness(params[::-1], SkewnessMode.INDEX_WEIGHTED)
        assert math.isclose(fwd, -rev, rel_tol=1e-9, abs_tol=1e-9)


class TestGate:
    def test_reported_alexnet_factor_is_eligible_at_default(self):
        assert gate_eligibility(-2.27, ProfilerConfig(threshold=-0.5))

    def test_mild_skew_not_eligible(self):
        assert not gate_eligibility(-0.3, ProfilerConfig(threshold=-0.5))

    def test_strict_comparison(self):
        assert not gate_eligibility(-0.5, ProfilerConfig(threshold=-0.5))

    def test_selective_threshold_classifies_catalog(self):
        config = ProfilerConfig(threshold=-1.5)
        eligible = set()
        for name in ("alexnet", "googlenet", "inception-v3", "lenet",
                     "overfeat", "resnet-50", "vgg11", "vgg19"):
            model = catalog_lookup(name)
            skew = compute_skewness([l.param_count for l in model.layers])
            if gate_eligibility(skew, config):
                eligible.add(name)
        assert eligible == {"alexnet", "overfeat", "vgg11", "vgg19"}

    @given(
        skew=st.floats(min_value=-10, max_value=10, allow_nan=False),
        k1=st.floats(min_value=-5, max_value=5, allow_nan=False),
        bump=st.floats(min_value=0, max_value=5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_threshold(self, skew, k1, bump):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c1 = ProfilerConfig(threshold=k1)
            c2 = ProfilerConfig(threshold=k1 + bump)
        if gate_eligibility(skew, c1):
            assert gate_eligibility(skew, c2) or bump == 0

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ProfilerError, match="finite"):
            ProfilerConfig(threshold=threshold)

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ProfilerError, match="unknown skewness mode 'bogus'; "
                                                "expected index_weighted or literal_values"):
            ProfilerConfig(mode="bogus")

    def test_mode_given_by_name_is_the_member(self):
        assert ProfilerConfig(mode="literal_values").mode is SkewnessMode.LITERAL_VALUES

    def test_nonnegative_threshold_warns_but_keeps_value(self):
        with pytest.warns(UserWarning, match="non-negative") as record:
            config = ProfilerConfig(threshold=0.25)
        assert config.threshold == 0.25
        # The warning names the line that built the config, not the
        # dataclass's generated __init__.
        assert [w.filename for w in record] == [__file__]


def exhaustive_split(param_bytes, output_bytes, kinds):
    """Independent oracle: enumerate every candidate from scratch."""
    n = len(param_bytes)
    compute_demand = (CONV, BLOCK)
    best = None
    for i in range(1, n + 1):
        if i < n and kinds[i - 1] in compute_demand and kinds[i] in compute_demand:
            continue
        cost = output_bytes[i - 1] + sum(param_bytes[:i])
        if best is None or cost < best[1]:
            best = (i, cost)
    if best is not None and best[0] == n and n > 1:
        return None
    return best


class TestFindSplit:
    def test_worked_example(self):
        # candidates cost 110, 70, 101 -> split 2
        got = find_split([10, 10, 80], [100, 50, 1], [CONV, POOL, FC])
        assert (got.index, got.cost_bytes) == (2, 70)

    def test_single_layer_is_its_own_candidate(self):
        got = find_split([10], [100], [CONV])
        assert (got.index, got.cost_bytes) == (1, 110)

    def test_all_conv_chain_has_no_split(self):
        assert find_split([10, 10, 10], [5, 5, 5], [CONV, CONV, CONV]) is None

    def test_degenerate_tail_win_means_no_split(self):
        # cheapest point is after the last layer: nothing to offload
        assert find_split([100, 100], [1000, 1], [CONV, FC]) is None

    def test_ties_take_smallest_index(self):
        # costs: 30 at i=1, 30 at i=2, 125 at i=3 -> tie broken toward i=1
        got = find_split([10, 10, 5], [20, 10, 100], [POOL, POOL, FC])
        assert (got.index, got.cost_bytes) == (1, 30)

    def test_vgg11_splits_before_first_fully_connected(self):
        model = catalog_lookup("vgg11")
        p = list(model.param_bytes)
        o = list(model.output_bytes)
        kinds = [l.kind for l in model.layers]
        got = find_split(p, o, kinds)
        assert exhaustive_split(p, o, kinds) == (got.index, got.cost_bytes)
        # boundary sits at the last pooling layer, just before fc1
        assert model.layers[got.index - 1].kind is POOL
        assert model.layers[got.index].kind is FC
        assert model.layers[got.index].name == "fc1"

    def test_matches_exhaustive_oracle_on_random_models(self):
        rng = np.random.default_rng(20260811)
        mismatches = 0
        for _ in range(1000):
            model = random_model(rng)
            p = list(model.param_bytes)
            o = list(model.output_bytes)
            kinds = [l.kind for l in model.layers]
            got = find_split(p, o, kinds)
            want = exhaustive_split(p, o, kinds)
            if want is None:
                mismatches += got is not None
            else:
                mismatches += got is None or (got.index, got.cost_bytes) != want
        assert mismatches == 0


class TestProfile:
    def test_vgg11_eligible_and_split_before_fc(self):
        report = profile(catalog_lookup("vgg11"))
        assert report.eligible
        assert report.layer_names[report.split_index] == "fc1"

    def test_googlenet_not_eligible_at_selective_threshold(self):
        report = profile(catalog_lookup("googlenet"), ProfilerConfig(threshold=-1.5))
        assert not report.eligible
        assert report.split_index is None
        assert report.split_cost_bytes is None
        assert "standard parameter-server" in report.recommendation
        assert report.no_split_reason == (f"its skewness {report.skewness!r} is not below "
                                          "the threshold -1.5")

    def test_uniform_synthetic_model_not_eligible(self):
        from conftest import make_layer
        from ralp.layers import ModelGraph

        layers = tuple(make_layer(i, FC, params=100, out=10) for i in range(1, 5))
        report = profile(ModelGraph(name="uniform", layers=layers, batch_size=1))
        assert report.skewness == 0.0
        assert not report.eligible

    def test_split_fields_iff_eligible(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            report = profile(random_model(rng))
            assert (report.split_index is not None) == report.eligible
            assert (report.split_cost_bytes is not None) == report.eligible
            assert (report.no_split_reason is None) == report.eligible
            assert report.recommendation.startswith(
                f"partition after layer {report.split_index};" if report.eligible else "no ")

    def test_the_verdict_is_read_from_the_split(self):
        report = profile(catalog_lookup("vgg11"))
        names = {f.name for f in dataclasses.fields(report)}
        assert names.isdisjoint({"eligible", "recommendation", "no_split_reason"})
        # ``eligible`` is still taken by the constructor, and dropped.
        moved = dataclasses.replace(report, eligible=False, split_index=report.split_index + 1)
        assert moved.eligible and moved.no_split_reason is None
        assert moved.recommendation.startswith(f"partition after layer {moved.split_index};")
        unsplit = dataclasses.replace(report, eligible=True, split_index=None,
                                      split_cost_bytes=None)
        assert (unsplit.eligible, unsplit.to_dict()["eligible"]) == (False, False)
        assert unsplit.no_split_reason.startswith("it has no split point")

    def test_deterministic(self):
        model = catalog_lookup("resnet-50")
        assert profile(model) == profile(model)
        assert profile(model).to_json() == profile(model).to_json()

    def test_cumulative_params_nondecreasing_and_total(self):
        report = profile(catalog_lookup("overfeat"))
        cum = report.cumulative_param_bytes
        assert all(a <= b for a, b in zip(cum, cum[1:]))
        assert cum[-1] == catalog_lookup("overfeat").total_param_bytes

    @pytest.mark.parametrize("mode", list(SkewnessMode))
    def test_report_holds_the_models_own_tuples(self, mode):
        model = catalog_lookup("vgg11")
        report = profile(model, ProfilerConfig(mode=mode))
        assert report.layer_names is model.columns[0]
        assert report.layer_kinds is model.kind_values
        assert report.param_bytes is model.param_bytes
        assert report.output_bytes is model.output_bytes
        assert report.cumulative_param_bytes is model.cumulative_param_bytes

    def test_report_serializes_layer_table(self):
        import json

        payload = json.loads(profile(catalog_lookup("lenet")).to_json())
        assert [l["name"] for l in payload["layers"]][:2] == ["conv1", "pool1"]
        assert payload["eligible"] is True


class TestPlanningCache:
    """``profile`` computes a model's columns, split search and skewness per
    mode once per ModelGraph instance, and a replaced model starts afresh."""

    def test_split_search_and_skewness_run_once_per_model(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name if name == "split" else SkewnessMode(args[1]).value] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ralp.profiler, "find_split", counted("split", find_split))
        monkeypatch.setattr(ralp.profiler, "compute_skewness", counted("skew", compute_skewness))
        model = catalog_lookup("vgg11")
        configs = [ProfilerConfig(), ProfilerConfig(threshold=-0.1, mode="literal_values"),
                   ProfilerConfig(threshold=-1.5), ProfilerConfig(mode=SkewnessMode.LITERAL_VALUES)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [profile(model, config) for config in configs + configs]
        compare_strategies(model, [2, 8])
        assert calls == {"split": 1, "index_weighted": 1, "literal_values": 1}
        monkeypatch.undo()
        assert reports == [profile(catalog_lookup("vgg11"), c) for c in configs + configs]
        assert reports[0].eligible and not reports[1].eligible

    @pytest.mark.parametrize("old, new", [
        ("fc1 fc out=4096", "fc1 fc out=64"),
        ("elem_bytes=4", "elem_bytes=2"),
        ("batch=64", "batch=3"),
    ])
    def test_replaced_model_reports_as_a_fresh_parse(self, old, new):
        text = (resources.files("ralp") / "catalog_data" / "vgg11.model").read_text()
        model = parse_model(text)
        before = [profile(model, ProfilerConfig(mode=mode)) for mode in SkewnessMode]
        fresh = parse_model(text.replace(old, new))
        changed = dataclasses.replace(model, layers=fresh.layers, batch_size=fresh.batch_size,
                                      bytes_per_element=fresh.bytes_per_element)
        for mode, report in zip(SkewnessMode, before):
            config = ProfilerConfig(mode=mode)
            assert profile(changed, config) == profile(fresh, config) != report
            assert profile(model, config) == report
