import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ralp.catalog import catalog_lookup
from ralp.layers import (
    PARAMETERIZED_KINDS,
    LayerKind,
    LayerSpec,
    ModelError,
    ModelGraph,
)
from ralp.profiler import profile
from conftest import make_layer


class TestModelGraph:
    def _two_layer(self, batch=4):
        layers = (
            make_layer(1, LayerKind.CONVOLUTION, params=100, out=1000, flops=5000),
            make_layer(2, LayerKind.FULLY_CONNECTED, params=50, out=10, flops=200),
        )
        return ModelGraph(name="m", layers=layers, batch_size=batch)

    def test_total_param_bytes_identity(self):
        m = self._two_layer()
        assert m.total_param_bytes == 4 * (100 + 50)
        assert m.total_param_bytes // m.bytes_per_element == m.total_param_count

    def test_output_bytes_scale_with_batch(self):
        m4 = self._two_layer(batch=4)
        m8 = self._two_layer(batch=8)
        for i in (0, 1):
            assert m8.output_bytes[i] == 2 * m4.output_bytes[i]
        assert m8.total_param_bytes == m4.total_param_bytes

    def test_cumulative_params(self):
        m = self._two_layer()
        assert m.cumulative_param_bytes[0] == 400
        assert m.cumulative_param_bytes[1] == 600

    def test_segment_flops(self):
        m = self._two_layer()
        assert m.flops_prefix[-1] == 5200
        assert m.flops_prefix[2] - m.flops_prefix[1] == 200

    def test_empty_chain_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            ModelGraph(name="bad", layers=(), batch_size=1)

    @pytest.mark.parametrize("what, params, out, flops", [
        ("parameter bytes", 2**958, 10, 0),  # times 4 bytes
        ("activation bytes per step", 1, 2**957, 0),  # times 4 bytes and batch 2
        ("training flops per step", 1, 10, 2**959 // 3 + 1),  # times 3 and batch 2
    ], ids=["params", "activations", "flops"])
    def test_totals_beyond_float_range_rejected(self, what, params, out, flops):
        def model(params, batch):
            layer = make_layer(1, LayerKind.FULLY_CONNECTED, params, out, flops)
            return ModelGraph(name="m", layers=(layer,), batch_size=batch)

        with pytest.raises(ModelError, match=f"^model m: {what} reach 2\\*\\*960, too large"):
            model(params, 2)
        model(params // 2, 1)  # every total halved fits

    def test_params_only_on_weighted_kinds(self):
        with pytest.raises(ModelError, match="cannot carry parameters"):
            make_layer(1, LayerKind.POOLING, params=5, out=10)

    def test_nonloss_needs_output(self):
        with pytest.raises(ModelError, match="empty output"):
            make_layer(1, LayerKind.CONVOLUTION, params=5, out=0)
        # loss may produce nothing
        make_layer(1, LayerKind.LOSS, params=0, out=0)


class TestLayerSpecRecord:
    GOOD = LayerSpec("c1", LayerKind.CONVOLUTION, 100, 1000, 5000)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.GOOD.param_count = 1  # type: ignore[misc]

    @pytest.mark.parametrize("changes, message", [
        ({"param_count": -1}, "layer c1: negative derived quantity"),
        ({"output_elems_per_sample": -1}, "layer c1: negative derived quantity"),
        ({"compute_flops_per_sample": -1}, "layer c1: negative derived quantity"),
        ({"kind": LayerKind.POOLING}, "layer c1: kind pool cannot carry parameters"),
        ({"output_elems_per_sample": 0}, "layer c1: empty output on a non-loss layer"),
    ])
    def test_every_way_of_building_checks_the_fields(self, changes, message):
        fields = {**self.GOOD._asdict(), **changes}
        for build in (lambda: LayerSpec(**fields),
                      lambda: self.GOOD._replace(**changes),
                      lambda: LayerSpec._make(fields.values())):
            with pytest.raises(ModelError) as err:
                build()
            assert str(err.value) == message

    def test_hash_is_the_field_tuple_hash(self):
        layer = self.GOOD
        assert hash(layer) == hash((layer.name, layer.kind, layer.param_count,
                                    layer.output_elems_per_sample, layer.compute_flops_per_sample))

    def test_pickle_and_copy_round_trip_a_catalog_model(self):
        model = catalog_lookup("resnet-50")
        profile(model)  # the copies also carry the cached planning state
        for twin in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert twin == model and twin.layers == model.layers
            assert all(type(layer) is LayerSpec for layer in twin.layers)
            assert twin.columns == model.columns

    def test_plain_tuples_are_not_layers(self):
        with pytest.raises(ModelError, match="^model m: layers must be LayerSpec records, got tuple$"):
            ModelGraph(name="m", layers=(tuple(self.GOOD),), batch_size=1)


_layer_specs = st.lists(
    st.tuples(
        st.sampled_from([LayerKind.CONVOLUTION, LayerKind.FULLY_CONNECTED, LayerKind.BLOCK,
                         LayerKind.POOLING, LayerKind.ACTIVATION]),
        st.integers(0, 10**9),  # params (dropped for free kinds)
        st.integers(1, 10**7),  # output elems
        st.integers(0, 10**12),  # flops
    ),
    min_size=1,
    max_size=24,
)


def _chain(spec) -> tuple:
    return tuple(make_layer(i + 1, kind, params if kind in PARAMETERIZED_KINDS else 0, out, flops)
                 for i, (kind, params, out, flops) in enumerate(spec))


class TestCachedSums:
    @given(spec=_layer_specs, other=_layer_specs, batch=st.integers(1, 512), new_batch=st.integers(1, 512),
           elem=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=150, deadline=None)
    def test_accessors_equal_plain_sums(self, spec, other, batch, new_batch, elem):
        layers = _chain(spec)
        model = ModelGraph(name="m", layers=layers, batch_size=batch, bytes_per_element=elem)
        fresh = ModelGraph(name="m", layers=layers, batch_size=batch, bytes_per_element=elem)

        def check(m):
            n, e, b = len(m.layers), m.bytes_per_element, m.batch_size
            assert m.kind_values == tuple(l.kind.value for l in m.layers)
            assert m.param_bytes == tuple(l.param_count * e for l in m.layers)
            assert m.output_bytes == tuple(l.output_elems_per_sample * b * e for l in m.layers)
            assert m.cumulative_param_bytes == tuple(
                e * sum(l.param_count for l in m.layers[:i]) for i in range(1, n + 1))
            assert m.flops_prefix == tuple(
                sum(l.compute_flops_per_sample for l in m.layers[:i]) for i in range(n + 1))
            assert m.total_param_count == sum(l.param_count for l in m.layers)
            assert m.total_param_bytes == e * m.total_param_count

        check(model)
        # Reading the sums leaves equality, hash and repr as they were.
        assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)

        # Copies made after the sums were read report their own values.
        rebatched = model.with_batch_size(new_batch)
        assert rebatched.batch_size == new_batch
        for i, layer in enumerate(layers):
            assert rebatched.output_bytes[i] == layer.output_elems_per_sample * new_batch * elem
        check(rebatched)
        check(dataclasses.replace(model, layers=_chain(other)))
        check(dataclasses.replace(model, bytes_per_element=elem * 2))
