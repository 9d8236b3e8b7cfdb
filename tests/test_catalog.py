import importlib.util
from importlib import resources
from pathlib import Path

import pytest

from ralp.catalog import UnknownModelError, catalog_lookup, catalog_names
from ralp.layers import LayerKind

GIB = 1 << 30

ALL_NAMES = [
    "alexnet",
    "googlenet",
    "inception-v3",
    "lenet",
    "overfeat",
    "resnet-50",
    "vgg11",
    "vgg19",
]

# Hand-derived totals from the architecture tables (conv K*K*Cin*Cout + Cout
# or +2*Cout with folded batch norm; fc I*U + U).
EXPECTED_PARAM_COUNTS = {
    "alexnet": 61_100_840,
    "googlenet": 6_998_552,
    "inception-v3": 23_834_568,
    "lenet": 2_172_840,
    "overfeat": 145_920_872,
    "resnet-50": 25_557_032,
    "vgg11": 132_863_336,
    "vgg19": 143_667_240,
}


class TestCatalog:
    def test_names(self):
        assert catalog_names() == ALL_NAMES

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_encoded_param_counts(self, name):
        assert catalog_lookup(name).total_param_count == EXPECTED_PARAM_COUNTS[name]

    def test_reported_model_sizes(self):
        # Reported sizes for the three reference benchmarks, +-3%.
        for name, size_gb in (("alexnet", 0.23), ("inception-v3", 0.09), ("vgg11", 0.50)):
            got = catalog_lookup(name).total_param_bytes
            assert got == pytest.approx(size_gb * GIB, rel=0.03)

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownModelError) as err:
            catalog_lookup("mobilenet")
        assert "vgg11" in str(err.value)

    def test_batch_doubling_scales_outputs_only(self):
        model = catalog_lookup("vgg11")
        doubled = model.with_batch_size(model.batch_size * 2)
        assert doubled.total_param_bytes == model.total_param_bytes
        for i in range(model.num_layers):
            assert doubled.output_bytes[i] == 2 * model.output_bytes[i]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_param_byte_identity(self, name):
        model = catalog_lookup(name)
        assert model.total_param_bytes == model.bytes_per_element * sum(
            l.param_count for l in model.layers
        )

    @pytest.mark.parametrize("name", ("vgg11", "vgg19"))
    def test_fully_connected_layers_dominate_vgg(self, name):
        model = catalog_lookup(name)
        fc = sum(l.param_count for l in model.layers if l.kind is LayerKind.FULLY_CONNECTED)
        assert fc / model.total_param_count > 0.70


def test_generator_reproduces_bundled_descriptors():
    script = Path(__file__).resolve().parent.parent / "tools" / "build_catalog.py"
    spec = importlib.util.spec_from_file_location("build_catalog", script)
    build_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_catalog)
    generated = build_catalog.build()
    # The linear stacks are hand-written descriptors; only these are computed.
    assert sorted(generated) == ["googlenet", "inception-v3", "resnet-50"]
    data = resources.files("ralp") / "catalog_data"
    for name, text in generated.items():
        assert (data / f"{name}.model").read_bytes() == text.encode(), f"{name}.model drifted from its generator"
