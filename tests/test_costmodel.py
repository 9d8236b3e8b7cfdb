import dataclasses
import json

import numpy as np
import pytest

from ralp.catalog import catalog_lookup, catalog_names
from ralp.costmodel import (
    CSV_HEADER,
    CostModelError,
    JobSpec,
    Strategy,
    StrategyKind,
    StrategyVolumes,
    compare_strategies,
    compute_load,
    gpu_assignments,
    rows_to_csv,
    rows_to_json,
    volume_baseline,
    volume_ralp,
    volume_ring,
)
from ralp.layers import LayerKind, ModelGraph
from conftest import fc_tail_model, make_layer

GIB = 1 << 30


def flat_model(param_counts, outputs, kinds, batch=1, name="flat"):
    layers = tuple(
        make_layer(i + 1, kinds[i], param_counts[i], outputs[i]) for i in range(len(param_counts))
    )
    return ModelGraph(name=name, layers=layers, batch_size=batch)


class TestBaselineVolume:
    def test_two_s_w(self):
        model = catalog_lookup("vgg11")
        vol = volume_baseline(model, 8)
        assert vol.total_bytes_per_step == 2 * model.total_param_bytes * 8
        assert vol.activation_bytes == 0

    def test_empty_model_is_free(self):
        model = flat_model([0, 0], [10, 10], [LayerKind.POOLING, LayerKind.POOLING])
        assert volume_baseline(model, 16).total_bytes_per_step == 0

    def test_single_worker(self):
        model = catalog_lookup("alexnet")
        assert volume_baseline(model, 1).total_bytes_per_step == 2 * model.total_param_bytes


class TestRingVolume:
    def test_reported_alexnet_volume(self):
        got = volume_ring(catalog_lookup("alexnet"), 8).total_bytes_per_step
        assert got == pytest.approx(3.23 * GIB, rel=0.03)

    def test_reported_vgg11_volume(self):
        got = volume_ring(catalog_lookup("vgg11"), 8).total_bytes_per_step
        assert got == pytest.approx(6.93 * GIB, rel=0.03)

    def test_single_peer_exchanges_nothing(self):
        assert volume_ring(catalog_lookup("vgg11"), 1).total_bytes_per_step == 0


class TestRalpVolume:
    def test_hand_worked_example(self):
        # per worker: 2*50 + 2*20 = 140; W=4 -> 560
        model = flat_model([10, 10, 80], [100, 50, 1],
                           [LayerKind.CONVOLUTION, LayerKind.BLOCK, LayerKind.FULLY_CONNECTED],
                           batch=1)
        model = dataclasses.replace(model, bytes_per_element=1)
        vol = volume_ralp(model, 2, 4)
        assert vol.total_bytes_per_step == 560
        assert vol.activation_bytes == 4 * 2 * 50
        assert vol.parameter_sync_bytes == 4 * 2 * 20

    def test_everything_behind_split_is_free(self):
        model = flat_model([0, 10**6], [1, 10],
                           [LayerKind.POOLING, LayerKind.FULLY_CONNECTED], batch=1)
        # front has no params; cut activation of 1 elem * 4 B dominates
        vol = volume_ralp(model, 1, 8)
        assert vol.parameter_sync_bytes == 0
        assert vol.total_bytes_per_step == 8 * 2 * 4

    def test_smaller_than_ring_and_baseline_for_vgg11(self):
        model = catalog_lookup("vgg11")
        from ralp.profiler import profile

        split = profile(model).split_index
        ralp31 = volume_ralp(model, split, 31).total_bytes_per_step
        assert ralp31 < volume_ring(model, 8).total_bytes_per_step
        assert ralp31 < volume_baseline(model, 31).total_bytes_per_step

    def test_split_out_of_range(self):
        model = catalog_lookup("lenet")
        with pytest.raises(CostModelError):
            volume_ralp(model, model.num_layers, 2)
        with pytest.raises(CostModelError):
            volume_ralp(model, 0, 2)


class TestVolumeProperties:
    def test_back_segment_mutations_leave_ralp_invariant(self):
        rng = np.random.default_rng(42)
        changed = 0
        for _ in range(200):
            model = fc_tail_model(rng)
            split = model.num_layers - 2  # pooling boundary before the fc tail
            w = int(rng.integers(1, 9))
            base = (
                volume_ralp(model, split, w),
                volume_baseline(model, w),
                volume_ring(model, w),
            )
            target = int(rng.integers(split, model.num_layers))  # 0-based back layer
            delta = int(rng.integers(1, 10**6))
            mutated_layer = model.layers[target]._replace(
                param_count=model.layers[target].param_count + delta
            )
            layers = list(model.layers)
            layers[target] = mutated_layer
            mutated = dataclasses.replace(model, layers=tuple(layers))
            assert volume_ralp(mutated, split, w) == base[0]
            changed += volume_baseline(mutated, w) != base[1]
            assert volume_ring(mutated, w) != base[2].total_bytes_per_step or w == 1
        assert changed == 200

    def test_linear_in_workers(self):
        model = catalog_lookup("overfeat")
        split = 4
        for w in (1, 2, 5, 16):
            assert volume_baseline(model, w).total_bytes_per_step == \
                w * volume_baseline(model, 1).total_bytes_per_step
            assert volume_ralp(model, split, w).total_bytes_per_step == \
                w * volume_ralp(model, split, 1).total_bytes_per_step
        ring1 = volume_ring(model, 2).total_bytes_per_step
        for w in (2, 3, 9):
            assert volume_ring(model, w).total_bytes_per_step == (w - 1) * ring1

    def test_batch_doubling_scales_activations_only(self):
        model = catalog_lookup("vgg11")
        doubled = model.with_batch_size(model.batch_size * 2)
        v1 = volume_ralp(model, 13, 8)
        v2 = volume_ralp(doubled, 13, 8)
        assert v2.activation_bytes == 2 * v1.activation_bytes
        assert v2.parameter_sync_bytes == v1.parameter_sync_bytes
        assert volume_baseline(doubled, 8) == volume_baseline(model, 8)

    def test_a_volume_is_its_two_parts(self):
        names = [f.name for f in dataclasses.fields(StrategyVolumes)]
        assert names == ["parameter_sync_bytes", "activation_bytes"]
        assert StrategyVolumes(parameter_sync_bytes=5, activation_bytes=3).total_bytes_per_step == 8
        for parts in ((-1, 0), (0, -1)):
            with pytest.raises(CostModelError, match="^negative volume$"):
                StrategyVolumes(*parts)

    def test_breakdown_sums_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = fc_tail_model(rng)
            w = int(rng.integers(1, 9))
            for vol in (volume_baseline(model, w), volume_ring(model, w),
                        volume_ralp(model, 2, w)):
                assert vol.parameter_sync_bytes + vol.activation_bytes == vol.total_bytes_per_step
                assert vol.total_bytes_per_step >= 0


class TestComputeLoad:
    def test_fc_back_segment_at_batch_one(self):
        model = flat_model([0, 4096 * 1000 + 1000], [4096, 1000],
                           [LayerKind.POOLING, LayerKind.FULLY_CONNECTED], batch=1)
        layers = list(model.layers)
        layers[1] = layers[1]._replace(compute_flops_per_sample=2 * 4096 * 1000)
        model = dataclasses.replace(model, layers=tuple(layers))
        worker, ps = compute_load(model, split_index=1)
        assert ps == 3 * (2 * 4096 * 1000)
        assert worker == 0

    def test_split_after_last_layer_leaves_ps_idle(self):
        model = catalog_lookup("lenet")
        _, ps = compute_load(model, split_index=model.num_layers)
        assert ps == 0

    def test_without_split_everything_on_workers(self):
        model = catalog_lookup("lenet")
        worker, ps = compute_load(model)
        assert worker == 3 * model.flops_prefix[-1] * model.batch_size
        assert ps == 0

    def test_a_split_moves_compute_without_adding_any(self):
        # The PS value is one worker batch's back segment: with the
        # front, it is the whole model's compute for that batch.
        for name in catalog_names():
            model = catalog_lookup(name)
            total, _ = compute_load(model)
            for split in range(1, model.num_layers + 1):
                worker, ps = compute_load(model, split)
                assert worker + ps == total

    def test_split_out_of_range(self):
        model = catalog_lookup("lenet")
        for split in (0, model.num_layers + 1):
            with pytest.raises(CostModelError, match=f"split_index {split} out of range"):
                compute_load(model, split)

    def test_vgg11_front_dominates_back_compute(self):
        model = catalog_lookup("vgg11")
        worker, ps = compute_load(model, 13)
        assert worker >= 4 * ps


class TestCompareStrategies:
    def test_vgg11_ordering_at_eight_workers(self):
        model = catalog_lookup("vgg11")
        rows = compare_strategies(model, [8])
        by_kind = {row.strategy: row.volumes.total_bytes_per_step for row in rows}
        assert by_kind["ring"] == pytest.approx(6.93 * GIB, rel=0.03)
        assert by_kind["baseline"] == pytest.approx(2 * model.total_param_bytes * 8)
        assert by_kind["ralp"] == min(by_kind.values())

    def test_zero_param_model_all_zero(self):
        model = flat_model([0], [10], [LayerKind.POOLING])
        rows = compare_strategies(model, [4])
        assert all(row.volumes.total_bytes_per_step == 0 for row in rows)

    def test_monotone_in_worker_count(self):
        model = catalog_lookup("alexnet")
        rows = compare_strategies(model, [1, 2, 4])
        for kind in ("baseline", "ralp", "ring"):
            totals = [r.volumes.total_bytes_per_step for r in rows if r.strategy == kind]
            assert totals == sorted(totals)

    def test_csv_format(self):
        rows = compare_strategies(catalog_lookup("lenet"), [2], [StrategyKind.RING_ALLREDUCE])
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "lenet" and fields[1] == "ring" and fields[2] == "2"

    def test_json_format_round_trips(self):
        rows = compare_strategies(catalog_lookup("lenet"), [2, 4])
        payload = json.loads(rows_to_json(rows))
        assert len(payload) == len(rows)
        assert {entry["W"] for entry in payload} == {2, 4}
        header, *table = rows_to_csv(rows).splitlines()
        assert all(",".join(entry) == header == CSV_HEADER for entry in payload)
        assert [",".join(map(str, entry.values())) for entry in payload] == table

    def test_gpu_assignments(self):
        table = gpu_assignments(16)
        assert table["ralp-h"] == {"workers": 8, "ps": 1, "gpus": 9}
        assert table["ralp-n"] == {"workers": 15, "ps": 1, "gpus": 16}
        assert table["baseline"] == {"workers": 8, "ps": 8, "gpus": 16}
        assert table["ring"]["workers"] == 16

    # The CLI refuses these inputs before it calls the cost model (an empty
    # --workers list, --gpus 1), so only the API reaches these checks.
    def test_no_worker_counts_is_rejected(self):
        with pytest.raises(CostModelError, match="^worker_counts must be nonempty$"):
            compare_strategies(catalog_lookup("lenet"), [])

    def test_gpu_assignments_needs_two_devices(self):
        with pytest.raises(CostModelError, match="^need at least 2 devices$"):
            gpu_assignments(1)


class TestJobSpec:
    def test_ralp_requires_one_ps(self):
        model = catalog_lookup("vgg11")
        with pytest.raises(CostModelError):
            JobSpec(model=model, strategy=Strategy.ralp(13), worker_count=4, ps_count=2)

    def test_ring_requires_no_ps(self):
        model = catalog_lookup("vgg11")
        with pytest.raises(CostModelError):
            JobSpec(model=model, strategy=Strategy.ring(), worker_count=4, ps_count=1)

    def test_strategy_split_consistency(self):
        with pytest.raises(CostModelError):
            Strategy.ralp(None)
        with pytest.raises(CostModelError):
            Strategy(StrategyKind.RING_ALLREDUCE, split_index=3)
