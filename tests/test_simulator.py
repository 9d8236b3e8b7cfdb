import dataclasses
import functools
import gc
import hashlib
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from ralp import simulator
from ralp.catalog import catalog_lookup
from ralp.costmodel import JobSpec, Strategy, StrategyKind, compute_load, volumes_for
from ralp.descriptor import parse_model
from ralp.layers import COMPUTE_DEMAND_KINDS, LayerKind, ModelGraph
from ralp.profiler import profile
from ralp.simulator import (
    CapacityError,
    ClusterSpec,
    DEFAULT_CLUSTER,
    Placement,
    Scenario,
    ScenarioError,
    parse_scenario,
    simulate_consolidation,
    simulate_run,
    spread_placement,
)
from conftest import fc_tail_model, make_layer


def small_cluster(**overrides):
    base = dict(
        machines=4,
        gpus_per_machine=2,
        gpu_flops_per_sec=1e12,
        memcopy_bytes_per_sec=1e10,
        link_bytes_per_sec=1e9,
        intra_machine_bytes_per_sec=1e11,
    )
    base.update(overrides)
    return ClusterSpec(**base)


def one_job_scenario(model, strategy, workers, ps, cluster=None, steps=1):
    cluster = cluster or small_cluster()
    spec = JobSpec(model=model, strategy=strategy, worker_count=workers, ps_count=ps)
    placement = spread_placement(cluster, [(workers, ps)])[0]
    return Scenario(cluster=cluster, jobs=(("job", spec, placement),), steps=steps)


def paramless_model(flops=5_000_000_000, batch=1):
    layers = (
        make_layer(1, LayerKind.POOLING, 0, 1000, flops=0),
        make_layer(2, LayerKind.ACTIVATION, 0, 1000, flops=0),
    )
    model = ModelGraph(name="free", layers=layers, batch_size=batch)
    layers = (
        model.layers[0]._replace(compute_flops_per_sample=flops),
        model.layers[1],
    )
    return dataclasses.replace(model, layers=layers)


def random_scenario(rng: np.random.Generator, steps=1):
    cluster = ClusterSpec(
        machines=int(rng.integers(2, 6)),
        gpus_per_machine=int(rng.integers(1, 5)),
        gpu_flops_per_sec=float(rng.uniform(1e11, 1e13)),
        memcopy_bytes_per_sec=float(rng.uniform(1e9, 1e11)),
        link_bytes_per_sec=float(rng.uniform(1e8, 1e10)),
        intra_machine_bytes_per_sec=float(rng.uniform(1e10, 1e12)),
    )
    free = cluster.total_gpus
    n_jobs = int(rng.integers(1, 4))
    specs = []
    for j in range(n_jobs):
        model = fc_tail_model(rng, name=f"m{j}", front_layers=int(rng.integers(1, 4)))
        kind = rng.choice(["baseline", "ralp", "ring"])
        if kind == "ring":
            workers = int(rng.integers(1, 5))
            ps = 0
            strategy = Strategy.ring()
        elif kind == "ralp":
            workers = int(rng.integers(1, 5))
            ps = 1
            strategy = Strategy.ralp(model.num_layers - 2)
        else:
            workers = int(rng.integers(1, 5))
            ps = int(rng.integers(1, 4))
            strategy = Strategy.baseline()
        if workers + ps > free:
            break
        free -= workers + ps
        specs.append((f"job{j}", JobSpec(model=model, strategy=strategy,
                                         worker_count=workers, ps_count=ps)))
    if not specs:
        model = fc_tail_model(rng, name="m0", front_layers=1)
        specs = [("job0", JobSpec(model=model, strategy=Strategy.baseline(),
                                  worker_count=1, ps_count=1))]
    placements = spread_placement(cluster, [(s.worker_count, s.ps_count) for _, s in specs])
    jobs = tuple((name, spec, placement) for (name, spec), placement in zip(specs, placements))
    return Scenario(cluster=cluster, jobs=jobs, steps=steps)


def link_variants(cluster):
    """``cluster``, then with link rate equal to intra rate (flows finish
    together), then with infinite links (infinite rates)."""
    return (
        cluster,
        dataclasses.replace(cluster, link_bytes_per_sec=cluster.intra_machine_bytes_per_sec),
        dataclasses.replace(cluster, link_bytes_per_sec=math.inf),
    )


class TestSingleResourceCases:
    def test_lone_worker_compute_time_is_exact(self):
        # one worker, no parameters -> no transfers, no memcopy, no PS work
        model = paramless_model(flops=5_000_000_000)
        cluster = small_cluster(gpu_flops_per_sec=2.5e9)
        scenario = one_job_scenario(model, Strategy.baseline(), 1, 1, cluster)
        (step,) = simulate_run(scenario).jobs[0].steps
        # 3x forward at 5e9 flops over 2.5e9 flops/s = 6 s
        assert step.worker_computation[0] == 3 * 5_000_000_000 / 2.5e9
        assert step.step_duration(0) == step.worker_computation[0]
        assert step.communication[0] == 0.0
        assert step.memcopy[0] == 0.0

    def test_infinite_links_zero_communication(self):
        model = catalog_lookup("lenet")
        cluster = small_cluster(link_bytes_per_sec=math.inf,
                                intra_machine_bytes_per_sec=math.inf)
        scenario = one_job_scenario(model, Strategy.baseline(), 3, 1, cluster)
        (step,) = simulate_run(scenario).jobs[0].steps
        for w in range(3):
            assert step.communication[w] == pytest.approx(0.0, abs=1e-12)
            assert step.step_duration(w) == pytest.approx(
                step.worker_computation[w] + step.memcopy[w] + step.ps_computation[w]
            )

    def test_two_flows_fair_share_doubles_transfer_time(self):
        # two single-worker jobs pushing B bytes over the same links finish
        # together at 2B/L
        rng = np.random.default_rng(0)
        model = fc_tail_model(rng, front_layers=1, back_layers=1)
        cluster = small_cluster(machines=2, gpus_per_machine=4,
                                gpu_flops_per_sec=1e18, memcopy_bytes_per_sec=1e18)
        specs = [
            JobSpec(model=model, strategy=Strategy.baseline(), worker_count=1, ps_count=1)
            for _ in range(2)
        ]
        jobs = tuple(
            (f"j{i}", spec, Placement(workers=((0, 2 * i),), ps=((1, 2 * i + 1),)))
            for i, spec in enumerate(specs)
        )
        scenario = Scenario(cluster=cluster, jobs=jobs, steps=1)
        report = simulate_run(scenario)
        push_bytes = model.total_param_bytes
        expected = 2 * 2 * push_bytes / cluster.link_bytes_per_sec  # push then pull, shared x2
        for job in report.jobs:
            # compute/memcopy/aggregation rates are astronomically fast but
            # not zero, hence the loose tolerance
            assert job.avg_step_time == pytest.approx(expected, rel=1e-6)

    def test_half_rate_intra_tier_not_shared(self):
        # colocated worker and PS never touch the network
        rng = np.random.default_rng(1)
        model = fc_tail_model(rng, front_layers=1, back_layers=1)
        cluster = small_cluster(machines=1, gpus_per_machine=2)
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=1, ps_count=1)
        scenario = Scenario(
            cluster=cluster,
            jobs=(("j", spec, Placement(workers=((0, 0),), ps=((0, 1),))),),
            steps=1,
        )
        report = simulate_run(scenario)
        # wire accounting still counts the process-to-process payload
        assert report.jobs[0].bytes_on_wire_per_step == volumes_for(spec).total_bytes_per_step

    def test_single_machine_ralp_job(self):
        # all transfers ride the intra tier; payload accounting is unchanged
        model = catalog_lookup("lenet")
        cluster = small_cluster(machines=1, gpus_per_machine=4)
        spec = JobSpec(model=model, strategy=Strategy.ralp(4), worker_count=3, ps_count=1)
        placement = Placement(workers=((0, 0), (0, 1), (0, 2)), ps=((0, 3),))
        report = simulate_run(Scenario(cluster=cluster, jobs=(("j", spec, placement),), steps=1))
        assert report.jobs[0].bytes_on_wire_per_step == volumes_for(spec).total_bytes_per_step

    def test_ps_worker_serializes_batches(self):
        # With instantaneous transfers and memcopy, all activations arrive
        # together and the PS worker drains them strictly one at a time, so
        # every worker ends at fwd + W*back + bwd + agg and the wait for
        # the PS shows up as communication time.
        model = catalog_lookup("lenet")
        w = 3
        split = 4
        rate = 1e12
        cluster = small_cluster(
            machines=4,
            gpus_per_machine=1,
            gpu_flops_per_sec=rate,
            memcopy_bytes_per_sec=math.inf,
            link_bytes_per_sec=math.inf,
            intra_machine_bytes_per_sec=math.inf,
        )
        spec = JobSpec(model=model, strategy=Strategy.ralp(split), worker_count=w, ps_count=1)
        placement = Placement(workers=((0, 0), (1, 0), (2, 0)), ps=((3, 0),))
        (step,) = simulate_run(Scenario(cluster=cluster, jobs=(("j", spec, placement),), steps=1)).job("j").steps

        fwd = model.flops_prefix[split] * model.batch_size / rate
        back = 3 * (model.flops_prefix[-1] - model.flops_prefix[split]) \
            * model.batch_size / rate
        agg = model.total_param_count * w / rate
        expected = fwd + w * back + 2 * fwd + agg
        for worker in range(w):
            assert step.step_duration(worker) == pytest.approx(expected, rel=1e-12)
            assert step.communication[worker] == pytest.approx((w - 1) * back, rel=1e-9)

    def test_ps_worker_takes_batches_in_arrival_order(self):
        # Workers 0 and 2 share machine 0 with the PS, so their activations
        # arrive at once; worker 1's crosses the network and arrives while
        # worker 0's batch runs.  First come, first served puts worker 1's
        # batch last, and its network round trips then delay aggregation.
        model = catalog_lookup("lenet")
        split = 4
        rate = 1e12
        fwd = model.flops_prefix[split] * model.batch_size / rate
        back = 3 * (model.flops_prefix[-1] - model.flops_prefix[split]) \
            * model.batch_size / rate
        link = 4 * model.output_bytes[split - 1] / back
        cluster = small_cluster(
            machines=2,
            gpus_per_machine=3,
            gpu_flops_per_sec=rate,
            memcopy_bytes_per_sec=math.inf,
            link_bytes_per_sec=link,
            intra_machine_bytes_per_sec=math.inf,
        )
        spec = JobSpec(model=model, strategy=Strategy.ralp(split), worker_count=3, ps_count=1)
        placement = Placement(workers=((0, 0), (1, 0), (0, 2)), ps=((0, 1),))
        (step,) = simulate_run(Scenario(cluster=cluster, jobs=(("j", spec, placement),), steps=1)).job("j").steps

        act = model.output_bytes[split - 1] / link
        grad = model.cumulative_param_bytes[split - 1] / link
        agg = model.total_param_count * 3 / rate
        local_end = fwd + 3 * back + act + 2 * fwd + grad + agg
        assert step.step_durations == pytest.approx((local_end, local_end + grad, local_end),
                                                    rel=1e-12)

    def test_baseline_shards_whole_layers_round_robin(self):
        # PS shards hold whole weighted layers, assigned in order; with 8
        # shards, vgg11's dominant first fully connected layer lands with
        # conv1 on shard 0.
        from ralp.simulator import _shard_bytes

        model = catalog_lookup("vgg11")
        shard_bytes = _shard_bytes(model, 8)
        weighted = [l.param_count * 4 for l in model.layers if l.param_count > 0]
        assert len(weighted) == 11
        expected = [0] * 8
        for pos, nbytes in enumerate(weighted):
            expected[pos % 8] += nbytes
        assert shard_bytes == expected
        assert sum(shard_bytes) == model.total_param_bytes
        # the skew-dominant shard carries conv1 + fc1
        assert max(shard_bytes) == weighted[0] + weighted[8]


class TestDeterminismAndInvariants:
    def test_identical_runs_are_bit_identical(self):
        rng = np.random.default_rng(123)
        scenario = random_scenario(rng, steps=2)
        assert simulate_run(scenario) == simulate_run(scenario)
        assert simulate_run(scenario).to_json() == simulate_run(scenario).to_json()

    def test_finished_network_flows_complete_after_tasks_due_at_the_same_instant(self):
        # With equal link and intra rates, inter- and intra-machine transfers
        # finish at the same instants.  The event loop completes a finished
        # network flow after the tasks due at that instant, and in the order
        # they started among the flows finishing together.
        # Completing them inline, before those tasks, changes the order in
        # which work reaches the PSs, and with it these floats.
        model = catalog_lookup("vgg11")
        strategy = Strategy.ralp(13)
        cluster = small_cluster(machines=2, gpus_per_machine=4, gpu_flops_per_sec=2e12,
                                link_bytes_per_sec=3e9, intra_machine_bytes_per_sec=3e9)
        jobs = (
            ("a", JobSpec(model=model, strategy=strategy, worker_count=1, ps_count=1),
             Placement(workers=((0, 0),), ps=((1, 0),))),
            ("b", JobSpec(model=model, strategy=strategy, worker_count=2, ps_count=1),
             Placement(workers=((0, 1), (1, 1)), ps=((0, 2),))),
        )
        report = simulate_run(Scenario(cluster=cluster, jobs=jobs, steps=1))
        assert [job.steps[0].communication for job in report.jobs] == [
            (0.02978634684666681,),
            (0.053524010334666805, 0.053524010334666805),
        ]

    def test_network_flows_finishing_together_complete_in_the_order_they_started(self):
        # With equal link and intra rates, four activations (two per job)
        # finish crossing the network at the same instant.  Completing them
        # in the order they started gives each PS its lower-numbered
        # worker's batch first; the reverse order serves the other batch
        # first, which moves the activation-gradient flows against job b's
        # traffic and changes job a's floats.
        model = catalog_lookup("vgg11")
        strategy = Strategy.ralp(13)
        cluster = dataclasses.replace(DEFAULT_CLUSTER, machines=3, gpus_per_machine=4,
                                      link_bytes_per_sec=DEFAULT_CLUSTER.intra_machine_bytes_per_sec)
        jobs = (
            ("a", JobSpec(model=model, strategy=strategy, worker_count=2, ps_count=1),
             Placement(workers=((0, 0), (1, 0)), ps=((2, 0),))),
            ("b", JobSpec(model=model, strategy=strategy, worker_count=3, ps_count=1),
             Placement(workers=((0, 1), (1, 1), (2, 1)), ps=((0, 2),))),
        )
        report = simulate_run(Scenario(cluster=cluster, jobs=jobs, steps=1))
        assert [job.steps[0].communication for job in report.jobs] == [
            (0.008440239872000044, 0.008440239872000044),
            (0.013222095743999962, 0.013798375744000002, 0.013798375744000002),
        ]

    def test_flows_of_one_round_ending_together_after_rounding_finish_at_once(self, monkeypatch):
        # One worker pushes shards of P and P + 1 elements to two PSs over
        # its uplink, so both pushes run in one round at one rate; then
        # both pulls share its downlink the same way.  The two flows' bytes
        # differ as floats, and so do their bytes over the rate, yet at a
        # clock near 7e7 s they end at one instant.  The loop must finish
        # both in one iteration, with one solve for their departure.
        p = 2**56 + 8
        model = ModelGraph(name="p", batch_size=1, layers=(
            make_layer(1, LayerKind.FULLY_CONNECTED, p, 1),
            make_layer(2, LayerKind.FULLY_CONNECTED, p + 1, 1)))
        cluster = dataclasses.replace(DEFAULT_CLUSTER, machines=3, gpus_per_machine=1,
                                      link_bytes_per_sec=1e12)
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=1, ps_count=2)
        placement = Placement(workers=((0, 0),), ps=((1, 0), (2, 0)))
        solve = simulator.fairshare.FairShare.solve
        remove = simulator.fairshare.FairShare.remove
        solves, departures = [], []

        def counted(share):
            solves.append(None)
            solve(share)

        def recorded(share, flow):
            departures.append((flow.job.env.now, len(solves), flow.rate, flow.nbytes))
            remove(share, flow)

        monkeypatch.setattr(simulator.fairshare.FairShare, "solve", counted)
        monkeypatch.setattr(simulator.fairshare.FairShare, "remove", recorded)
        simulate_run(Scenario(cluster=cluster, jobs=(("j", spec, placement),)))
        assert len(departures) == 4 and len(solves) == 2
        for (t, solved, rate, nbytes), (t2, solved2, rate2, nbytes2) in (departures[:2],
                                                                         departures[2:]):
            assert (nbytes, nbytes2) == (4 * p, 4 * (p + 1))
            assert float(nbytes) / rate != float(nbytes2) / rate
            assert (t, solved, rate) == (t2, solved2, rate2)

    def test_different_jobs_flows_may_finish_in_any_order(self, monkeypatch):
        # Only a job's own PS sees the order in which an instant's
        # work completes, so interleaving the jobs' flows at random, each
        # job's flows kept in the order they started, moves no float.
        rng = np.random.default_rng(11)
        scenarios = []
        for _ in range(100):
            scenario = random_scenario(rng, steps=int(rng.integers(1, 4)))
            for variant in link_variants(scenario.cluster):
                scenarios.append(dataclasses.replace(scenario, cluster=variant))
        expected = [simulate_run(scenario).to_json() for scenario in scenarios]

        add = simulator.fairshare.FairShare.add

        def interleave(share, flow, links):
            # Deal the flows in flight their start numbers again.
            add(share, flow, links)
            started = sorted(share.flows, key=lambda f: f.seq)
            by_job = {}
            for f in started:
                by_job.setdefault(f.job, []).append(f)
            turns = [job for job, job_flows in by_job.items() for _ in job_flows]
            rng.shuffle(turns)
            queues = {job: iter(job_flows) for job, job_flows in by_job.items()}
            seqs = [f.seq for f in started]
            for job, seq in zip(turns, seqs):
                next(queues[job]).seq = seq

        monkeypatch.setattr(simulator.fairshare.FairShare, "add", interleave)
        assert [simulate_run(scenario).to_json() for scenario in scenarios] == expected

    def test_category_sums_define_step_durations(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            scenario = random_scenario(rng)
            for step in (job.steps[0] for job in simulate_run(scenario).jobs):
                for w in range(len(step.worker_computation)):
                    total = (
                        step.worker_computation[w]
                        + step.ps_computation[w]
                        + step.memcopy[w]
                        + step.communication[w]
                    )
                    assert total == step.step_duration(w)

    def test_buckets_that_exceed_the_span_raise(self, monkeypatch):
        # With every transfer on one machine, communication is shorter than
        # a memcopy, so charging each memcopy twice leaves a negative
        # residual that the clamp at zero would hide.
        delay = simulator._JobRun._delay

        def charge_memcopy_twice(run, after, amount, rate, bucket=None, worker=None, **kw):
            task = delay(run, after, amount, rate, bucket, worker, **kw)
            if bucket is run.memcopy_acc:
                bucket[worker] += task.seconds
            return task

        monkeypatch.setattr(simulator._JobRun, "_delay", charge_memcopy_twice)
        scenario = one_job_scenario(catalog_lookup("lenet"), Strategy.baseline(), 2, 1,
                                    cluster=small_cluster(machines=1, gpus_per_machine=3))
        with pytest.raises(RuntimeError, match=r"^job job step 1 worker 0: buckets exceed the "):
            simulate_run(scenario)

    def test_a_flow_stuck_at_rate_zero_is_an_engine_fault(self, monkeypatch):
        # Unlike a finish time past the float range, which is the scenario's.
        solve = simulator.fairshare.FairShare.solve

        def stall(share):
            solve(share)
            for flow in share.flows:
                flow.rate = 0.0

        monkeypatch.setattr(simulator.fairshare.FairShare, "solve", stall)
        scenario = one_job_scenario(catalog_lookup("lenet"), Strategy.baseline(), 2, 1)
        with pytest.raises(RuntimeError, match="^simulation deadlock: pending work cannot progress"):
            simulate_run(scenario)

    def test_a_flow_whose_bytes_do_not_add_up_names_its_job_and_machines(self, monkeypatch):
        # A flow whose remaining bytes run negative finishes before the
        # clock: the byte check catches it at once.
        solve = simulator.fairshare.FairShare.solve

        def overdeliver(share):
            solve(share)
            for flow in share.flows:
                flow.remaining = -float(flow.nbytes)

        monkeypatch.setattr(simulator.fairshare.FairShare, "solve", overdeliver)
        scenario = one_job_scenario(catalog_lookup("lenet"), Strategy.baseline(), 2, 1)
        with pytest.raises(RuntimeError, match=r"^job 'job': flow from machine 0 to 2 finished "
                                               r"with -\d+\.0 of \d+ bytes undelivered$"):
            simulate_run(scenario)

    def test_an_undelivered_flow_names_the_machines_it_ran_between(self, monkeypatch):
        # The kernel numbers only the machines in use, in order of first
        # use; the message names the machines of the cluster.
        solve = simulator.fairshare.FairShare.solve

        def overdeliver(share):
            solve(share)
            for flow in share.flows:
                flow.remaining = -float(flow.nbytes)

        monkeypatch.setattr(simulator.fairshare.FairShare, "solve", overdeliver)
        spec = JobSpec(model=catalog_lookup("lenet"), strategy=Strategy.baseline(),
                       worker_count=2, ps_count=1)
        placement = Placement(workers=((999_999, 0), (7, 1)), ps=((42, 0),))
        scenario = Scenario(cluster=small_cluster(machines=10**6),
                            jobs=(("job", spec, placement),))
        with pytest.raises(RuntimeError, match=r"^job 'job': flow from machine 999999 to 42 "):
            simulate_run(scenario)

    def test_max_at_least_avg(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            for step in (job.steps[0] for job in simulate_run(random_scenario(rng)).jobs):
                assert step.max_step_time >= step.avg_step_time

    def test_wire_bytes_match_cost_model(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            scenario = random_scenario(rng, steps=2)
            report = simulate_run(scenario)
            for name, spec, _ in scenario.jobs:
                assert report.job(name).bytes_on_wire_per_step == \
                    volumes_for(spec).total_bytes_per_step

    def test_flow_shorter_than_the_clock_resolution_delivers_its_bytes(self):
        # 1e30 B/s moves a layer's gradients in far less than one ulp of the
        # step clock, so such a flow ends at the instant it starts.
        spec = JobSpec(model=catalog_lookup("lenet"), strategy=Strategy.baseline(),
                       worker_count=2, ps_count=1)
        report = simulate_run(one_job_scenario(spec.model, spec.strategy, 2, 1,
                                               cluster=small_cluster(link_bytes_per_sec=1e30)))
        assert report.job("job").bytes_on_wire_per_step == volumes_for(spec).total_bytes_per_step

    def test_wire_bytes_independent_of_step_count(self):
        rng = np.random.default_rng(8)
        scenario = random_scenario(rng, steps=3)
        three = simulate_run(scenario)
        one = simulate_run(dataclasses.replace(scenario, steps=1))
        for name, _, _ in scenario.jobs:
            assert three.job(name).bytes_on_wire_per_step == one.job(name).bytes_on_wire_per_step

    def test_slower_links_never_speed_up_any_job(self):
        rng = np.random.default_rng(404)
        for _ in range(15):
            scenario = random_scenario(rng)
            fast = simulate_run(scenario)
            slow_cluster = dataclasses.replace(
                scenario.cluster,
                link_bytes_per_sec=scenario.cluster.link_bytes_per_sec / 4,
            )
            slow = simulate_run(dataclasses.replace(scenario, cluster=slow_cluster))
            for name, _, _ in scenario.jobs:
                assert slow.job(name).avg_step_time >= fast.job(name).avg_step_time * (1 - 1e-12)

    def test_ralp_beats_baseline_under_skew(self):
        # back segment holds most parameters and the cut activation is small
        rng = np.random.default_rng(90)
        checked = 0
        for _ in range(20):
            model = fc_tail_model(rng)
            split = model.num_layers - 2
            back_params = model.total_param_count - (
                model.cumulative_param_bytes[split - 1] // model.bytes_per_element
            )
            if back_params * model.bytes_per_element <= model.total_param_bytes / 2:
                continue
            if model.output_bytes[split - 1] >= back_params * model.bytes_per_element:
                continue
            cluster = small_cluster()
            workers = 3
            placement = spread_placement(cluster, [(workers, 1)])[0]
            base_spec = JobSpec(model=model, strategy=Strategy.baseline(),
                                worker_count=workers, ps_count=1)
            ralp_spec = JobSpec(model=model, strategy=Strategy.ralp(split),
                                worker_count=workers, ps_count=1)
            base = simulate_run(Scenario(cluster=cluster, jobs=(("b", base_spec, placement),)))
            ralp = simulate_run(Scenario(cluster=cluster, jobs=(("r", ralp_spec, placement),)))
            assert ralp.job("r").avg_step_time <= base.job("b").avg_step_time * (1 + 1e-9)
            checked += 1
        assert checked >= 10

    def test_images_per_sec_identity(self):
        rng = np.random.default_rng(55)
        scenario = random_scenario(rng, steps=2)
        report = simulate_run(scenario)
        for job in report.jobs:
            assert job.images_per_sec == pytest.approx(
                job.worker_count * job.batch_size / job.avg_step_time
            )


class TestConsolidation:
    def _lenet_scenario(self, cluster=None):
        model = catalog_lookup("lenet")
        cluster = cluster or DEFAULT_CLUSTER
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=3, ps_count=1)
        placement = spread_placement(cluster, [(3, 1)])[0]
        return Scenario(cluster=cluster, jobs=(("lenet", spec, placement),), steps=2)

    def test_single_copy_slowdown_is_exactly_one(self):
        report = simulate_consolidation(self._lenet_scenario(), copies=1)
        assert report.entries[0].slowdown == 1.0

    def test_fully_link_bound_jobs_slow_down_by_copy_count(self):
        # k single-worker jobs all pushing through the same pair of links
        rng = np.random.default_rng(17)
        model = fc_tail_model(rng, front_layers=1, back_layers=2)
        k = 4
        cluster = small_cluster(machines=2, gpus_per_machine=2 * k,
                                gpu_flops_per_sec=1e18, memcopy_bytes_per_sec=1e18)
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=1, ps_count=1)
        jobs = tuple(
            (f"j{i}", spec, Placement(workers=((0, 2 * i),), ps=((1, 2 * i + 1),)))
            for i in range(k)
        )
        consolidated = simulate_run(Scenario(cluster=cluster, jobs=jobs, steps=1))
        alone = simulate_run(Scenario(cluster=cluster, jobs=jobs[:1], steps=1))
        slowdown = consolidated.job("j0").avg_step_time / alone.job("j0").avg_step_time
        assert slowdown == pytest.approx(k, rel=1e-6)

    def test_eight_way_consolidation_slows_comm_bound_jobs(self):
        report = simulate_consolidation(self._lenet_scenario(), copies=8)
        assert len(report.entries) == 8
        assert min(e.slowdown for e in report.entries) > 2.0

    def test_copies_with_one_placement_shape_share_an_isolated_run(self, monkeypatch):
        # Spread placement puts every replica of each lenet copy on its own
        # machine, so one isolated run serves all four copies.
        runs = []
        real_run = simulator.simulate_run
        monkeypatch.setattr(simulator, "simulate_run", lambda s: runs.append(s) or real_run(s))
        report = simulate_consolidation(self._lenet_scenario(), copies=4)
        assert len(runs) == 2  # the consolidated run and one isolated run
        job = runs[0].jobs[3]
        assert job[0] == "lenet/3"
        alone = real_run(Scenario(cluster=DEFAULT_CLUSTER, jobs=(job,), steps=2))
        assert report.isolated[3].to_json() == alone.to_json()

    def test_copies_must_fit(self):
        cluster = small_cluster(machines=2, gpus_per_machine=2)
        model = catalog_lookup("lenet")
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=3, ps_count=1)
        placement = spread_placement(cluster, [(3, 1)])[0]
        scenario = Scenario(cluster=cluster, jobs=(("j", spec, placement),), steps=1)
        with pytest.raises(CapacityError):
            simulate_consolidation(scenario, copies=2)


class TestZeroTimeSteps:
    """A job whose steps take no time has no throughput: the run names it
    instead of handing back a report whose images/s divides by zero.  The
    scenario parser rejects such jobs at their line; these scenarios are
    built in code."""

    @staticmethod
    def _scenario(model, cluster):
        cluster = dataclasses.replace(cluster, machines=2, gpus_per_machine=2)
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=2, ps_count=1)
        placement = spread_placement(cluster, [(2, 1)])[0]
        return Scenario(cluster=cluster, jobs=(("free", spec, placement),), steps=1)

    CAUSES = {
        "no-work model": lambda: (parse_model("model p batch=2 input=8x8x4\np1 pool window=2\n"),
                                  DEFAULT_CLUSTER),
        "infinite rates": lambda: (catalog_lookup("lenet"), dataclasses.replace(
            DEFAULT_CLUSTER, gpu_flops_per_sec=math.inf, memcopy_bytes_per_sec=math.inf,
            link_bytes_per_sec=math.inf, intra_machine_bytes_per_sec=math.inf)),
    }

    @pytest.mark.parametrize("cause", CAUSES)
    @pytest.mark.parametrize("run", [simulate_run, lambda s: simulate_consolidation(s, 1)],
                             ids=["simulate_run", "simulate_consolidation"])
    def test_job_whose_steps_take_no_time_is_named(self, cause, run):
        scenario = self._scenario(*self.CAUSES[cause]())
        with pytest.raises(ScenarioError, match="^job 'free': its steps take no time"):
            run(scenario)


def spread_by_sorting(cluster, replica_counts, taken=()):
    """``spread_placement``'s rule as it reads: for each replica, sort every
    machine by (load, index) and take the first free slot."""
    used = [0] * cluster.machines
    occupied = set(taken)
    for machine, _ in occupied:
        used[machine] += 1
    next_gpu = [0] * cluster.machines

    def claim():
        for m in sorted(range(cluster.machines), key=lambda m: (used[m], m)):
            while next_gpu[m] < cluster.gpus_per_machine:
                slot = (m, next_gpu[m])
                next_gpu[m] += 1
                if slot not in occupied:
                    occupied.add(slot)
                    used[m] += 1
                    return slot
        raise CapacityError("cluster is full")

    return [Placement(workers=tuple(claim() for _ in range(w)), ps=tuple(claim() for _ in range(p)))
            for w, p in replica_counts]


class TestPlacementAndScenarios:
    def test_spread_matches_a_sort_of_every_machine_per_replica(self):
        rng = np.random.default_rng(12)
        outcomes = {"placed": 0, "full": 0}
        for _ in range(400):
            cluster = small_cluster(machines=int(rng.integers(1, 10)),
                                    gpus_per_machine=int(rng.integers(1, 5)))
            full = set(rng.choice(cluster.machines, size=int(rng.integers(0, cluster.machines)),
                                  replace=False).tolist())
            taken = [(m, g) for m in range(cluster.machines) for g in range(cluster.gpus_per_machine)
                     if m in full or rng.random() < 0.3]
            counts = [(int(rng.integers(0, 6)), int(rng.integers(0, 3)))
                      for _ in range(int(rng.integers(1, 4)))]
            try:
                want = spread_by_sorting(cluster, counts, taken)
            except CapacityError:
                with pytest.raises(CapacityError, match="^cluster is full"):
                    spread_placement(cluster, counts, taken)
                outcomes["full"] += 1
            else:
                assert spread_placement(cluster, counts, taken) == want
                outcomes["placed"] += 1
        assert min(outcomes.values()) > 100

    def test_a_huge_cluster_runs_like_the_machines_its_jobs_use(self, monkeypatch):
        # The kernel has links only for the machines the placements use, so
        # a million machines cost what four do and give the same bytes.
        sizes = []
        init = simulator.fairshare.FairShare.__init__

        def sized(share, capacity):
            sizes.append(len(capacity))
            init(share, capacity)

        monkeypatch.setattr(simulator.fairshare.FairShare, "__init__", sized)
        scenario = parse_scenario("cluster machines=4 gpus=2\n"
                                  "job a model=lenet strategy=ring workers=3\n"
                                  "job b model=lenet strategy=baseline workers=2 ps=1\n"
                                  "steps 2\n", catalog_lookup)
        huge = dataclasses.replace(scenario, cluster=dataclasses.replace(scenario.cluster,
                                                                         machines=10**6))
        assert simulate_run(huge).to_json() == simulate_run(scenario).to_json()
        assert sizes == [8, 8]

    def test_spread_prefers_distinct_machines(self):
        cluster = small_cluster(machines=4, gpus_per_machine=2)
        (placement,) = spread_placement(cluster, [(4, 0)])
        assert sorted(m for m, _ in placement.workers) == [0, 1, 2, 3]

    def test_spread_respects_taken_slots(self):
        cluster = small_cluster(machines=2, gpus_per_machine=2)
        (placement,) = spread_placement(cluster, [(2, 0)], taken=[(0, 0), (1, 0)])
        assert set(placement.workers) == {(0, 1), (1, 1)}

    def test_double_booking_rejected(self):
        cluster = small_cluster()
        model = catalog_lookup("lenet")
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=2, ps_count=1)
        placement = Placement(workers=((0, 0), (0, 0)), ps=((1, 0),))
        with pytest.raises(CapacityError, match="double-booked"):
            Scenario(cluster=cluster, jobs=(("j", spec, placement),), steps=1)

    def test_slot_bounds_checked(self):
        cluster = small_cluster(machines=2, gpus_per_machine=1)
        model = catalog_lookup("lenet")
        spec = JobSpec(model=model, strategy=Strategy.baseline(), worker_count=1, ps_count=1)
        placement = Placement(workers=((5, 0),), ps=((0, 0),))
        with pytest.raises(CapacityError, match="machine"):
            Scenario(cluster=cluster, jobs=(("j", spec, placement),), steps=1)

    def test_parse_scenario_roundtrip(self):
        text = """
        # tiny scenario
        cluster machines=2 gpus=2 flops=1e12 memcopy=1e10 link=1e9 intra=1e11
        job a model=lenet strategy=baseline workers=2 ps=1
        steps 2
        """
        scenario = parse_scenario(text, catalog_lookup)
        assert scenario.steps == 2
        assert scenario.cluster == ClusterSpec(2, 2, 1e12, 1e10, 1e9, 1e11)
        name, spec, placement = scenario.jobs[0]
        assert name == "a"
        assert spec.worker_count == 2
        assert len(placement.workers) == 2

    def test_parse_scenario_explicit_placement(self):
        text = """
        cluster machines=2 gpus=2
        job a model=lenet strategy=baseline workers=1 ps=1
        place a worker 0 0 1
        place a ps 0 1 0
        """
        scenario = parse_scenario(text, catalog_lookup)
        _, _, placement = scenario.jobs[0]
        assert placement.workers == ((0, 1),)
        assert placement.ps == ((1, 0),)

    def test_parse_scenario_ralp_auto_split(self):
        text = "job v model=vgg11 strategy=ralp workers=2 ps=1 split=auto\n"
        scenario = parse_scenario(text, catalog_lookup)
        assert scenario.jobs[0][1].strategy.kind is StrategyKind.RALP
        assert scenario.jobs[0][1].strategy.split_index == 13

    def test_parse_scenario_rejects_unknown_strategy(self):
        with pytest.raises(ScenarioError, match="strategy"):
            parse_scenario("job a model=lenet strategy=magic workers=1\n", catalog_lookup)

    def test_parse_scenario_rejects_bad_steps(self):
        with pytest.raises(ScenarioError, match="steps"):
            parse_scenario(
                "job a model=lenet strategy=baseline workers=1\nsteps 0\n", catalog_lookup
            )

    def test_parse_scenario_batch_override(self):
        scenario = parse_scenario(
            "job a model=lenet strategy=baseline workers=1 batch=7\n", catalog_lookup
        )
        assert scenario.jobs[0][1].model.batch_size == 7

    def test_spreading_job_by_job_matches_one_spread_of_all_jobs(self):
        # Explicit slots of a later job are avoided by the spread jobs before it.
        text = ("cluster machines=4 gpus=3\n"
                "job a model=lenet strategy=baseline workers=3 ps=2\n"
                "job b model=lenet strategy=ring workers=2\n"
                "place b worker 0 0 0\nplace b worker 1 2 2\n"
                "job c model=lenet strategy=baseline workers=2 ps=1\n")
        scenario = parse_scenario(text, catalog_lookup)
        (a, _, got_a), _, (c, _, got_c) = scenario.jobs
        want_a, want_c = spread_placement(scenario.cluster, [(3, 2), (2, 1)],
                                          taken=[(0, 0), (2, 2)])
        assert (a, got_a, c, got_c) == ("a", want_a, "c", want_c)

    def test_multi_step_runs_accumulate_records(self):
        scenario = parse_scenario(
            "cluster machines=2 gpus=2\njob a model=lenet strategy=baseline workers=2 ps=1\nsteps 3\n",
            catalog_lookup,
        )
        report = simulate_run(scenario)
        assert len(report.jobs[0].steps) == 3
        first = report.jobs[0].steps[0]
        for step in report.jobs[0].steps[1:]:
            assert step.step_durations == first.step_durations


class TestStepGraphReuse:
    """Each job's step graph is built once per run and re-armed each step."""

    @staticmethod
    def scenario(steps):
        text = ("cluster machines=3 gpus=4\n"
                "job a model=lenet strategy=baseline workers=3 ps=2\n"
                "job b model=vgg11 strategy=ralp workers=2 ps=1\n"
                "job c model=alexnet strategy=ring workers=3\n"
                f"steps {steps}\n")
        return parse_scenario(text, catalog_lookup)

    def test_later_steps_build_no_tasks(self, monkeypatch):
        built = []

        class CountedTask(simulator._Task):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(None)

        monkeypatch.setattr(simulator, "_Task", CountedTask)
        counts = []
        for steps in (1, 3):
            built.clear()
            assert len(simulate_run(self.scenario(steps)).jobs[0].steps) == steps
            counts.append(len(built))
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_no_task_outlives_the_run(self):
        scenario = self.scenario(3)

        def live_tasks():
            return {id(o) for o in gc.get_objects() if isinstance(o, simulator._Task)}

        gc.collect()
        gc.disable()  # only reference counting may free the graphs
        try:
            before = live_tasks()
            simulate_run(scenario)
            after = live_tasks()
        finally:
            gc.enable()
        assert after <= before


class TestSolveCounts:
    """The event loop solves the fair-share kernel only when a flow
    started or finished since the last solve, and only with flows in
    flight.  A lone job simulates one step, whatever its step count."""

    @staticmethod
    def solves(monkeypatch, scenario):
        """The report of ``scenario`` and the number of solves it took."""
        solve = simulator.fairshare.FairShare.solve
        calls = []

        def counted(share):
            calls.append(None)
            solve(share)

        monkeypatch.setattr(simulator.fairshare.FairShare, "solve", counted)
        return simulate_run(scenario), len(calls)

    @pytest.mark.parametrize("name, solves", [("vgg11_16gpu_baseline", 32),
                                              ("vgg11_16gpu_ralp", 43)])
    def test_bundled_scenarios(self, monkeypatch, name, solves):
        text = (resources.files("ralp") / "scenarios" / f"{name}.scn").read_text()
        scenario = parse_scenario(text, catalog_lookup)
        assert scenario.steps == 3
        assert self.solves(monkeypatch, scenario)[1] == solves

    def test_a_lone_job_solves_one_step(self, monkeypatch):
        text = (resources.files("ralp") / "scenarios" / "vgg11_16gpu_ralp.scn").read_text()
        scenario = parse_scenario(text, catalog_lookup)
        counts = []
        for steps in (1, 3, 1000):
            report, solves = self.solves(monkeypatch, dataclasses.replace(scenario, steps=steps))
            counts.append(solves)
            (job,) = report.jobs
            assert [step["step"] for step in job.to_dict()["steps"]] == list(range(1, steps + 1))
            for step in job.steps:
                assert step is job.steps[0]
        assert counts[0] > 0
        assert counts == [counts[0]] * 3

    def test_a_lone_job_keeps_one_record(self):
        # 10**5 steps hold 10**5 references to one record: about 1.6 MB for
        # the list and the tuple of the report, where a record per step
        # took 17 MB.
        scenario = parse_scenario("job j model=lenet strategy=ring workers=2\n", catalog_lookup)
        tracemalloc.start()
        try:
            report = simulate_run(dataclasses.replace(scenario, steps=10**5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (job,) = report.jobs
        assert len(job.steps) == 10**5
        assert len({id(step) for step in job.steps}) == 1
        assert peak < 4 << 20

    def test_copies_of_one_shape_share_their_isolated_steps(self):
        # On 4x6 machines the three copies of each job land in one
        # placement shape, so they share one isolated run and its steps.
        scenario = parse_scenario("cluster machines=4 gpus=6\nsteps 3\n"
                                  "job b model=lenet strategy=baseline workers=3 ps=2\n"
                                  "job r model=lenet strategy=ring workers=2\n", catalog_lookup)
        report = simulate_consolidation(scenario, 3)
        jobs = [alone.jobs[0] for alone in report.isolated]
        assert [job.job for job in jobs] == ["b/0", "r/0", "b/1", "r/1", "b/2", "r/2"]
        assert [len(job.steps) for job in jobs] == [3] * 6
        assert jobs[0].steps != jobs[1].steps
        for i, copy in enumerate(jobs[2:], 2):
            assert copy.steps is jobs[i % 2].steps

    def test_two_jobs_solve_every_step(self, monkeypatch):
        text = ("job a model=vgg11 strategy=ralp workers=4 ps=1\n"
                "job b model=alexnet strategy=baseline workers=4 ps=2\n")
        scenario = parse_scenario(text, catalog_lookup)
        counts = [self.solves(monkeypatch, dataclasses.replace(scenario, steps=steps))[1]
                  for steps in (1, 3)]
        assert counts[1] > counts[0] > 0


def _report_bytes(report) -> bytes:
    return report.to_json().encode()


def _consolidation_bytes(report) -> bytes:
    parts = [report.consolidated.to_json()]
    parts += [alone.to_json() for alone in report.isolated]
    parts += [f"{e.job} {e.isolated_step_time!r} {e.consolidated_step_time!r}" for e in report.entries]
    return "\n".join(parts).encode()


class TestEngineDigest:
    """sha256 digests of whole reports.  They were recorded before the
    fair-share kernel kept state across events and before consolidation
    reused isolated runs, and re-recorded when a lone job began to repeat
    its one simulated step (its later steps then lost a last-ulp clock
    rounding).  Any float that moves in any report changes them."""

    def test_random_scenarios(self):
        rng = np.random.default_rng(0xD16E57)
        digest = hashlib.sha256()
        for _ in range(200):
            scenario = random_scenario(rng, steps=int(rng.integers(1, 4)))
            for variant in link_variants(scenario.cluster):
                run = simulate_run(dataclasses.replace(scenario, cluster=variant))
                digest.update(_report_bytes(run))
        assert digest.hexdigest() == "e6a09e1a6dea26a1a916ec3a7cc4e25b1b36ce7008482d975705d5617bfb9920"

    def test_consolidations(self):
        # 64x8 machines: every replica of a copy on its own machine.  3x8
        # machines: replicas of one copy share machines, and co-located
        # transfers ride the intra-machine tier.
        jobs = (
            ("b", JobSpec(model=catalog_lookup("alexnet"), strategy=Strategy.baseline(),
                          worker_count=6, ps_count=3)),
            ("r", JobSpec(model=catalog_lookup("vgg11"), strategy=Strategy.ralp(13),
                          worker_count=4, ps_count=1)),
            ("g", JobSpec(model=catalog_lookup("lenet"), strategy=Strategy.ring(),
                          worker_count=3, ps_count=0)),
        )
        digest = hashlib.sha256()
        for machines, base, copy_counts in ((64, jobs, range(2, 9)), (3, jobs[1:], (2, 3))):
            cluster = dataclasses.replace(DEFAULT_CLUSTER, machines=machines, gpus_per_machine=8)
            placements = spread_placement(cluster, [(s.worker_count, s.ps_count) for _, s in base])
            scenario = Scenario(cluster=cluster, steps=2, jobs=tuple(
                (name, spec, placement) for (name, spec), placement in zip(base, placements)))
            for copies in copy_counts:
                digest.update(_consolidation_bytes(simulate_consolidation(scenario, copies)))
        assert digest.hexdigest() == "c82ca29457a1b25660b4f61b218724dfbb277981149633dbec762dc82f4a7d79"


def _link_bytes(scenario: Scenario) -> list[int]:
    """Bytes on each directed link in one step (uplinks 0..M-1, then
    downlinks M..2M-1), from the placements and the documented rules
    rather than from the engine's tasks.  A transfer within one machine
    uses no link."""
    machines = scenario.cluster.machines
    load = [0] * (2 * machines)

    def send(src, dst, nbytes):
        if src != dst:
            load[src] += nbytes
            load[machines + dst] += nbytes

    def both_ways(a, b, nbytes):
        send(a, b, nbytes)
        send(b, a, nbytes)

    for _, spec, placement in scenario.jobs:
        model, w = spec.model, spec.worker_count
        workers = [m for m, _ in placement.workers]
        ps = [m for m, _ in placement.ps]
        kind = spec.strategy.kind
        if kind is StrategyKind.BASELINE_PS:
            # Whole weighted layers round-robin over the PS shards; each
            # worker pushes each shard's gradients and pulls its parameters.
            shards = [0] * len(ps)
            for pos, nbytes in enumerate(b for b in model.param_bytes if b):
                shards[pos % len(ps)] += nbytes
            for me in workers:
                for server, nbytes in zip(ps, shards):
                    both_ways(me, server, nbytes)
        elif kind is StrategyKind.RALP:
            # The cut activation out and its gradient back, then the front
            # segment's gradients out and its parameters back.
            split = spec.strategy.split_index
            nbytes = model.output_bytes[split - 1] + model.cumulative_param_bytes[split - 1]
            for me in workers:
                both_ways(me, ps[0], nbytes)
        else:
            # Worker i sends its share of 2 S (W - 1) bytes to worker i + 1.
            base, extra = divmod(2 * model.total_param_bytes * (w - 1), w)
            for i, me in enumerate(workers):
                send(me, workers[(i + 1) % w], base + (i < extra))
    return load


class TestPhysicalBounds:
    """Bounds that hold whatever the engine's schedule, so they need no
    recorded report and no second engine."""

    def test_a_step_lasts_at_least_its_busiest_links_bytes(self):
        # The TestEngineDigest generator's scenarios, each run for one
        # step, at its own link rate and at the intra-machine rate.  No
        # link carries more than its capacity, so the run's span is at
        # least the busiest link's bytes over the link rate.  Some run
        # comes within 4% of the bound, so it is not vacuous.
        rng = np.random.default_rng(0xD16E57)
        tightest = 0.0
        for _ in range(200):
            scenario = random_scenario(rng, steps=int(rng.integers(1, 4)))
            for cluster in link_variants(scenario.cluster)[:2]:
                one = dataclasses.replace(scenario, cluster=cluster, steps=1)
                span = max(job.avg_step_time for job in simulate_run(one).jobs)
                bound = max(_link_bytes(one)) / cluster.link_bytes_per_sec
                assert span >= bound, one
                tightest = max(tightest, bound / span)
        assert tightest > 0.96


@functools.lru_cache(maxsize=None)
def _metamorphic_draws() -> tuple:
    """300 random scenarios of 1-3 steps, 100 from each of seeds 0-2."""
    draws = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        draws += [random_scenario(rng, steps=int(rng.integers(1, 4))) for _ in range(100)]
    return tuple(draws)


def _relabelled(placement: Placement, perm) -> Placement:
    return Placement(workers=tuple((perm[m], g) for m, g in placement.workers),
                     ps=tuple((perm[m], g) for m, g in placement.ps))


class TestMetamorphic:
    """Relations between runs that need no recorded report, each exact
    bit for bit.  Multiplying a float by a power of two is exact away from
    overflow and subnormals, so every comparison keeps its outcome; links
    have one capacity, so no rate depends on a machine's label; and work
    that ends together completes in the order it started, so no job's
    report depends on where it stands in the scenario."""

    BUCKETS = ("worker_computation", "ps_computation", "memcopy", "communication")

    @pytest.mark.parametrize("k", [2.0 ** 30, 2.0 ** -20], ids=["2**30", "2**-20"])
    def test_rate_scaling_divides_every_bucket(self, k):
        for scenario in _metamorphic_draws():
            c = scenario.cluster
            scaled = dataclasses.replace(
                c, gpu_flops_per_sec=c.gpu_flops_per_sec * k,
                memcopy_bytes_per_sec=c.memcopy_bytes_per_sec * k,
                link_bytes_per_sec=c.link_bytes_per_sec * k,
                intra_machine_bytes_per_sec=c.intra_machine_bytes_per_sec * k)
            want = simulate_run(scenario)
            got = simulate_run(dataclasses.replace(scenario, cluster=scaled))
            for want_job, got_job in zip(want.jobs, got.jobs, strict=True):
                assert got_job.bytes_on_wire_per_step == want_job.bytes_on_wire_per_step
                for want_step, got_step in zip(want_job.steps, got_job.steps, strict=True):
                    for bucket in self.BUCKETS:
                        assert getattr(got_step, bucket) == tuple(
                            x / k for x in getattr(want_step, bucket)), (scenario, bucket)

    def test_machine_relabelling_changes_no_report(self):
        rng = np.random.default_rng(1)
        for scenario in _metamorphic_draws():
            perm = rng.permutation(scenario.cluster.machines).tolist()
            jobs = tuple((name, spec, _relabelled(placement, perm))
                         for name, spec, placement in scenario.jobs)
            got = simulate_run(dataclasses.replace(scenario, jobs=jobs))
            assert _report_bytes(got) == _report_bytes(simulate_run(scenario)), scenario

    def test_reversed_job_order_changes_no_report(self):
        multi = [s for s in _metamorphic_draws() if len(s.jobs) > 1]
        assert len(multi) > 50
        for scenario in multi:
            got = simulate_run(dataclasses.replace(scenario, jobs=scenario.jobs[::-1]))
            reordered = simulator.SimReport(jobs=got.jobs[::-1])
            assert _report_bytes(reordered) == _report_bytes(simulate_run(scenario)), scenario

    def test_consolidation_through_a_relabelling(self):
        # On 4x6 machines the three copies of a job land on different
        # machines in one shape, a PS sharing a worker's machine, so the
        # later copies reuse the first one's isolated run.  Each reused
        # report is what its copy makes alone on its own machines, further
        # relabelled; the consolidated run is unchanged by one relabelling
        # of every placement.
        cluster = dataclasses.replace(small_cluster(), machines=4, gpus_per_machine=6)
        base = (("b", JobSpec(model=catalog_lookup("lenet"), strategy=Strategy.baseline(),
                              worker_count=3, ps_count=2)),
                ("r", JobSpec(model=catalog_lookup("vgg11"), strategy=Strategy.ralp(13),
                              worker_count=2, ps_count=1)))
        placements = spread_placement(cluster, [(s.worker_count, s.ps_count) for _, s in base])
        scenario = Scenario(cluster=cluster, steps=2, jobs=tuple(
            (name, spec, placement) for (name, spec), placement in zip(base, placements)))
        report = simulate_consolidation(scenario, 3)

        specs = [spec for _ in range(3) for _, spec in base]
        jobs = tuple(zip((e.job for e in report.entries), specs, spread_placement(
            cluster, [(s.worker_count, s.ps_count) for s in specs])))
        assert len({p for _, _, p in jobs}) == 6
        assert len({simulator._placement_shape(p) for _, _, p in jobs}) == 2
        rng = np.random.default_rng(2)
        for job, alone in zip(jobs, report.isolated, strict=True):
            perm = rng.permutation(cluster.machines).tolist()
            name, spec, placement = job
            relabelled = Scenario(cluster=cluster, steps=2,
                                  jobs=((name, spec, _relabelled(placement, perm)),))
            assert _report_bytes(simulate_run(relabelled)) == _report_bytes(alone), name
        perm = rng.permutation(cluster.machines).tolist()
        consolidated = Scenario(cluster=cluster, steps=2, jobs=tuple(
            (name, spec, _relabelled(placement, perm)) for name, spec, placement in jobs))
        assert _report_bytes(simulate_run(consolidated)) == _report_bytes(report.consolidated)


# Per catalog model on DEFAULT_CLUSTER, one step, spread placement: the
# planner's split, the best simulated split that find_split allows (ties
# to the smaller index), and img/s at the planner's split and at the best
# one (15 workers + 1 PS), and for the 8 + 8 baseline.
_SPLIT_SWEEP = {
    "alexnet": (8, 8, 9723.480265264203, 9723.480265264203, 2846.1001609361892),
    "googlenet": (18, 49, 1325.29675133818, 1731.9640244049308, 2436.6947194501727),
    "inception-v3": (7, 97, 275.856791241838, 347.5206507531958, 834.4684122137986),
    "lenet": (4, 4, 57353.996694087386, 57353.996694087386, 5265.680689283605),
    "overfeat": (4, 4, 547.3818505347498, 547.3818505347498, 74.21169986524919),
    "resnet-50": (2, 55, 312.41544998379334, 623.039271927843, 1436.706313854347),
    "vgg11": (13, 13, 1020.3784531386383, 1020.3784531386383, 149.01681647108825),
    "vgg19": (11, 21, 142.63263454626536, 449.90730763316856, 125.6116958147945),
}


class TestPlannerAgainstSimulator:
    """The planner minimises bytes on the network (O_i + sum of P), not
    step time, and the simulator shows where the two part.  vgg19's
    planner split, 11, sends fewer bytes than split 21, but leaves most of
    the flops on the PS: the PS runs the back segment once per worker
    batch, 0.406 s each, and runs the 15 batches one after another, about
    6.1 s of a 6.73 s step.  So split 21 is 3.15x faster.  For googlenet,
    inception-v3 and resnet-50, which pass the default gate, even the best
    split gives fewer img/s than the 8 + 8 baseline on the same 16 GPUs.
    Every allowed split of every model runs the PS's back batches."""

    @staticmethod
    def run(model, strategy, workers, ps):
        """The job's report, alone on DEFAULT_CLUSTER for one step."""
        spec = JobSpec(model=model, strategy=strategy, worker_count=workers, ps_count=ps)
        (placement,) = spread_placement(DEFAULT_CLUSTER, [(workers, ps)])
        scenario = Scenario(cluster=DEFAULT_CLUSTER, jobs=(("j", spec, placement),))
        (job,) = simulate_run(scenario).jobs
        return job

    @staticmethod
    def allowed_splits(model):
        """find_split's candidates, less the degenerate last layer: no
        boundary between two compute-demand layers."""
        compute = [kind in COMPUTE_DEMAND_KINDS for kind in model.columns[1]]
        return [i for i in range(1, model.num_layers) if not (compute[i - 1] and compute[i])]

    @pytest.mark.parametrize("name", sorted(_SPLIT_SWEEP))
    def test_planner_and_best_simulated_split(self, name):
        model = catalog_lookup(name)
        rates = {i: self.run(model, Strategy.ralp(i), 15, 1).images_per_sec
                 for i in self.allowed_splits(model)}
        planner = profile(model).split_index
        best = max(rates, key=lambda i: (rates[i], -i))
        baseline = self.run(model, Strategy.baseline(), 8, 8).images_per_sec
        assert (planner, best, rates[planner], rates[best], baseline) == _SPLIT_SWEEP[name]

    def test_vgg19_planner_split_waits_on_its_ps(self):
        model = catalog_lookup("vgg19")
        back = compute_load(model, 11, worker_count=1)[1] / DEFAULT_CLUSTER.gpu_flops_per_sec
        job = self.run(model, Strategy.ralp(11), 15, 1)
        assert (round(back, 3), round(15 * back, 1), round(job.avg_step_time, 2)) == (0.405, 6.1, 6.73)
