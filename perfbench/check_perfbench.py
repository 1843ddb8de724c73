"""The benchmark's own tests.

Run from the root of a checkout (the file name keeps the repository's
default ``pytest`` run from collecting it)::

    PYTHONPATH=src:. python3 -m pytest perfbench/check_perfbench.py -q

They check that a planted wrong output counts as a failure, that the
workload generators give identical inputs for one seed, and that the
per-layer self times of a traced run add up to its measured wall time.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import time

import numpy as np
import pytest

from perfbench import batch, calibrate, common, lattice_scale, paper, run, service, variability

common.scrub_own_env()


@pytest.fixture(scope="module")
def reference():
    return common.load_reference()


# ---------------------------------------------------------------------- #
# planted wrong outputs
# ---------------------------------------------------------------------- #


class _Fig11Like:
    """Just enough of a ``Fig11Result`` for :func:`paper.check_harness`."""

    def __init__(self, samples, text):
        self.samples = samples
        self._text = text

    def report(self):
        return self._text


def test_paper_checks_pass_on_real_outputs_and_catch_planted_ones(reference):
    from repro.experiments import run_fig3, run_fig11, run_table1

    table1 = run_table1()
    assert paper.check_harness("run_table1", table1, reference["paper"]) == []
    wrong = copy.deepcopy(table1)
    key = next(iter(wrong.computed))
    wrong.computed[key] += 1
    assert paper.check_harness("run_table1", wrong, reference["paper"])

    fig3 = run_fig3()
    assert paper.check_harness("run_fig3", fig3, reference["paper"]) == []
    label = next(iter(fig3.lattices))
    broken = copy.deepcopy(fig3)
    for cell in list(broken.lattices[label].cells()):
        broken.lattices[label][cell] = True  # conducts for every input
    assert paper.check_harness("run_fig3", broken, reference["paper"])

    fig11 = run_fig11()
    assert paper.check_harness("run_fig11", fig11, reference["paper"]) == []
    assignment, voltage, expect_high, ok = fig11.samples[0]
    flipped = [(assignment, 1.2 - voltage, expect_high, ok)] + list(fig11.samples[1:])
    planted = _Fig11Like(flipped, fig11.report())
    assert paper.check_harness("run_fig11", planted, reference["paper"])


def test_report_numbers_allow_one_unit_in_the_last_digit():
    want = common.report_numbers("0.234 V, 11.3 ns, 12 rows")
    assert common.compare_numbers("x", common.report_numbers("0.235 V, 11.3 ns, 12 rows"), want) == []
    assert common.compare_numbers("x", common.report_numbers("0.237 V, 11.3 ns, 12 rows"), want)
    assert common.compare_numbers("x", common.report_numbers("0.234 V, 11.3 ns"), want)


class _FakeResult:
    def __init__(self, kind, arrays, converged=True, circuit="c"):
        self.kind = kind
        self.arrays = arrays
        self.converged = converged
        self.meta = {"circuit": circuit}
        self.scalars = {}


def test_variability_check_catches_a_shifted_metric(reference):
    ref = reference["variability"]
    arrays = {"converged": np.ones(variability.TRIALS, dtype=bool)}
    rng = np.random.default_rng(0)
    for key, (mean, std) in ref["metrics"].items():
        arrays[key] = rng.normal(mean, std, variability.TRIALS)
    good = _FakeResult("montecarlo", arrays)
    assert variability.check_unit([good], ref) == []
    key = next(iter(ref["metrics"]))
    shifted = dict(arrays, **{key: arrays[key] * 1.05})
    assert variability.check_unit([_FakeResult("montecarlo", shifted)], ref)
    unconverged = dict(arrays, converged=np.zeros(variability.TRIALS, dtype=bool))
    assert variability.check_unit([_FakeResult("montecarlo", unconverged)], ref)


def test_lattice_check_catches_a_wrong_solution(reference):
    ref = reference["lattice_scale"]
    name = "dcop:scalability_12x12"
    solution = np.array(ref["solutions"][name])
    good = _FakeResult("dcop", {"solution": solution}, circuit="scalability_12x12")
    assert lattice_scale.check_unit([good], ref) == []
    off = _FakeResult("dcop", {"solution": solution + 1e-3}, circuit="scalability_12x12")
    assert lattice_scale.check_unit([off], ref)
    stuck = _FakeResult("dcop", {"solution": solution}, converged=False, circuit="scalability_12x12")
    assert lattice_scale.check_unit([stuck], ref)


def test_service_check_catches_a_result_that_differs_from_session_run():
    from repro.api import Session

    plan = service.make_plan(3)
    spec = plan.prefill[0]
    payload = Session(store=None).run(spec).to_jsonable()
    references = {}
    assert service.check_fetched(spec, payload, references) is None
    planted = json.loads(json.dumps(payload))
    planted["arrays"]["solution"]["data"][-1] += 1e-12
    assert service.check_fetched(spec, planted, references)


def test_a_failed_operation_makes_the_result_line_incorrect(monkeypatch):
    outcome = {
        "attempted": 10,
        "failed": 1,
        "failures": ["planted"],
        "end_to_end": {name: 1.0 for name in {**run.END_TO_END, **run.TREND}},
        "notes": {},
        "counters": {},
        "layer": {},
        "self_times": {},
        "spans": [],
    }
    monkeypatch.setattr(run, "run_workload", lambda *args: outcome)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run.main(["--workload", "paper", "--seed", "1", "--seconds", "1"])
    last = json.loads(printed.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (10, 1)
    assert set(last["metrics"]) == set(run.END_TO_END)


def _process(digests, counters):
    """A batch process's payload, as ``batch.summarize`` reads it."""
    return {
        "unit_s": 1.0, "work_s": 1.1, "warm_s": [0.01], "attempted": 2, "failed": 0, "failures": [],
        "layer_times": {}, "counters": counters, "digests": digests,
        "store": {"front": {"gets": 1, "hits": 0}, "back": {"hits": 1, "misses": 0}},
        "import_s": 0.5, "model_extract_s": 0.3, "peak_rss_mb": 90.0,
        "self_times": {}, "spans": [],
    }


def test_batch_catches_a_process_whose_results_or_counters_differ():
    same = [(0, 0.8, _process(["a"], {"n": 1})), (1, 0.8, _process(["a"], {"n": 1}))]
    setups = [(0, 0.8, 0.9)] * 3
    assert batch.summarize(same, setups)["failed"] == 0
    for planted in (_process(["b"], {"n": 1}), _process(["a"], {"n": 2})):
        outcome = batch.summarize(same + [(0, 0.8, planted)], setups)
        assert outcome["failed"] == 1 and outcome["failures"]


# ---------------------------------------------------------------------- #
# generators
# ---------------------------------------------------------------------- #


def test_generators_give_identical_inputs_for_one_seed():
    from repro.api import spec_hash

    assert service.plan_wire(service.make_plan(7)) == service.plan_wire(service.make_plan(7))
    assert service.plan_wire(service.make_plan(7)) != service.plan_wire(service.make_plan(8))
    assert paper.pass_orders(7, 5) == paper.pass_orders(7, 5)
    for module in (variability, lattice_scale):
        first = [spec_hash(s) for s in module.unit_specs(7)]
        assert first == [spec_hash(s) for s in module.unit_specs(7)]


def test_service_plan_keeps_the_mix_and_outgrows_the_memory_front():
    plan = service.make_plan(5)
    roles = [segment.role for segment in plan.segments]
    assert roles == ["reference", "capacity"] * service.REF_SEGMENTS
    for segment in plan.segments:
        count = len(segment.items)
        kinds = [item.kind for item in segment.items]
        for kind, share in service.SHARES:
            assert kinds.count(kind) == round(share * count)
        # Poisson gaps scaled to span count/rate; the last gap follows the
        # last request
        span = 0.0 if segment.role == "capacity" else count / segment.rate
        assert 0.7 * span <= segment.items[-1].due_s <= span
    # every repeat names a spec some earlier request introduced
    seen = {repr(s) for s in plan.prefill}
    for segment in plan.segments:
        for item in segment.items:
            if item.kind.startswith("warm"):
                assert repr(item.spec) in seen
            elif item.spec is not None:
                seen.add(repr(item.spec))
    # the run outgrows the 256-entry memory front
    distinct = {repr(s) for s in plan.prefill} | {
        repr(i.spec) for s in plan.segments for i in s.items if i.kind.startswith("cold")
    }
    assert len(distinct) > 256


# ---------------------------------------------------------------------- #
# calibration
# ---------------------------------------------------------------------- #


def test_calibrator_measures_only_while_running_and_is_reaped():
    core = common.cores()[0]
    with calibrate.Calibrator(core, common.child_env()) as calibrator:
        paused = len(calibrator.samples)
        time.sleep(0.2)
        assert len(calibrator.samples) - paused <= 1  # stopped at start-up
        start = time.perf_counter()
        with calibrator.running():
            time.sleep(0.3)
        end = time.perf_counter()
        assert len(calibrator.samples) - paused >= calibrate.MIN_CHUNKS
        assert 0.05 < calibrator.speed(start, end) < 20.0
        # work_s scales the CPU time by the speed of its window
        assert calibrator.work_s(2.0, (start, end)) == pytest.approx(
            2.0 * calibrator.speed(start, end)
        )
        with pytest.raises(RuntimeError):
            calibrator.rate(end + 10.0, end + 20.0)  # no chunks in that window
        process = calibrator._process
    assert process.poll() is not None


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #


def test_self_times_partition_the_root_span():
    tracer = common.Tracer(True)
    start = time.perf_counter()
    with tracer.span("root"):
        with tracer.span("a"):
            time.sleep(0.01)
            with tracer.span("b"):
                time.sleep(0.01)
        time.sleep(0.005)
    wall = time.perf_counter() - start
    totals = tracer.self_times()
    assert set(totals) == {"root", "a", "b"}
    assert sum(totals.values()) == pytest.approx(wall, rel=0.02)
    assert totals["b"] == pytest.approx(0.01, abs=0.005)


def test_traced_pass_self_times_add_up_to_its_wall_time(tmp_path):
    order = ["run_table2", "run_fig3", "run_fig9"]
    setup_s, payload = common.run_child(
        "perfbench.paper", {"order": order, "trace": True}, cwd=str(tmp_path), budget_s=60
    )
    (root,) = [s for s in payload["spans"] if s["parent"] is None]
    wall = root["end"] - root["start"]
    assert sum(payload["self_times"].values()) == pytest.approx(wall, rel=1e-6)
    harness_self = sum(payload["self_times"][paper.HARNESSES[name]] for name in order)
    harness_wall = sum(payload["cold"].values()) + sum(payload["warm"].values())
    assert harness_self == pytest.approx(harness_wall, rel=0.01, abs=1e-4)
    assert payload["model_extract_s"] + harness_wall < wall < setup_s + harness_wall + 1.0
