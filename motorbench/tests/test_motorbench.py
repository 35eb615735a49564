"""The benchmark's own tests: inputs, catalogue, span arithmetic, sampler
parsing, and one short end-to-end and traced run."""

from __future__ import annotations

import json
import os

import pytest

import inputs as wl
import layers
import mains
import run
import sampler
from spans import CALLS, SELF_VIRT, SELF_WALL, TOTAL_WALL, SpanStack, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- seed determinism ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(layers.WORKLOADS))
def test_same_seed_same_inputs(workload):
    a, b = wl.make_inputs(workload, 7), wl.make_inputs(workload, 7)
    assert wl.digest(a) == wl.digest(b)
    assert a == b


@pytest.mark.parametrize("workload", sorted(layers.WORKLOADS))
def test_other_seed_other_inputs(workload):
    assert wl.digest(wl.make_inputs(workload, 1)) != wl.digest(wl.make_inputs(workload, 2))


def test_buffer_schedule_alternates_variants():
    inp = wl.buffer_inputs(3)
    for size in {s for s, _v in inp.schedule}:
        variants = [v for s, v in inp.schedule if s == size]
        assert variants == [i % 2 for i in range(len(variants))]
        assert inp.ping[size][0] != inp.ping[size][1]
    eager, rndv = 128 << 10, [s for s in inp.ping if s > 128 << 10]
    assert len(rndv) == 1 and all(s <= eager for s in inp.ping if s not in rndv)


def test_buffer_variants_alternate_from_warmup_through_passes():
    """No op receives the variant the previous op of its size left behind."""
    inp = wl.buffer_inputs(3)
    ops = inp.warmup() + inp.schedule + inp.schedule
    for size in inp.ping:
        variants = [v for s, v in ops if s == size]
        assert all(a != b for a, b in zip(variants, variants[1:]))


def test_list_ladder_passes_the_knee():
    inp = wl.list_inputs(5)
    assert max(2 * e for _f, e in inp.schedule) > 2048
    assert {f for f, _e in inp.schedule} == set(wl.LIST_FLAVOURS)


def test_list_segments_keep_order_and_cap_elements():
    schedule = wl.list_inputs(5).schedule
    segments = mains.list_segments(schedule)
    assert [op for seg in segments for op in seg] == list(schedule)
    for seg in segments:
        assert len(seg) == 1 or sum(e for _f, e in seg) <= mains.SEGMENT_ELEMENTS


def test_distributed_stencil_matches_reference():
    """Two tiles exchanging halos step for step equal the global reference."""
    inp = wl.HaloInputs(
        rows=3, cols=5, iterations=4,
        tiles=tuple(tuple(range(k * 100, k * 100 + 25)) for k in range(2)),
    )
    tiles = [[list(t[r * 5:(r + 1) * 5]) for r in range(1, 4)] for t in inp.tiles]
    for _ in range(inp.iterations):
        tiles = [
            wl.stencil_rows(tiles[(k - 1) % 2][-1], tiles[k], tiles[(k + 1) % 2][0], 5)
            for k in range(2)
        ]
    assert tiles == wl.reference_interiors(inp)


# -- metric names and BENCHMARK.json ----------------------------------------------------


def test_catalogue_is_valid():
    assert layers.validate_catalogue() == []


def test_validate_catalogue_rejects_bad_names(monkeypatch):
    monkeypatch.setattr(layers, "PER_LAYER", layers.PER_LAYER + (("_bad name", "1/op", "lower", ""),))
    assert any("bad name" in p for p in layers.validate_catalogue())


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == layers.benchmark_json()


def test_setup_s_has_the_largest_bound():
    bounds = {n: b for n, _u, _b, b in layers.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


# -- span self-time arithmetic -----------------------------------------------------------


def test_self_time_of_a_nested_span_tree():
    """motor[0,100) > mpi[10,90) > {progress[20,50), progress[60,80) > chan[65,70)}."""
    st = SpanStack()
    st.enter("motor", 0, 0)
    st.enter("mpi", 10, 1)
    st.enter("progress", 20, 2)
    st.exit(50, 5)
    st.enter("progress", 60, 6)
    st.enter("chan", 65, 6)
    st.exit(70, 7)
    st.exit(80, 9)
    st.exit(90, 10)
    st.exit(100, 12)
    t = st.totals
    assert t["motor"][SELF_WALL] == 100 - 80
    assert t["mpi"][SELF_WALL] == 80 - (30 + 20)
    assert t["progress"][CALLS] == 2
    assert t["progress"][SELF_WALL] == 30 + (20 - 5)
    assert t["chan"][SELF_WALL] == 5
    assert t["motor"][SELF_VIRT] == 12 - 9
    assert t["progress"][SELF_VIRT] == 3 + (3 - 1)
    # self times partition the root span
    assert sum(a[SELF_WALL] for a in t.values()) == t["motor"][TOTAL_WALL]
    assert not st.open


def test_tracer_records_only_while_on():
    class Clock:
        def __init__(self):
            self.t = 0.0

        def now(self):
            self.t += 1.0
            return self.t

    tracer = Tracer()
    clock = Clock()
    f = tracer.wrap("layer", lambda x: x * 2, clock)
    assert f(2) == 4
    assert tracer.totals() == {}
    tracer.recording(True)
    assert f(3) == 6
    tracer.recording(False)
    calls, _wall, virt, _tw, _tv = tracer.totals()["layer"]
    assert (calls, virt) == (1, 1.0)


# -- sampler -----------------------------------------------------------------------------


def test_parse_dump_and_package_of():
    src = os.sep.join(["", "x", "src", "repro", "mp", "progress.py"])
    app = os.path.join(sampler._HERE, "inputs.py")
    text = (
        "Thread 0x00000000000000ff (most recent call first):\n"
        f'  File "{src}", line 340 in wait\n'
        f'  File "{app}", line 10 in run\n'
        "\n"
        "Current thread 0x0000000000000001 (most recent call first):\n"
        '  File "/usr/lib/python3.11/threading.py", line 1 in run\n'
    )
    stacks = sampler.parse_dump(text)
    assert stacks[0xFF] == [(src, 340), (app, 10)]
    assert sampler.package_of(src) == "mp"
    assert sampler.package_of(app) == "workloads"
    assert sampler.package_of(os.path.join(sampler._HERE, "run.py")) == "motorbench"
    assert sampler.package_of("/usr/lib/python3.11/threading.py") is None


def test_sampler_charges_innermost_known_frame():
    s = sampler.Sampler(probe=None)
    src = os.sep.join(["", "x", "src", "repro", "runtime", "heap.py"])
    s.record([("/usr/lib/python3.11/random.py", 3), (src, 1)])
    shares = s.shares()
    assert shares["sample.runtime.share"] == 1.0
    assert shares["sample.spin_sleep_share"] == 0.0


# -- short runs through the real program ----------------------------------------------------


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_end_to_end_run_prints_every_metric(capsys):
    code = run.main(["--workload", "halo-rma", "--seed", "1", "--seconds", "0.3", "--trace", "0"])
    out = _last_json(capsys)
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert [(n, m["unit"]) for n, m in out["metrics"].items()] == [
        (n, u) for n, u, _b, _bound in layers.END_TO_END
    ]
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_object_pingpong_costs_in_reference_loops(capsys):
    code = run.main(["--workload", "object-pingpong", "--seed", "1", "--seconds", "0.2",
                     "--trace", "0"])
    out = _last_json(capsys)
    assert code == 0 and out["correct"]
    # a pass costs far more reference loops than its cheapest op
    m = {n: v["value"] for n, v in out["metrics"].items()}
    assert m["wall_ref"] > m["op_wall_ref_p90"] > m["op_wall_ref_p50"] > 0


def test_traced_run_prints_every_layer_metric(capsys):
    code = run.main(["--workload", "buffer-pingpong", "--seed", "2", "--seconds", "0.6",
                     "--trace", "1"])
    out = _last_json(capsys)
    assert code == 0 and out["correct"]
    assert list(out["metrics"]) == [n for n, _u, _b, _m in layers.PER_LAYER]
    m = {n: v["value"] for n, v in out["metrics"].items()}
    assert m["invariant.trace_unperturbed_ok"] == 1
    assert m["invariant.virtual_repeatable_ok"] == 1
    assert m["mp.reliability.retransmits"] == 0
    assert m["mp.ch3.rndv"] > 0 and m["motor.calls"] > 0


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
