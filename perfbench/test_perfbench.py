"""Self-tests of the benchmark's helpers (no workload is run).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import loads  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_percentiles_need_ten_samples_beyond():
    assert measure.percentiles(range(19)) == {}
    assert measure.percentiles(range(20)) == {"p50": 9}
    assert measure.percentiles(range(1, 100)).keys() == {"p50"}
    got = measure.percentiles(range(1, 101))
    assert got == {"p50": 50, "p90": 90}
    assert measure.percentiles(range(1, 1001))["p99"] == 990
    assert measure.percentiles([]) == {}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    out = loads.Outcome(setups=[1.0, 2.0, 3.0],
                        passes=[(2.0, 1.5, 100), (4.0, 3.0, 100)],
                        peak_mb=300.0)
    values = out.e2e()
    declared = BENCH["end_to_end"]
    assert set(values) == {m["name"] for m in declared}
    emitted = run.emit(values, declared)
    for m in declared:
        assert emitted[m["name"]]["unit"] == m["unit"]
        assert emitted[m["name"]]["value"] > 0
    assert emitted["setup_s"]["value"] == 2.0
    assert emitted["trials_per_s"]["value"] == 200 / 6.0
    assert emitted["cpu_ms_per_trial"]["value"] == 22.5
    assert emitted["peak_rss_mb"]["value"] == 300.0


def _service_layer_names(tmp_path) -> set[str]:
    """Run the service layer builder on one hit and one fresh request."""
    rows = [
        ["service.api.submit", 0.0, 0.001, 0.001, "t1", "hit"],
        ["service.store.get_document", 0.0, 0.002, 0.002, "t1", "hit"],
        ["service.api.submit", 0.0, 0.5, 0.5, "t2", "fresh"],
    ]
    trace = tmp_path / "spans.json"
    trace.write_text(json.dumps(rows))
    window = SimpleNamespace(refs={"hit": None}, hit_ms=[5.0] * 20,
                             hit_sent_ms=[4.0] * 20, exec_ms=[], late_ms=[])
    stats = {"daemon": dict.fromkeys(
                 ("queue_wait_s", "run_wall_s", "executed", "cache_hits"), 0),
             "queue": {"coalesced": 0, "rejected": 0}}
    layers = loads._service_layers(SimpleNamespace(launch_s=1.0), window,
                                   window, stats, stats, trace)
    # The gap subtracts the hit request's own server time only.
    assert layers["service.http_gap_ms.p50"] == 4.0 - 1.0 - 2.0
    return set(layers)


def test_every_per_layer_metric_is_computed_somewhere(tmp_path):
    computed = (
        set(loads.span_layers([], 1)) | set(loads.exec_layers([], 1))
        | set(loads.cache_layers({}, 1)) | set(loads.overhead([1.0], [1.0]))
        | set(loads.study_layers(
            {"first_dispatch": [0.0], "spawns": 0, "resume": 0.0}, 1, 1.0))
        | _service_layer_names(tmp_path)
        | set(run.run_layers({"machine.cpu_scaling": 1.0}, loads.Outcome()))
    )
    declared = BENCH["per_layer"]
    assert {m["name"] for m in declared} == computed
    emitted = run.emit({"fastpath.kernel_s": 1.25}, declared)
    assert list(emitted) == [m["name"] for m in declared]
    assert emitted["fastpath.kernel_s"] == {"value": 1.25, "unit": "s"}
    assert all(isinstance(v["value"], float) for v in emitted.values())


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in BENCH["workloads"]] == list(loads.WORKLOADS)


def test_seed_changes_inputs_but_not_sizes():
    a, b = loads.e10_options(1), loads.e10_options(2)
    assert a["seed"] != b["seed"]
    assert {**a, "seed": 0} == {**b, "seed": 0}
    assert loads.e10_trials(a) == loads.e10_trials(b)

    sa, sb = loads.make_study(1), loads.make_study(2)
    ca, cb = sa.cells(), sb.cells()
    assert [c.assignment for c in ca] == [c.assignment for c in cb]
    assert all(x.options.seed != y.options.seed for x, y in zip(ca, cb))
    assert all(x.key != y.key for x, y in zip(ca, cb))
    assert loads.study_trials(sa) == loads.study_trials(sb) > 0

    def strip(cells):
        return [(name, {**opts, "seed": 0}) for name, opts in cells]

    ha, hb = loads.hit_cells(1, 0), loads.hit_cells(2, 0)
    assert strip(ha) == strip(hb)
    assert {o["seed"] for _, o in ha}.isdisjoint(o["seed"] for _, o in hb)
    assert len({o["seed"] for _, o in ha + loads.hit_cells(1, 1)}) \
        == 2 * loads.HIT_CELLS
    ea = [loads.exec_cell(1, i) for i in range(4)]
    eb = [loads.exec_cell(2, i) for i in range(4)]
    assert strip(ea) == strip(eb)
    assert [o["seed"] for _, o in ea] != [o["seed"] for _, o in eb]


def test_e7_oracle_flags_only_gains_beyond_the_widened_interval():
    from repro.results import ExperimentResult, ResultSection
    from repro.util.tables import Table

    table = Table(headers=["strategy", "t", "gain (chi=1)", "gain CI +/-",
                           "profitable?"])
    table.add_row("silent", 4, 0.04, 0.0389, True)   # chance at 95%
    table.add_row("forged", 4, 0.30, 0.05, True)     # a real gain
    result = ExperimentResult(
        experiment="e7", title="", claim="", options={}, options_type="",
        sections=(ResultSection.from_table(table),),
        meta=None,
    )
    problems = loads.e7_problems(result)
    assert len(problems) == 1 and "forged" in problems[0]
