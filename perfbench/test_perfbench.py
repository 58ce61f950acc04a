"""Tests of the benchmark itself: metric names, trace coverage, and that
tracing leaves ivit exactly as it found it.

Run from the repository root with ``python -m pytest perfbench``. The
workloads run here on 64 images instead of 512 to keep the tests short.
"""

from __future__ import annotations

import gzip
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every ivit module and class, by identity."""
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname != "ivit" and not modname.startswith("ivit."):
            continue
        for name, value in vars(mod).items():
            out[(modname, name)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    out[(f"{modname}.{name}", attr)] = member
    return out


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A traced set-up, then one untraced and one traced call of each workload, on 64 images."""
    from ivit import checkpoint, gradcheck  # noqa: F401  (installing imports them)

    mp = pytest.MonkeyPatch()
    mp.setattr(workloads, "N_IMAGES", 64)
    results = {"bindings_before": _bindings()}
    try:
        for name, wl in workloads.WORKLOADS.items():
            tracer = tracing.Tracer()
            tracer.install()
            try:
                state = wl.setup(1, str(tmp_path_factory.mktemp(name)))
            finally:
                tracer.uninstall()
            if name.startswith("eval"):
                tracer.labels = workloads.image_labels(state)
            wl.prepare(state)
            plain = wl.call(state)
            tracer.call = 1
            wl.prepare(state)
            tracer.install()
            try:
                traced = wl.call(state)
            finally:
                tracer.uninstall()
            problems = wl.check(state, traced)
            results[name] = (plain, traced, problems, tracer, state)
    finally:
        mp.undo()
    results["bindings_after"] = _bindings()
    return results


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [name for name, *_ in layers.METRICS]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(name for name, *_ in layers.METRICS)) == len(layers.METRICS)


def test_benchmark_json_lists_the_layer_table():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, *_ in layers.METRICS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for _, _, _, workload, _ in layers.METRICS:
        assert workload == "*" or workload in workloads.WORKLOADS


def test_install_and_uninstall_restore_every_binding():
    from ivit import checkpoint, gradcheck  # noqa: F401  (installing imports them)

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every binding site of a wrapped function is patched, not only its home module
        import ivit
        from ivit import trainer

        assert ivit.evaluate is not before[("ivit", "evaluate")]
        assert trainer.select is not before[("ivit.trainer", "select")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_return_what_untraced_calls_return(small):
    for name in workloads.WORKLOADS:
        plain, traced, problems, _, _ = small[name]
        assert problems == [], name
        assert traced == plain, name


def test_originals_are_back_after_traced_calls(small):
    before, after = small["bindings_before"], small["bindings_after"]
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    from ivit.backbone import Linear

    for name in ("eval_plain", "eval_select"):
        assert type(small[name][4]["model"].head) is Linear


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_listed_metric_is_seen_on_its_workload(small, workload):
    tracer = small[workload][3]
    values = tracing.layer_metrics(tracer.totals(n_calls=1), overhead_ratio=1.0)
    assert set(values) == {name for name, *_ in layers.METRICS}
    missing = [name for name, _, _, wl, _ in layers.METRICS
               if wl in (workload, "*") and not values[name] > 0]
    assert missing == []


def test_eval_select_counts_are_exact(small):
    values = tracing.layer_metrics(small["eval_select"][3].totals(n_calls=1), overhead_ratio=1.0)
    assert values["model.forward_calls"] == 64
    assert values["model.images_per_forward"] == 1
    assert values["selection.select_calls"] == 64
    assert values["tensor.graph_nodes_used"] == 0
    assert 0.0 <= values["selection.recall_at_k"] <= 1.0


def test_spans_nest_and_self_time_is_not_negative(small, tmp_path):
    tracer = small["train_smoke"][3]
    spans = tracer.spans()
    for sid, _, start, end, parent, _, thread, _ in spans:
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert p[6] == thread and p[2] <= start and end <= p[3]
    assert all(row[3] >= -1e-9 for row in tracer.totals(n_calls=1).values())
    path = tmp_path / "spans.json.gz"
    tracer.write(str(path), {"workload": "train_smoke"})
    with gzip.open(path, "rt", encoding="utf-8") as f:
        doc = json.load(f)
    assert len(doc["spans"]) == len(spans)
