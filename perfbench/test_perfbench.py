"""Tests of the benchmark itself: item sets, proofs, cache hygiene, the
tracer, and the format of the command's output.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repst import deligne, exact, snoracle  # noqa: E402
from repst.exact import ExactPolynomial, T  # noqa: E402

MODULES = tracing.load_modules()
CACHES = tracing.discover_caches(MODULES)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "central": lambda: workloads.frobenius_items(3, snoracle.cycle_types_with_support_up_to(3)),
    "columns": lambda: workloads.frobenius_items(4, workloads.COLUMN_CLASSES),
    "sweep": lambda: [item for item in workloads.sweep_items() if item.key in {
        "dim-jm:2,1", "pieri:2,1", "stirling:2", "bound-sweep:6", "graded:1", "verify:graded"}],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_item_set_is_fixed_and_large_enough(name):
    keys = [item.key for item in workloads.WORKLOADS[name]()]
    assert keys == [item.key for item in workloads.WORKLOADS[name]()]
    assert len(set(keys)) == len(keys) >= 100


def test_seed_fixes_the_orders_and_the_rank():
    first, again, other = (workloads.Schedule(seed) for seed in (1, 1, 2))
    orders = [[s.order(50) for _ in range(3)] for s in (first, again, other)]
    assert orders[0] == orders[1] and first.t == again.t
    assert orders[0] != orders[2] and first.t != other.t
    assert orders[0][0] != orders[0][1]
    assert all(sorted(order) == list(range(50)) for row in orders for order in row)
    assert first.t.denominator != 1


def test_item_counts():
    assert len(workloads.WORKLOADS["central"]()) == 209
    assert len(workloads.WORKLOADS["columns"]()) == 135


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_plain_and_traced_passes_agree_and_prove(name):
    items, schedule = TINY[name](), workloads.Schedule(5)
    plain = run.run_passes(items, schedule, 0, CACHES)
    tracer = tracing.Tracer()
    tracer.install(MODULES, layers.TARGETS)
    try:
        traced = run.run_passes(items, schedule, 0, CACHES, tracer)
    finally:
        tracer.uninstall()
    assert traced.results == plain.results
    checks = run.check_outputs(items, plain.results, schedule.t)
    assert checks and [label for label, ok in checks if not ok] == []
    metrics = run.per_layer(tracer, plain, traced, [0.05])
    assert list(metrics) == list(layers.PER_LAYER)
    assert (metrics["deligne.frobenius_coefficient.calls"][0] == 0) == (name == "sweep")
    spans = tracer.passes[0]
    if name == "sweep":
        # bounds binds hook_dim by `from .snoracle import`
        assert spans["snoracle.hook_dim"][0] > 0 and spans["verify.graded"][0] == 1
    else:
        # deligne binds convolve_coefficient by `from .exact import`
        assert spans["exact.convolve_coefficient"][0] > 0
        assert spans["exact.poly_mul"][0] > 0
    assert not hasattr(vars(ExactPolynomial)["__mul__"], "__wrapped__")
    assert hasattr(deligne.frobenius_coefficient, "cache_info")


def _perturbed(original):
    bump = 3 * (T - 8) * (T - 9) * (T - 10)

    def frobenius_coefficient(lam, rho, variables=None):
        poly = original(lam, rho, variables)
        return poly + bump if lam == (4,) else poly

    return frobenius_coefficient


def test_perturbed_frobenius_raises_the_fail_ratio(monkeypatch):
    monkeypatch.setattr(deligne, "frobenius_coefficient", _perturbed(deligne.frobenius_coefficient))
    items, schedule = workloads.frobenius_items(4, [(), (1,)]), workloads.Schedule(0)
    passes = run.run_passes(items, schedule, 0, CACHES)
    failed = [label for label, ok in run.check_outputs(items, passes.results, schedule.t)
              if not ok]
    assert failed and all(label.startswith("lambda=4;") for label in failed)


def test_oracle_check_reaches_past_the_ranks_where_the_bump_vanishes():
    """Ranks n <= 10 alone cannot tell the perturbation apart; deg + 1 ranks can."""
    (item,) = [i for i in workloads.frobenius_items(4, [(1,)]) if i.key == "lambda=4;rho=1"]
    frob, omega, cert = item.compute()
    bumped = frob + 3 * (T - 8) * (T - 9) * (T - 10)
    failed = {label for label, ok in item.check((bumped, omega, cert), Fraction(7, 3)) if not ok}
    assert {"character@11", "character@12"} <= failed
    assert not failed & {"character@8", "character@9", "character@10"}
    assert not [label for label, ok in item.check((frob, omega, cert), Fraction(7, 3)) if not ok]


def test_discovery_finds_every_cache_and_new_ones(monkeypatch):
    assert set(layers.KNOWN_CACHES) <= set(CACHES)

    @lru_cache(maxsize=None)
    def added(n):
        return n

    tracer = tracing.Tracer()
    monkeypatch.setattr(exact, "added_later", tracer.wrap("exact.added_later", added), raising=False)
    found = tracing.discover_caches(MODULES)
    assert found["test_perfbench.test_discovery_finds_every_cache_and_new_ones.<locals>.added"] \
        is added
    exact.added_later(3)
    assert added.cache_info().currsize == 1
    tracing.clear_caches(found)
    assert all(fn.cache_info().currsize == 0 for fn in found.values())


def test_clear_caches_refuses_a_cache_that_keeps_entries():
    class Sticky:
        def cache_clear(self):
            pass

        def cache_info(self):
            return SimpleNamespace(currsize=1)

    with pytest.raises(RuntimeError):
        tracing.clear_caches({"sticky": Sticky()})


def test_self_time_excludes_children_and_recursion_counts_once():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(2000))

    inner = tracer.wrap("inner", inner)

    def outer(k):
        return inner() + (outer(k - 1) if k else 0)

    outer = tracer.wrap("outer", outer)
    outer(3)
    tracer.end_pass()
    (totals,) = tracer.passes
    assert totals["inner"][0] == 4 and totals["outer"][0] == 4
    assert totals["outer"][2] + totals["inner"][2] == pytest.approx(totals["outer"][1])
    assert len(tracer.span_name) == 8 and tracer.span_parent[0] == -1
    assert tracer.span_parent[1] == 0


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    for metric in BENCHMARK["per_layer"]:
        assert (metric["unit"], metric["better"]) == layers.unit_and_direction(metric["name"])


def _command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_the_result_line(trace, kind):
    proc = _command("--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _command("--workload", "central", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
