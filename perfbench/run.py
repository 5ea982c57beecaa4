#!/usr/bin/env python3
"""Layered benchmark of the repst exact engine.

Run from the root of a source checkout (it imports the package from src/):

    python3 perfbench/run.py --workload central --seed 1 --seconds 20 --trace 0

One single-threaded process computes a workload's fixed item set through
repst's public API, one item at a time (a closed loop with one client), in
passes until --seconds of pass time have accumulated.  Every pass starts
with every repst functools cache empty, as each `repst` command does, and
runs the items in a fresh seeded order.  After the timed passes every
result is proved against the S_n oracle.

Times are scaled by a host-speed probe taken next to them (see hostspeed.py)
and an item's time is its median over the passes; pass_s is the sum over
the items.  The report keeps the plain wall seconds of each pass and cold
start as well.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time on
plain passes and half on passes with every layer wrapped, and prints the
per-layer metrics (span times there are wall seconds).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where attempted and failed count output checks (their ratio is
the fail ratio).  A fuller report, with provenance, the per-layer table and
the first failures, goes to .bench_out/, and the traced run's spans to
.bench_out/spans-<workload>.tsv.gz.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from hostspeed import Probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 20
PROBE_EVERY_S = 0.05

# a cold `repst dim --lambda 2 --json`, reporting its import time on stderr
COLD_START = """\
import sys, time
t0 = time.perf_counter()
from repst.cli import main
imported = time.perf_counter() - t0
code = main(["dim", "--lambda", "2", "--json"])
print(imported, file=sys.stderr)
sys.exit(code)
"""
# t(t-3)/2
COLD_START_EXPECTED = [Fraction(0), Fraction(-3, 2), Fraction(1, 2)]


@dataclass(frozen=True)
class Raised:
    """Stands in for the result of an item whose computation raised."""
    text: str


@dataclass
class Passes:
    """Per pass: wall seconds, and each item's scaled seconds and result,
    indexed like the item list whatever order the pass ran them in."""
    pass_s: list[float] = field(default_factory=list)
    scaled: list[list[float]] = field(default_factory=list)
    results: list = field(default_factory=list)
    repeats: list[tuple[str, bool]] = field(default_factory=list)
    cache_stats: list[dict] = field(default_factory=list)

    def item_seconds(self) -> list[float]:
        """Each item's scaled seconds, the median over the passes."""
        return [statistics.median(times) for times in zip(*self.scaled)]


def run_passes(items, schedule, seconds: float, caches, tracer=None, between=None) -> Passes:
    """Cold-cache passes over the items, each in the schedule's next order,
    until `seconds` of pass time have accumulated (at least one pass);
    `between` runs before each.  The first pass's results are kept; later
    passes must reproduce them exactly."""
    from tracing import cache_stats, clear_caches

    record = Passes()
    while not record.pass_s or sum(record.pass_s) < seconds:
        if between is not None:
            between()
        order = schedule.order(len(items))
        clear_caches(caches)
        gc.collect()
        results, spans = [None] * len(items), [None] * len(items)
        probes = Probes()
        probes.take()
        begin = perf_counter()
        for index in order:
            if tracer is not None:
                tracer.item = index
            if perf_counter() - probes.at[-1] >= PROBE_EVERY_S:
                probes.take()
            start = perf_counter()
            try:
                results[index] = items[index].compute()
            except Exception as err:  # a failed item is counted, never fatal
                results[index] = Raised(f"{type(err).__name__}: {err}")
            spans[index] = (start, perf_counter())
        record.pass_s.append(perf_counter() - begin)
        probes.take()
        record.scaled.append([(end - start) * probes.scale(start, end) for start, end in spans])
        record.cache_stats.append(cache_stats(caches))
        if tracer is not None:
            tracer.item = -1
            tracer.end_pass()
        if not record.results:
            record.results = results
        else:
            record.repeats += [(f"{item.key}: repeat", got == first)
                               for item, got, first in zip(items, results, record.results)]
    return record


def check_outputs(items, results, t: Fraction) -> list[tuple[str, bool]]:
    checks = []
    for item, result in zip(items, results):
        if isinstance(result, Raised):
            checks.append((f"{item.key}: raised {result.text}", False))
            continue
        try:
            checks += [(f"{item.key}: {label}", ok) for label, ok in item.check(result, t)]
        except Exception as err:  # a check that cannot run is a failed check
            checks.append((f"{item.key}: check raised {type(err).__name__}: {err}", False))
    return checks


class ColdStarts:
    """Cold `repst dim --lambda 2 --json` starts in fresh interpreters: wall
    and scaled seconds, scaled in-process import seconds, and whether each
    printed the right answer.  Sampled two at a time between passes, so
    that they spread over the run, then topped up to SETUP_STARTS."""

    def __init__(self):
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.imports: list[float] = []
        self.checks: list[tuple[str, bool]] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._env = env
        # the first start writes the bytecode cache, which an installed package ships with
        self._start()

    def _start(self):
        return subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT, env=self._env,
                              capture_output=True, text=True, timeout=60)

    def sample(self, count: int = 2) -> None:
        for _ in range(min(count, SETUP_STARTS - len(self.walls))):
            probes = Probes()
            probes.take()
            start = perf_counter()
            proc = self._start()
            end = perf_counter()
            probes.take()
            scale = probes.scale(start, end)
            self.walls.append(end - start)
            self.scaled.append((end - start) * scale)
            try:
                self.imports.append(float(proc.stderr.split()[-1]) * scale)
                coeffs = json.loads(proc.stdout)["dimension"]["coeffs"]
                ok = proc.returncode == 0 and \
                    [Fraction(int(a), int(b)) for a, b in coeffs] == COLD_START_EXPECTED
            except (ValueError, KeyError, IndexError):
                ok = False
            self.checks.append(("setup: repst dim --lambda 2", ok))


def _quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(cold: ColdStarts, plain: Passes) -> dict[str, tuple[float, str]]:
    items = plain.item_seconds()
    return {
        "setup_s": (statistics.median(cold.scaled), "s"),
        "pass_s": (sum(items), "s"),
        "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
        "item_p90_ms": (_quantile90(items) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tracer_table(tracer) -> dict[str, dict[str, float]]:
    """Median calls, total and self seconds per pass for every traced name,
    largest self time first."""
    rows = {name: [statistics.median_low(p.get(name, (0, 0.0, 0.0))[k] for p in tracer.passes)
                   for k in range(3)] for name in tracer.names}
    return {name: dict(zip(("calls", "total_s", "self_s"), row))
            for name, row in sorted(rows.items(), key=lambda kv: -kv[1][2])}


def per_layer(tracer, plain: Passes, traced: Passes, imports) -> dict[str, tuple[float, str]]:
    from layers import CACHE_OF, PER_LAYER, unit_and_direction

    table = tracer_table(tracer)
    last_sizes = plain.cache_stats[-1]
    metrics = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_ratio":
            value = sum(traced.item_seconds()) / sum(plain.item_seconds())
        elif metric == "cli.import_s":
            value = statistics.median(imports)
        elif metric.startswith("cache."):
            cache = metric.removeprefix("cache.").removesuffix(".currsize")
            value = sum(s[2] for name, s in last_sizes.items() if cache in ("all", name))
        elif metric.endswith(".cache_hit_ratio"):
            span = metric.removesuffix(".cache_hit_ratio")
            cache = CACHE_OF.get(span, span)
            hits = sum(stats[cache][0] for stats in traced.cache_stats if cache in stats)
            misses = sum(stats[cache][1] for stats in traced.cache_stats if cache in stats)
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            span, kind = metric.rsplit(".", 1)
            value = table.get(span, {}).get(kind, 0)
        metrics[metric] = (value, unit_and_direction(metric)[0])
    return metrics


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, t: Fraction, item_counts: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repst").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "off_node_t": str(t),
        "items": item_counts,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark of the repst exact engine.")
    parser.add_argument("--workload", required=True, choices=("central", "columns", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="pass time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repst" / "__init__.py").is_file():
        print(f"error: no repst sources at {SRC / 'repst'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import tracing
    import workloads

    modules = tracing.load_modules()
    caches = tracing.discover_caches(modules)
    item_counts = {name: len(build()) for name, build in workloads.WORKLOADS.items()}
    items = workloads.WORKLOADS[args.workload]()
    schedule = workloads.Schedule(args.seed)
    cold = ColdStarts()

    if args.trace:
        plain = run_passes(items, schedule, args.seconds / 2, caches, between=cold.sample)
        tracer = tracing.Tracer()
        tracer.install(modules, layers.TARGETS)
        try:
            traced = run_passes(items, schedule, args.seconds / 2, caches, tracer)
        finally:
            tracer.uninstall()
        cold.sample(SETUP_STARTS)
        spans = tracer.write_spans(OUT / f"spans-{args.workload}.tsv.gz", [i.key for i in items])
        metrics = per_layer(tracer, plain, traced, cold.imports)
        repeats = traced.repeats + [(f"{item.key}: traced", got == first) for item, got, first
                                    in zip(items, traced.results, plain.results)]
    else:
        plain = run_passes(items, schedule, args.seconds, caches, between=cold.sample)
        cold.sample(SETUP_STARTS)
        metrics = end_to_end(cold, plain)
        spans, repeats = 0, []

    checks = cold.checks + plain.repeats + repeats + check_outputs(items, plain.results, schedule.t)
    failures = [label for label, ok in checks if not ok]
    report = {
        "provenance": provenance(args.workload, args.seed, schedule.t, item_counts),
        "trace": args.trace,
        "passes": len(plain.pass_s),
        "pass_wall_s": plain.pass_s,
        "setup_wall_s": cold.walls,
        "setup_scaled_s": cold.scaled,
        "spans_written": spans,
        "caches": sorted(caches),
        "checks": len(checks),
        "fail_ratio": len(failures) / len(checks),
        "first_failures": failures[:20],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "layer_map": layers.PER_LAYER if args.trace else None,
        "layers": tracer_table(tracer) if args.trace else None,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"provenance": report["provenance"]}))
    print(f"{args.workload}: {len(items)} items, {len(plain.pass_s)} plain passes, "
          f"fail_ratio {len(failures) / len(checks):.6g} ({len(failures)}/{len(checks)})"
          + "".join(f", {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()
                    if not args.trace))
    for label in failures[:20]:
        print(f"  FAIL {label}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
