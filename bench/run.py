"""Benchmark for fracfactor: decide / critical / sweep.

Run from the root of a source checkout:

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Load is one process, one thread and one caller in a closed loop: each op
starts only after the previous one returned. The run times a few set-ups,
then repeats batches until --seconds have passed; each batch re-imports the
library and draws a fresh corpus from (seed, batch), so no batch sees an
input an earlier one touched. Every time is reported in nominal seconds
(see Gauge). Every op's output is checked, and a reference batch at
REFERENCE_SEED is compared with the verdicts recorded in digests.json.

--trace 0 reports the end-to-end metrics. --trace 1 runs batch 0 untraced
and then traced, as many times as fit in --seconds (at least once), and
reports the per-layer metrics of the traced passes (counts are per pass,
times the median over passes), plus the tracing overhead. The spans of the
last traced pass go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries machine metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, reference_work  # noqa: E402

REFERENCE_SEED = 20261017
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 7  # set-ups timed before the batches; setup_s is the median of all
# Times are reported as if workloads.reference_work took this long; see Gauge.
NOMINAL_REFERENCE_S = 0.005
REFERENCE_INTERVAL_S = 0.1
MIN_SAMPLES = 110  # so that at least ten latency samples lie beyond p90

clock = time.perf_counter


@dataclass
class Record:
    ops: int
    latency_s: float  # as measured
    nominal_s: float  # latency_s rescaled by the gauge; see Gauge
    failed: int
    token: str
    certified: bool | None
    latency_sample: bool = False


@dataclass
class Pass:
    import_s: float
    corpus_s: float
    scale: float  # the gauge's scale when the pass was set up
    records: list[Record] = field(default_factory=list)

    @property
    def setup_nominal_s(self) -> float:
        return (self.import_s + self.corpus_s) * self.scale

    @property
    def work_s(self) -> float:
        """Corpus generation plus op time: what a traced pass wraps in spans."""
        return self.corpus_s + sum(r.latency_s for r in self.records)

    @property
    def work_nominal_s(self) -> float:
        return self.corpus_s * self.scale + sum(r.nominal_s for r in self.records)


class Gauge:
    """Tracks the host's speed with a fixed reference computation.

    The host's speed swings by up to a factor of two within a minute, since
    other tenants share its cores. The gauge times workloads.reference_work,
    which shares no code with fracfactor, at most every REFERENCE_INTERVAL_S
    between ops. scale() converts a time measured now into nominal seconds:
    the time it would take on a host where reference_work takes
    NOMINAL_REFERENCE_S. The ratio cancels the host's swings but still moves
    with any change to the library.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        for _ in range(3):  # warm up and fill the window scale() averages
            self.sample()

    def sample(self) -> None:
        start = clock()
        reference_work()
        self._last = clock()
        self.samples.append(self._last - start)

    def tick(self) -> None:
        if clock() - self._last >= REFERENCE_INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        return NOMINAL_REFERENCE_S / statistics.fmean(self.samples[-3:])


def fresh_import():
    """Import fracfactor afresh and time it; earlier module objects are dropped."""
    for name in [m for m in sys.modules if m == "fracfactor" or m.startswith("fracfactor.")]:
        del sys.modules[name]
    start = clock()
    lib = importlib.import_module("fracfactor")
    return lib, clock() - start


def execute(workload, lib, items, gauge: Gauge, tracer: Tracer | None = None) -> list[Record]:
    """Run each item as one op, timing it, then check its output untimed."""
    records = []
    for item in items:
        gauge.tick()
        scale = gauge.scale()
        start = clock()
        try:
            if tracer is None:
                output = workload.run(lib, item)
            else:
                output = tracer.span("bench.op", workload.run, lib, item)
        except Exception as exc:  # a refused or crashed op counts as failed
            latency = clock() - start
            traceback.print_exc(file=sys.stderr)
            error = f"error:{type(exc).__name__}"
            records.append(Record(item.ops, latency, latency * scale, item.ops, error, None))
            continue
        latency = clock() - start
        failed, token, certified = workload.check(item, output)
        records.append(
            Record(item.ops, latency, latency * scale, failed, token, certified, item.latency_sample)
        )
    return records


def time_setup(workload, seed: int, batch: int, gauge: Gauge) -> float:
    """Time one set-up (import plus corpus), in nominal seconds; the corpus is dropped."""
    gauge.sample()
    scale = gauge.scale()
    lib, import_s = fresh_import()
    start = clock()
    workload.corpus(lib, seed, batch)
    return (import_s + clock() - start) * scale


def run_pass(workload, seed: int, batch: int, gauge: Gauge, tracer: Tracer | None = None) -> Pass:
    gauge.sample()
    scale = gauge.scale()
    lib, import_s = fresh_import()
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        if tracer is None:
            items = workload.corpus(lib, seed, batch)
        else:
            items = tracer.span("bench.setup", workload.corpus, lib, seed, batch)
        result = Pass(import_s, clock() - start, scale)
        result.records = execute(workload, lib, items, gauge, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def reference_failures(workload, records: list[Record], digests: dict) -> int:
    """Ops of the reference batch whose verdict differs from the recorded one."""
    expected = digests[workload.name]
    tokens = [r.token for r in records]
    if len(tokens) != len(expected):
        return sum(r.ops for r in records)
    return sum(r.ops for r, want in zip(records, expected) if r.token != want)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- end-to-end run -------------------------------------------------------------


def end_to_end(workload, seed: int, seconds: float):
    gauge = Gauge()
    setups = [time_setup(workload, seed, batch, gauge) for batch in range(SETUP_REPEATS)]
    passes: list[Pass] = []
    samples: list[float] = []
    start = clock()
    while True:
        p = run_pass(workload, seed, len(passes), gauge)
        passes.append(p)
        samples += [r.nominal_s for r in p.records if r.latency_sample]
        if clock() - start >= seconds and len(samples) >= MIN_SAMPLES:
            break
    records = [r for p in passes for r in p.records]
    samples.sort()
    metrics = {
        "setup_s": (statistics.median(setups + [p.setup_nominal_s for p in passes]), "s"),
        "ops_per_s": (sum(r.ops for r in records) / sum(r.nominal_s for r in records), "1/s"),
        "op_ms_p50": (1000 * nearest_rank(samples, 0.5), "ms"),
        "op_ms_p90": (1000 * nearest_rank(samples, 0.9), "ms"),
    }
    infeasible = [r.certified for r in records if r.certified is not None]
    extra = {
        "batches": len(passes),
        "latency_samples": len(samples),
        "samples_beyond_p90": sum(1 for s in samples if s > nearest_rank(samples, 0.9)),
        "certified_frac": sum(infeasible) / len(infeasible) if infeasible else None,
        "infeasible_verdicts": len(infeasible),
        "ops_per_s_as_measured": sum(r.ops for r in records) / sum(r.latency_s for r in records),
        "reference_ms_median": 1000 * statistics.median(gauge.samples),
    }
    return passes, metrics, extra


# -- traced run -----------------------------------------------------------------


def layer_metrics(tracer: Tracer, ops: int, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over `ops` ops; scale converts
    its measured seconds into nominal seconds."""
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls_and_self(span: str, calls: bool = True) -> None:
        n, self_s, _ = tracer.stat(span)
        if calls:
            out[f"{span}.calls"] = (n, "count")
        out[f"{span}.self_s"] = (self_s * scale, "s")

    calls_and_self("graphs.build")
    calls_and_self("graphs.delete_vertices")
    calls_and_self("graphs.parse_edge_list", calls=False)

    calls_and_self("maxflow.feasible_flow")
    calls_and_self("maxflow.max_flow", calls=False)
    flows = tracer.stat("maxflow.max_flow")[0]
    out["maxflow.add_edge.calls"] = (c["maxflow.add_edge"], "count")
    out["maxflow.arcs_per_flow"] = (ratio(c["maxflow.add_edge"], flows), "ratio")

    calls_and_self("factor.solve")
    calls_and_self("factor.scan")
    infeasible = c["factor.solve.infeasible"]
    out["factor.scan_per_infeasible"] = (ratio(tracer.stat("factor.scan")[0], infeasible), "ratio")
    out["factor.certified_frac"] = (ratio(c["factor.solve.certified"], infeasible), "ratio")
    calls_and_self("factor.validate", calls=False)
    calls_and_self("factor.delta_st")

    calls_and_self("criticality.check")
    out["criticality.check.refused"] = (
        c["criticality.check.raised.ResourceLimitError"], "count"
    )
    out["criticality.sets.count"] = (c["criticality.enumerate.yielded"], "count")
    calls_and_self("criticality.enumerate", calls=False)
    check_s = tracer.stat("criticality.check")[2]
    checked = c["criticality.enumerate.yielded_in.criticality.check"]
    out["criticality.sets_per_s"] = (ratio(checked, check_s * scale), "1/s")
    out["criticality.maximal_yield_frac"] = (
        ratio(
            c["criticality.maximal.yielded"],
            c["criticality.enumerate.yielded_in.criticality.maximal"],
        ),
        "ratio",
    )

    calls_and_self("conditions.check")
    out["conditions.check_per_graph"] = (ratio(tracer.stat("conditions.check")[0], ops), "ratio")
    calls_and_self("conditions.invariants")

    calls_and_self("constructions.random_graph")
    calls_and_self("constructions.verify_sharpness")

    calls_and_self("sweep.run_sweep", calls=False)
    out["sweep.condition_pass_frac"] = (
        ratio(c["sweep.condition_passing"], c["sweep.graphs_examined"]), "ratio"
    )
    return out


def traced(workload, seed: int, seconds: float):
    passes: list[Pass] = []
    per_pass: list[dict] = []
    gauge = Gauge()
    plain_s = traced_s = 0.0
    start = clock()
    tracer = None
    while True:
        plain = run_pass(workload, seed, 0, gauge)
        tracer = Tracer()
        hooked = run_pass(workload, seed, 0, gauge, tracer)
        passes += [plain, hooked]
        plain_s += plain.work_nominal_s
        traced_s += hooked.work_nominal_s
        ops = sum(r.ops for r in hooked.records)
        per_pass.append(layer_metrics(tracer, ops, hooked.work_nominal_s / hooked.work_s))
        elapsed = clock() - start
        if elapsed + elapsed / len(per_pass) > seconds:  # the next pair would overrun
            break
    # Counts repeat exactly from pass to pass; median_low keeps them integers.
    metrics = {
        name: (
            (statistics.median_low if unit == "count" else statistics.median)(
                m[name][0] for m in per_pass
            ),
            unit,
        )
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json.gz"
    tracer.write_spans(str(spans_path))
    extra = {
        "pass_pairs": len(per_pass),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "reference_ms_median": 1000 * statistics.median(gauge.samples),
    }
    return passes, metrics, extra


# -- reporting ------------------------------------------------------------------


def machine_metadata() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "fracfactor").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="run the reference batch and store its verdicts in digests.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "fracfactor" / "__init__.py").is_file():
        print(f"error: no fracfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.record_digests:
        reference = run_pass(workload, REFERENCE_SEED, 0, Gauge())
        if any(r.failed for r in reference.records):
            print("error: the reference batch has failing ops", file=sys.stderr)
            return 1
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        digests[workload.name] = [r.token for r in reference.records]
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return 0

    if args.trace:
        passes, metrics, extra = traced(workload, args.seed, args.seconds)
    else:
        passes, metrics, extra = end_to_end(workload, args.seed, args.seconds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    reference = run_pass(workload, REFERENCE_SEED, 0, Gauge())
    records = [r for p in passes for r in p.records] + reference.records
    attempted = sum(r.ops for r in records)
    digests = json.loads(DIGESTS.read_text())
    failed = sum(r.failed for r in records) + reference_failures(workload, reference.records, digests)
    failed = min(failed, attempted)

    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload.name} {name} {shown} {unit}")
    print(f"{workload.name} fail_frac {failed / attempted:.6g} ratio")
    for name, value in extra.items():
        if value is not None:
            print(f"{workload.name} {name} {value}")
    meta = machine_metadata()
    meta.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
