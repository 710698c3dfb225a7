"""Benchmark for the padfd CLI (standard library only).

    python3 bench/run.py --workload drawio-session --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

With ``--trace 0`` it runs the workload's ops as a closed loop with one
client: one fresh ``python -m padfd.cli`` child at a time, the next op
starting when the previous one has ended, in whole passes over the
workload's inputs until ``--seconds`` have passed and at least
``MIN_OPS`` ops have run. Every op's outputs go through the oracle. It
reports the end-to-end metrics, scaled to a reference host speed by the
host probes run around every set-up and op (see ``REFERENCE_PROBE_S``).

With ``--trace 1`` it performs the same ops in process instead,
alternating untraced and traced passes, and reports per-layer metrics
from the spans plus the tracing overhead (traced minus untraced time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs and
outputs live in ``.bench_work/`` at the root of the checkout, which is
removed at the end, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))

from tracing import Tracer, Untraced  # noqa: E402
from workloads import WORKLOADS, cell_styles  # noqa: E402

# p75 is reported as the tail: MIN_OPS guarantees ten samples beyond it in
# every run, so the same percentile is compared across runs and commits.
TAIL_PERCENTILE = 75
MIN_OPS = 40
SETUP_REPEATS = 7
STARTUP_REPEATS = 7
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 30
# No new pass starts after this, so a run ends well inside 180 seconds.
RUN_CAP_S = 100

# End-to-end times are reported at a reference host speed. Each op's and
# each set-up's wall time is multiplied by REFERENCE_PROBE_S / (mean of the
# host probes run just before and just after it). A run on a host slowed by
# its neighbours then reads like one on a quiet host. REFERENCE_PROBE_S is the probe's median on a
# quiet 2-core x86-64 VM with CPython 3.11. The raw values are printed next
# to the scaled ones.
PROBE_CODE = "total = 0\nfor value in range(200_000):\n    total += value * value"
REFERENCE_PROBE_S = 0.07
_SCALED = ("setup_s", "latency_p50_s", "latency_tail_s", "throughput_per_s")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better). Names ending in .busy_s are seconds inside that
# layer's spans per op; .errors are exceptions raised in the layer during
# the run; other counts are per op. Layers a workload does not reach read 0.
_LAYERS = (
    "drawio.parse_drawio",
    "drawio.emit_drawio",
    "styles.lookup",
    "layout.layout_generated",
    "dot.emit_dot",
    "canonical.parse_json",
    "canonical.emit_json",
    "typecheck.typecheck",
    "transform.transform",
    "validate.validate_wellformed",
    "validate.validate_pa",
    "simulate.load_flow_metas",
    "simulate.load_data_records",
    "simulate.run_simulation",
    "simulate.report_to_dict",
    "simulate.report_json",
    "simulate.render_report",
    "simulate.run_clean",
)
PER_LAYER = (
    ("cli.startup_s", "s", "lower"),
    ("drawio.parse_drawio.bytes_in", "bytes", "higher"),
    ("drawio.parse_drawio.elements_out", "count", "higher"),
    ("drawio.emit_drawio.bytes_out", "bytes", "lower"),
    ("styles.lookup.calls", "count", "higher"),
    ("layout.layout_generated.nodes_placed", "count", "higher"),
    ("dot.emit_dot.bytes_out", "bytes", "lower"),
    ("canonical.parse_json.bytes_in", "bytes", "higher"),
    ("canonical.emit_json.bytes_out", "bytes", "lower"),
    ("typecheck.typecheck.flows_in", "count", "higher"),
    ("typecheck.typecheck.diagnostics", "count", "lower"),
    ("transform.transform.elements_in", "count", "higher"),
    ("transform.transform.elements_out", "count", "higher"),
    ("validate.validate_pa.violations", "count", "lower"),
    ("simulate.load_data_records.records", "count", "higher"),
    ("simulate.run_simulation.decisions", "count", "higher"),
    ("simulate.run_simulation.forwarded_ratio", "ratio", "higher"),
    ("simulate.run_simulation.hop_share", "ratio", "higher"),
    ("simulate.run_clean.events", "count", "higher"),
    *((f"{layer}.busy_s", "s", "lower") for layer in _LAYERS),
    *((f"{layer}.errors", "count", "lower") for layer in _LAYERS),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("input.style_distinct_share", "ratio", "higher"),
    ("input.positioned_share", "ratio", "higher"),
    ("input.policy_key_distinct_share", "ratio", "higher"),
)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def spawn(args: list[str], stdout: Path, stderr: Path, env: dict, cwd: Path) -> tuple[int, int]:
    """Run one interpreter child to completion; (exit code, peak RSS in KiB).

    The child is reaped with ``os.wait4``, which reports its own peak
    resident set size.
    """
    with stdout.open("wb") as out, stderr.open("wb") as err:
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=cwd)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PADFD_STYLES", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def host_probe(env: dict, workdir: Path) -> float:
    """Wall seconds of a fresh interpreter running a fixed loop.

    The host is shared: how fast it starts and runs Python drifts by tens
    of percent within seconds and over minutes. The probe runs before the
    first and after every set-up and op, outside the timed regions, and
    does what an op's child does apart from padfd's own work.
    """
    start = perf_counter()
    code, _ = spawn(["-c", PROBE_CODE], workdir / "probe.out", workdir / "probe.err", env, workdir)
    if code != 0:
        raise RuntimeError(f"host probe failed: {(workdir / 'probe.err').read_text()}")
    return perf_counter() - start


def set_up(workload, seed: int, base: Path, padfd, env: dict) -> tuple:
    """Prepare the inputs SETUP_REPEATS times and keep the last.

    Returns the prepared inputs, the median raw set-up time, and the median
    set-up time scaled by the host probes around each set-up."""
    base.mkdir(parents=True)
    probes = [host_probe(env, base)]
    raw, scaled = [], []
    for attempt in range(SETUP_REPEATS):
        workdir = base / f"inputs{attempt}"
        if attempt:
            shutil.rmtree(base / f"inputs{attempt - 1}")
        workdir.mkdir()
        start = perf_counter()
        prepared = workload.prepare(seed, workdir, padfd)
        raw.append(perf_counter() - start)
        probes.append(host_probe(env, base))
        scaled.append(raw[-1] * 2 * REFERENCE_PROBE_S / (probes[-2] + probes[-1]))
    return prepared, statistics.median(raw), statistics.median(scaled)


def cli_op(workload, case, prepared, env) -> tuple[float, int, list[str], str]:
    """One op: its CLI commands in sequence, then the oracle.

    Returns (wall seconds, peak RSS KiB, problems, output digest)."""
    workdir = prepared.workdir
    outs = []
    peak = 0
    problems: list[str] = []
    start = perf_counter()
    for step, command in enumerate(workload.commands(case, prepared)):
        out = workdir / f"op{case.index}-{step}.out"
        err = workdir / f"op{case.index}-{step}.err"
        code, rss = spawn(["-m", "padfd.cli", *command], out, err, env, workdir)
        peak = max(peak, rss)
        outs.append(out)
        if code != 0:
            problems.append(f"{command[0]} exited {code}: {err.read_text()[-300:]}")
            break
    wall = perf_counter() - start
    if problems:
        return wall, peak, problems, ""
    problems, digest = workload.verify(case, prepared, [p.read_bytes() for p in outs])
    return wall, peak, problems, digest


def _pass_outcome(problems: list[str], digest: str, first: dict, index: int) -> list[str]:
    """The oracle's verdict plus the same-bytes check across passes."""
    if not problems and first.setdefault(index, digest) != digest:
        problems = [f"op {index}: output bytes differ from the first pass"]
    return problems


def run_cli(workload, prepared, seconds: float, env) -> dict:
    """The closed loop. Each op's wall time is also scaled to the reference
    host speed by the mean of the two probes around it."""
    cases = prepared.cases
    # Untimed warm-up op: byte-code caches and the page cache fill here.
    cli_op(workload, cases[0], prepared, env)
    probes = [host_probe(env, prepared.workdir)]
    walls, scaled, units, peak, failed, first = [], [], 0, 0, 0, {}
    start = perf_counter()
    while True:
        for case in cases:
            wall, rss, problems, digest = cli_op(workload, case, prepared, env)
            probes.append(host_probe(env, prepared.workdir))
            walls.append(wall)
            scaled.append(wall * 2 * REFERENCE_PROBE_S / (probes[-2] + probes[-1]))
            peak = max(peak, rss)
            problems = _pass_outcome(problems, digest, first, case.index)
            if problems:
                failed += 1
                print(f"FAILED {workload.name} op {case.index}: {problems[0]}", file=sys.stderr)
            else:
                units += case.units
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(walls) >= MIN_OPS) or elapsed >= RUN_CAP_S:
            break
    result = {"attempted": len(walls), "failed": failed, "elapsed": elapsed,
              "peak_rss_mb": peak / 1024, "probe_s": statistics.median(probes), "raw": {}}
    for key, values in (("raw", walls), ("scaled", scaled)):
        tail = statistics.quantiles(values, n=100)[TAIL_PERCENTILE - 1]
        result[key] = {
            "latency_p50_s": statistics.median(values),
            "latency_tail_s": tail,
            "beyond_tail": sum(value > tail for value in values),
            "throughput_per_s": units / sum(values),
        }
    return result


def startup_seconds(env, workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    times = []
    for attempt in range(STARTUP_REPEATS):
        start = perf_counter()
        code, _ = spawn(
            ["-c", "import padfd.cli"], workdir / "startup.out", workdir / "startup.err", env, workdir
        )
        times.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError((workdir / "startup.err").read_text())
    return statistics.median(times)


def _traced_pass(workload, prepared, tracer, padfd, first: dict) -> tuple[float, int]:
    """One in-process pass over every case; (seconds, failed ops)."""
    total = 0.0
    failed = 0
    for case in prepared.cases:
        start = perf_counter()
        try:
            with tracer.op(case.index):
                outputs = workload.traced(case, prepared, tracer, padfd)
        except Exception as exc:  # a layer failed: count the op, keep measuring
            total += perf_counter() - start
            failed += 1
            print(f"FAILED {workload.name} op {case.index}: {exc!r}", file=sys.stderr)
            continue
        total += perf_counter() - start
        problems = _pass_outcome(*workload.check(outputs, case), first, case.index)
        if problems:
            failed += 1
            print(f"FAILED {workload.name} op {case.index}: {problems[0]}", file=sys.stderr)
    return total, failed


def _layer_values(tracer: Tracer, ops: int) -> dict[str, float]:
    busy = tracer.busy()
    counts = tracer.counts
    decisions = counts["simulate.run_simulation.decisions"]
    special = {
        "simulate.run_simulation.forwarded_ratio": _share(
            counts["simulate.run_simulation.forwarded"], decisions
        ),
        "simulate.run_simulation.hop_share": _share(counts["simulate.run_simulation.hops"], decisions),
        "input.style_distinct_share": _share(
            counts["input.styles_distinct"], counts["styles.lookup.calls"]
        ),
        "input.positioned_share": _share(counts["input.positioned"], counts["input.nodes"]),
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".busy_s"):
            values[name] = busy[name[: -len(".busy_s")]] / ops
        elif name.endswith(".errors"):
            values[name] = counts[name]
        else:
            values[name] = counts[name] / ops
    return values


def run_traced(workload, prepared, seconds: float, env, padfd, spans: Path) -> dict:
    for case in prepared.cases:
        case.data = case.source.read_bytes()
        if workload.name == "drawio-session":
            case.styles = cell_styles(case.data)
    startup = startup_seconds(env, prepared.workdir)
    first: dict = {}
    untraced, traced, tracers = [], [], []
    failed = 0
    start = perf_counter()
    while True:
        seconds_untraced, bad = _traced_pass(workload, prepared, Untraced(), padfd, first)
        tracer = Tracer()
        seconds_traced, bad_traced = _traced_pass(workload, prepared, tracer, padfd, first)
        untraced.append(seconds_untraced)
        traced.append(seconds_traced)
        tracers.append(tracer)
        failed += bad + bad_traced
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(traced) >= MIN_TRACED_PASSES) or elapsed >= RUN_CAP_S:
            break
    ops = len(prepared.cases)
    passes = [_layer_values(tracer, ops) for tracer in tracers]
    values = {name: statistics.median(p[name] for p in passes) for name, _, _ in PER_LAYER}
    for name, _, _ in PER_LAYER:
        if name.endswith(".errors"):
            values[name] = sum(p[name] for p in passes)
    values["cli.startup_s"] = startup
    values["trace.untraced_op_s"] = statistics.median(untraced) / ops
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)) / ops
    values["input.policy_key_distinct_share"] = prepared.key_distinct_share
    with spans.open("w", encoding="utf-8") as out:
        for index, tracer in enumerate(tracers):
            tracer.write(out, index)
    return {"attempted": 2 * ops * len(traced), "failed": failed, "elapsed": elapsed, **values}


def run_workload(name: str, seed: int, seconds: float, trace: bool, padfd) -> dict:
    workload = WORKLOADS[name]
    base = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    env = _child_env()
    try:
        prepared, raw_setup, setup = set_up(workload, seed, base, padfd, env)
        if trace:
            spans = WORK / f"spans-{name}-seed{seed}.jsonl"
            result = run_traced(workload, prepared, seconds, env, padfd, spans)
            metrics = [(n, u) for n, u, _ in PER_LAYER]
        else:
            result = run_cli(workload, prepared, seconds, env)
            result["raw"]["setup_s"] = raw_setup
            result["setup_s"] = setup
            result.update(result.pop("scaled"))
            metrics = list(END_TO_END)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    _describe(workload, seed, trace, result, metrics)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result[n], "unit": u} for n, u in metrics},
    }


def _describe(workload, seed: int, trace: bool, result: dict, metrics) -> None:
    """Human-readable report; the JSON line follows it."""
    mode = "traced in-process passes" if trace else "closed loop, 1 client, fresh CLI child per command"
    print(f"{workload.name} seed={seed}: {result['attempted']} ops in {result['elapsed']:.1f} s ({mode})")
    if not trace:
        print(
            f"  host probe median {result['probe_s']:.6g} s (reference {REFERENCE_PROBE_S} s); "
            "times are scaled to the reference, raw values in brackets"
        )
    for name, unit in metrics:
        note = ""
        if name in _SCALED and not trace:
            note = f"  (raw {result['raw'][name]:.6g})"
        if name == "latency_tail_s":
            note += (
                f"  (p{TAIL_PERCENTILE} of {result['attempted']} ops, "
                f"{result['beyond_tail']} beyond it, raw {result['raw']['beyond_tail']})"
            )
        elif name == "throughput_per_s":
            what = "decisions_per_s" if workload.name.startswith("simulate") else "elements_per_s"
            note += f"  (= {what})"
        elif name == "setup_s":
            note += f"  (median of {SETUP_REPEATS} set-ups)"
        print(f"  {name:<44} {result[name]:.6g} {unit}{note}")
    if not trace:
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':<44} {rate:.6g} ratio  ({result['failed']} of {result['attempted']} ops)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "padfd" / "cli.py").is_file():
        print(f"error: no padfd sources at {SRC}; run from a padfd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import padfd

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), padfd)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
