"""The four workloads: inputs, CLI commands, output checks, traced ops.

Each op of a workload is a fixed list of CLI commands over one generated
input. ``prepare`` writes the inputs (the timed set-up), ``commands``
gives an op's CLI invocations, ``verify`` runs the oracle on what they
wrote, and ``traced`` performs the same work in process, calling each
module's public functions in the order the CLI calls them, every call
wrapped in a span.

Sizes are fixed per workload, so every seed measures the same amount of
work; the seed changes ids, labels, styles, purposes and records. Each
op list has an odd length, so the median op sits inside one input's
samples rather than between two.
"""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

import gen
import oracle

# Shops per drawing: several where start-up dominates, a few where the
# superlinear layout of positioned drawings dominates.
DRAWIO_SHOPS = (1, 2, 4, 10, 24, 48, 90, 130, 180)
# Shops per raw JSON diagram (no positions).
JSON_SHOPS = (1, 3, 8, 20, 45, 90, 150, 220, 300)
# The simulate workloads share one PA model of this many shops
# (48 guarded flows) and cycle through record batches of these sizes.
MODEL_SHOPS = 8
FLAT_BATCHES = (150, 400, 800, 1400, 2100, 3000, 4000, 5200, 6500)
HOP_BATCHES = (80, 200, 400, 700, 1100, 1600, 2100, 2800, 3600)
# The cleaning pass runs a year after the simulation clock, so records
# stored with a shorter retention are purged.
CLEAN_CLOCK = gen.CLOCK + timedelta(days=365)


@dataclass
class Case:
    """One op's input and what the oracle expects of its outputs."""

    index: int
    drawing: gen.Drawing
    source: Path
    units: int  # PA elements written, or decisions made
    expected: oracle.Counts | None = None
    data: bytes = b""
    styles: list[tuple[bool, str]] = field(default_factory=list)


@dataclass
class Prepared:
    workdir: Path
    cases: list[Case]
    model: Path | None = None
    static: Path | None = None
    compat: Path | None = None
    key_distinct_share: float = 0.0


def _digest(*parts: bytes) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
        sha.update(b"\0")
    return sha.hexdigest()


def cell_styles(data: bytes) -> list[tuple[bool, str]]:
    """(is_edge, style) of every cell in a draw.io file."""
    return [
        (cell.get("edge") == "1", cell.get("style") or "")
        for cell in ET.fromstring(data).iter("mxCell")
        if cell.get("vertex") == "1" or cell.get("edge") == "1"
    ]


def _diagram_units(drawing: gen.Drawing) -> int:
    return sum(oracle.expected_size(drawing))


class DrawioSession:
    name = "drawio-session"
    why = (
        "positioned hand-drawn-like draw.io files: the only workload through drawio, "
        "styles, layout and dot, where the superlinear layout shows"
    )

    def prepare(self, seed: int, workdir: Path, padfd) -> Prepared:
        rng = random.Random(f"{self.name}:{seed}")
        cases = []
        for index, shops in enumerate(DRAWIO_SHOPS):
            data, drawing = gen.drawio_document(rng, shops)
            source = workdir / f"raw{index}.drawio.xml"
            source.write_bytes(data)
            cases.append(Case(index, drawing, source, _diagram_units(drawing)))
        return Prepared(workdir, cases)

    def commands(self, case: Case, prepared: Prepared) -> list[list[str]]:
        pa = prepared.workdir / f"pa{case.index}.drawio.xml"
        dot = prepared.workdir / f"pa{case.index}.dot"
        return [
            ["transform", str(case.source), "-o", str(pa)],
            ["export", str(pa), "-o", str(dot), "--out-format", "dot"],
        ]

    def verify(self, case: Case, prepared: Prepared, stdouts: list[bytes]):
        pa = (prepared.workdir / f"pa{case.index}.drawio.xml").read_bytes()
        dot = (prepared.workdir / f"pa{case.index}.dot").read_bytes()
        return self.check({"pa": pa, "dot": dot}, case)

    def check(self, outputs: dict, case: Case):
        problems = oracle.check_pa_drawio(outputs["pa"], case.drawing)
        problems += oracle.check_dot(outputs["dot"], case.drawing)
        return problems, _digest(outputs["pa"], outputs["dot"])

    def traced(self, case: Case, prepared: Prepared, t, padfd) -> dict:
        raw = t.call("drawio.parse_drawio", padfd.parse_drawio, case.data)
        t.count("drawio.parse_drawio.bytes_in", len(case.data))
        t.count("drawio.parse_drawio.elements_out", len(raw.nodes) + len(raw.flows))
        t.count("input.positioned", sum(n.position is not None for n in raw.nodes.values()))
        t.count("input.nodes", len(raw.nodes))
        _lookup(t, padfd, case.styles)
        wellformed = _typecheck(t, padfd, raw)
        t.call("validate.validate_wellformed", padfd.validate_wellformed, wellformed)
        pa = _transform(t, padfd, wellformed)
        t.count(
            "layout.layout_generated.nodes_placed",
            sum(n.position is None for n in pa.nodes.values()),
        )
        placed = t.call("layout.layout_generated", padfd.layout_generated, pa)
        out = t.call("drawio.emit_drawio", padfd.emit_drawio, placed)
        t.count("drawio.emit_drawio.bytes_out", len(out))
        back = t.call("drawio.parse_drawio", padfd.parse_drawio, out)
        t.count("drawio.parse_drawio.bytes_in", len(out))
        t.count("drawio.parse_drawio.elements_out", len(back.nodes) + len(back.flows))
        _lookup(t, padfd, cell_styles(out))
        dot = t.call("dot.emit_dot", padfd.emit_dot, back)
        t.count("dot.emit_dot.bytes_out", len(dot))
        return {"pa": out, "dot": dot}


class JsonSession:
    name = "json-session"
    why = (
        "raw JSON without positions: same typecheck/transform core, no drawio, styles, "
        "layout or dot; writes and re-reads large canonical JSON"
    )

    def prepare(self, seed: int, workdir: Path, padfd) -> Prepared:
        rng = random.Random(f"{self.name}:{seed}")
        cases = []
        for index, shops in enumerate(JSON_SHOPS):
            data, drawing = gen.json_document(rng, shops)
            source = workdir / f"raw{index}.json"
            source.write_bytes(data)
            cases.append(Case(index, drawing, source, _diagram_units(drawing)))
        return Prepared(workdir, cases)

    def commands(self, case: Case, prepared: Prepared) -> list[list[str]]:
        pa = prepared.workdir / f"pa{case.index}.json"
        return [
            ["transform", str(case.source), "-o", str(pa)],
            ["check", str(pa), "--report", "json"],
        ]

    def verify(self, case: Case, prepared: Prepared, stdouts: list[bytes]):
        pa = (prepared.workdir / f"pa{case.index}.json").read_bytes()
        return self.check({"pa": pa, "report": stdouts[1]}, case)

    def check(self, outputs: dict, case: Case):
        problems = oracle.check_pa_json(outputs["pa"], case.drawing)
        problems += oracle.check_clean(outputs["report"])
        return problems, _digest(outputs["pa"], outputs["report"])

    def traced(self, case: Case, prepared: Prepared, t, padfd) -> dict:
        raw = t.call("canonical.parse_json", padfd.parse_json, case.data)
        t.count("canonical.parse_json.bytes_in", len(case.data))
        t.count("input.positioned", sum(n.position is not None for n in raw.nodes.values()))
        t.count("input.nodes", len(raw.nodes))
        wellformed = _typecheck(t, padfd, raw)
        t.call("validate.validate_wellformed", padfd.validate_wellformed, wellformed)
        pa = _transform(t, padfd, wellformed)
        out = t.call("canonical.emit_json", padfd.emit_json, pa)
        t.count("canonical.emit_json.bytes_out", len(out))
        back = t.call("canonical.parse_json", padfd.parse_json, out)
        t.count("canonical.parse_json.bytes_in", len(out))
        validity = t.call("validate.validate_pa", padfd.validate_pa, back)
        t.count("validate.validate_pa.violations", len(validity.violations))
        report = {
            "stage": back.stage.value,
            "diagnostics": [v.render() for v in validity.violations],
        }
        return {"pa": out, "report": (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()}


class _Simulate:
    """Shared by both simulate workloads: one PA model, many record batches."""

    name = ""
    multi_hop = False
    batches: tuple[int, ...] = ()

    def policy_and_records(self, rng, drawing):
        """(policy rows, record batches, equivalence file or None)."""
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path, padfd) -> Prepared:
        # The model depends on the seed only, so both workloads share it.
        raw, drawing = gen.json_document(random.Random(f"model:{seed}"), MODEL_SHOPS)
        wellformed, diagnostics = padfd.typecheck(padfd.parse_json(raw))
        if diagnostics:
            raise RuntimeError(f"generated model is ill-formed: {diagnostics[0].render()}")
        model_bytes = padfd.emit_json(padfd.transform(wellformed))
        problems = oracle.check_pa_json(model_bytes, drawing)
        if problems:
            raise RuntimeError(f"PA model fails the oracle: {problems}")
        model = workdir / "model.pa.json"
        model.write_bytes(model_bytes)

        rng = random.Random(f"{self.name}:{seed}")
        policy, batches, compat = self.policy_and_records(rng, drawing)
        static = workdir / "static.csv"
        static.write_bytes(gen.static_csv(rng, drawing, policy))
        prepared = Prepared(workdir, [], model=model, static=static)
        pairs = set()
        if compat is not None:
            prepared.compat = workdir / "compat.json"
            prepared.compat.write_bytes(compat)
            pairs = oracle.read_pairs(compat)
        rules = oracle.read_policy(static.read_bytes())
        keys = set()
        entries = 0
        for index, records in enumerate(batches):
            source = workdir / f"batch{index}.csv"
            source.write_bytes(gen.dynamic_csv(rng, records))
            read = oracle.read_records(source.read_bytes())
            expected = oracle.simulate(
                drawing, rules, read, gen.CLOCK, pairs, multi_hop=self.multi_hop
            )
            keys.update((f, c, e < gen.CLOCK) for _, f, c, e in read)
            entries += len(read)
            prepared.cases.append(Case(index, drawing, source, expected.decisions, expected))
        prepared.key_distinct_share = len(keys) / entries
        return prepared

    def commands(self, case: Case, prepared: Prepared) -> list[list[str]]:
        command = [
            "simulate", str(prepared.model),
            "--static", str(prepared.static),
            "--dynamic", str(case.source),
            "--clock", gen.CLOCK.isoformat(),
        ]
        if self.multi_hop:
            return [command + ["--multi-hop", "--compat", str(prepared.compat), "--report", "text"]]
        return [command + ["--report", "json"]]

    def verify(self, case: Case, prepared: Prepared, stdouts: list[bytes]):
        return self.check({"report": stdouts[0]}, case)

    def check(self, outputs: dict, case: Case):
        problems = oracle.check_simulation(outputs["report"], case.expected, text=self.multi_hop)
        return problems, _digest(outputs["report"])

    def traced(self, case: Case, prepared: Prepared, t, padfd) -> dict:
        model_bytes = prepared.model.read_bytes()
        pa = t.call("canonical.parse_json", padfd.parse_json, model_bytes)
        t.count("canonical.parse_json.bytes_in", len(model_bytes))
        metas = t.call("simulate.load_flow_metas", padfd.load_flow_metas, prepared.static)
        records = t.call("simulate.load_data_records", padfd.load_data_records, case.source)
        t.count("simulate.load_data_records.records", len(records))
        compatible = None
        if self.multi_hop:
            compatible = padfd.compatibility_with_equivalences(
                padfd.load_equivalences(prepared.compat)
            )
        report = t.call(
            "simulate.run_simulation",
            padfd.run_simulation,
            pa,
            metas,
            records,
            gen.CLOCK,
            compatible=compatible,
            multi_hop=self.multi_hop,
        )
        t.count("simulate.run_simulation.decisions", len(report.decisions))
        t.count("simulate.run_simulation.forwarded", sum(d.forwarded_padfd for d in report.decisions))
        t.count("simulate.run_simulation.hops", sum(d.propagated for d in report.decisions))
        if self.multi_hop:
            text = t.call("simulate.render_report", padfd.render_report, report)
        else:
            doc = t.call("simulate.report_to_dict", padfd.report_to_dict, report)
            text = t.call("simulate.report_json", _report_json, doc)
        _, events = t.call("simulate.run_clean", padfd.run_clean, report.state, CLEAN_CLOCK)
        t.count("simulate.run_clean.events", len(events))
        return {"report": text.encode("utf-8")}


def _report_json(doc: dict) -> str:
    """What the CLI prints for ``simulate --report json``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class SimulateFlat(_Simulate):
    name = "simulate-flat"
    why = (
        "single-hop JSON reports over a large purpose vocabulary, so few "
        "(flow, consent, expired) keys repeat and a decision memo has little to reuse"
    )
    batches = FLAT_BATCHES

    def policy_and_records(self, rng, drawing):
        vocabulary = gen.large_vocabulary(rng)
        policy = gen.policy_table(rng, drawing, vocabulary)
        flows = [flow_id for flow_id, _, _, _ in drawing.flows]
        batches = [
            gen.record_batch(rng, index, size, policy, flows, vocabulary, covering_share=0.65)
            for index, size in enumerate(self.batches)
        ]
        return policy, batches, None


class SimulateMultihop(_Simulate):
    name = "simulate-multihop"
    why = (
        "multi-hop text reports with equivalence pairs over a small purpose vocabulary: "
        "keys repeat heavily; the only workload through hops and render_report"
    )
    multi_hop = True
    batches = HOP_BATCHES

    def policy_and_records(self, rng, drawing):
        policy = gen.policy_table(rng, drawing, gen.SMALL_PURPOSES)
        entries = [flow_id for flow_id, _, _, kind in drawing.flows if kind == "in"]
        others = [flow_id for flow_id, _, _, kind in drawing.flows if kind != "in"]
        # Four in five records enter on an external entity's flow.
        flows = entries * (4 * len(others) // len(entries)) + others
        batches = [
            gen.record_batch(
                rng, index, size, policy, flows, gen.SMALL_PURPOSES,
                covering_share=0.6, synonyms=gen.SYNONYMS,
            )
            for index, size in enumerate(self.batches)
        ]
        return policy, batches, gen.compat_json(gen.SYNONYMS)


def _lookup(t, padfd, styles: list[tuple[bool, str]]) -> None:
    """Type every cell style through the default style map, as parse_drawio
    does once per cell."""
    style_map = padfd.DEFAULT_STYLE_MAP

    def lookup():
        for is_edge, style in styles:
            if is_edge:
                style_map.flow_type_for(style)
            else:
                style_map.node_type_for(style)

    t.call("styles.lookup", lookup)
    t.count("styles.lookup.calls", len(styles))
    t.count("input.styles_distinct", len(set(styles)))


def _typecheck(t, padfd, raw):
    wellformed, diagnostics = t.call("typecheck.typecheck", padfd.typecheck, raw)
    t.count("typecheck.typecheck.flows_in", len(raw.flows))
    t.count("typecheck.typecheck.diagnostics", len(diagnostics))
    if wellformed is None:
        raise RuntimeError(f"typecheck rejected a generated diagram: {diagnostics[0].render()}")
    return wellformed


def _transform(t, padfd, wellformed):
    # The CLI's transform validates first; that call is its own span above.
    pa = t.call("transform.transform", padfd.transform, wellformed, check=False)
    t.count("transform.transform.elements_in", len(wellformed.nodes) + len(wellformed.flows))
    t.count("transform.transform.elements_out", len(pa.nodes) + len(pa.flows))
    return pa


WORKLOADS = {w.name: w for w in (DrawioSession(), JsonSession(), SimulateFlat(), SimulateMultihop())}
