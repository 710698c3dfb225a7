"""Independent output checks (standard library only; never imports padfd).

Every check returns a list of problems; an empty list means the output is
correct. The expected values come from the generator's own description of
what it drew (``gen.Drawing``) and from a re-statement of the paper's
rules written here:

* counting laws: a PA-DFD has |N| + P + 2D + 4F nodes and 7F + 2D flows;
* retyping: in/comp/read -> limpro, out -> limext, store -> limdb,
  delete -> limdb_del, and the original flow keeps its id and target;
* the limit rule: a non-personal flow always forwards; a personal one
  forwards when a consented purpose equals the flow's purpose ignoring
  case and surrounding blanks (or an equivalence pair maps it there) and
  the clock is not past the expiry day;
* multi-hop: a record forwarded into a process continues, breadth first,
  along that process's outgoing flows, each (record, flow) pair evaluated
  at most once per arriving record.
"""

from __future__ import annotations

import csv
import io
import json
import re
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from datetime import date

RETYPE = {
    "in": "limpro",
    "comp": "limpro",
    "read": "limpro",
    "out": "limext",
    "store": "limdb",
    "delete": "limdb_del",
}

_MARKER = re.compile(r"(?:^|;)dfd=([a-z_]+);")


def expected_size(drawing) -> tuple[int, int]:
    """(nodes, flows) the rewrite must produce for a drawing."""
    n, p, d, f = drawing.counts
    return n + p + 2 * d + 4 * f, 7 * f + 2 * d


def _check_elements(
    drawing, node_types: dict[str, str], flows: dict[str, tuple[str, str, str]]
) -> list[str]:
    """Counting laws and the retyping table. ``flows`` maps id to
    (source, target, type)."""
    problems = []
    want_nodes, want_flows = expected_size(drawing)
    if (len(node_types), len(flows)) != (want_nodes, want_flows):
        problems.append(
            f"counting laws: got {len(node_types)} nodes / {len(flows)} flows, "
            f"want {want_nodes} / {want_flows}"
        )
    for flow_id, _, target, kind in drawing.flows:
        found = flows.get(flow_id)
        if found is None:
            problems.append(f"original flow {flow_id} missing")
            continue
        source, out_target, out_type = found
        if out_type != RETYPE[kind]:
            problems.append(f"flow {flow_id} ({kind}) typed {out_type}, want {RETYPE[kind]}")
        if out_target != target:
            problems.append(f"flow {flow_id} retargeted to {out_target}")
        if node_types.get(source) != "limit":
            problems.append(f"flow {flow_id} not sourced at a limit")
    return problems[:5]


def check_pa_drawio(data: bytes, drawing) -> list[str]:
    """A PA-DFD written as draw.io: types are read from the style markers."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"PA draw.io output is not XML: {exc}"]
    node_types: dict[str, str] = {}
    flows: dict[str, tuple[str, str, str]] = {}
    for cell in root.iter("mxCell"):
        marker = _MARKER.search(cell.get("style") or "")
        kind = marker.group(1) if marker else None
        if cell.get("vertex") == "1":
            # Business nodes keep plain draw.io styles and carry no marker.
            node_types[cell.get("id")] = kind or "business"
        elif cell.get("edge") == "1":
            flows[cell.get("id")] = (cell.get("source"), cell.get("target"), kind)
    model = root.find("diagram/mxGraphModel")
    if model is None or model.get("dfdStage") != "pa-dfd":
        return ["PA draw.io output lacks dfdStage=pa-dfd"]
    return _check_elements(drawing, node_types, flows)


def check_pa_json(data: bytes, drawing) -> list[str]:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"PA JSON output is not JSON: {exc}"]
    try:
        if doc["stage"] != "pa-dfd":
            return [f"PA JSON output has stage {doc['stage']!r}"]
        node_types = {n["id"]: n.get("type") for n in doc["nodes"]}
        flows = {f["id"]: (f["source"], f["target"], f.get("type")) for f in doc["flows"]}
    except (KeyError, TypeError) as exc:
        return [f"PA JSON output is not a canonical document: {exc!r}"]
    return _check_elements(drawing, node_types, flows)


def check_dot(data: bytes, drawing) -> list[str]:
    """DOT output: a four-line header, one line per node and per flow,
    and the closing brace."""
    nodes, flows = expected_size(drawing)
    lines = data.decode("utf-8").splitlines()
    if len(lines) != nodes + flows + 5:
        return [f"DOT has {len(lines)} lines, want {nodes + flows + 5}"]
    if lines[0] != "digraph dfd {" or lines[-1] != "}":
        return ["DOT output is not one digraph"]
    arrows = sum(1 for line in lines if " -> " in line)
    if arrows != flows:
        return [f"DOT has {arrows} edges, want {flows}"]
    return []


def check_clean(stdout: bytes) -> list[str]:
    """``check --report json`` on a valid PA-DFD."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"check report is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("stage") != "pa-dfd" or doc.get("diagnostics") != []:
        return [f"check report not clean: {str(doc)[:200]}"]
    return []


# --- simulation -----------------------------------------------------------


@dataclass(frozen=True)
class Counts:
    decisions: int
    forwards: int
    violations: int
    hops: int


def _norm(text: str) -> str:
    return text.strip().casefold()


def read_policy(static_csv: bytes) -> dict[str, tuple[str, bool]]:
    """flow id -> (normalised purpose, carries personal data)."""
    rows = csv.DictReader(io.StringIO(static_csv.decode("utf-8")))
    return {
        row["F_id"].strip(): (_norm(row["Purpose"]), row["PD"].strip().casefold() == "true")
        for row in rows
    }


def read_records(dynamic_csv: bytes) -> list[tuple[str, str, frozenset[str], date]]:
    """(d_id, flow id, normalised consent, expiry) per record."""
    rows = csv.DictReader(io.StringIO(dynamic_csv.decode("utf-8")))
    return [
        (
            row["D_id"].strip(),
            row["F_id"].strip(),
            frozenset(_norm(c) for c in row["Consent"].split(";") if c.strip()),
            date.fromisoformat(row["Expiry"].strip()),
        )
        for row in rows
    ]


def read_pairs(compat: bytes) -> set[tuple[str, str]]:
    return {(_norm(a), _norm(b)) for a, b in json.loads(compat)}


def simulate(
    drawing,
    policy: dict[str, tuple[str, bool]],
    records,
    clock: date,
    pairs: set[tuple[str, str]] = frozenset(),
    multi_hop: bool = False,
) -> Counts:
    """Count decisions, forwards, violations and hop evaluations."""
    target_kind = {}
    outgoing: dict[str, list[str]] = {}
    for flow_id, source, target, _ in drawing.flows:
        target_kind[flow_id] = drawing.nodes[target]
        outgoing.setdefault(source, []).append(flow_id)
    target_of = {flow_id: target for flow_id, _, target, _ in drawing.flows}
    decisions = forwards = violations = hops = 0

    def forwards_on(flow_id: str, consent: frozenset[str], expiry: date) -> bool:
        purpose, pd = policy[flow_id]
        if not pd:
            return True
        covered = purpose in consent or any((c, purpose) in pairs for c in consent)
        return covered and clock <= expiry

    for d_id, flow_id, consent, expiry in records:
        visited = {flow_id}
        queue = deque([flow_id])
        first = True
        while queue:
            current = queue.popleft()
            ok = forwards_on(current, consent, expiry)
            decisions += 1
            hops += not first
            first = False
            if ok:
                forwards += 1
            elif policy[current][1]:
                violations += 1
            if not (multi_hop and ok and target_kind[current] == "proc"):
                continue
            for following in outgoing.get(target_of[current], ()):
                if following not in visited and following in policy:
                    visited.add(following)
                    queue.append(following)
    return Counts(decisions, forwards, violations, hops)


def counts_from_json_report(stdout: bytes) -> Counts:
    decisions = json.loads(stdout)["decisions"]
    return Counts(
        len(decisions),
        sum(d["forwarded_padfd"] for d in decisions),
        sum(d["violation"] for d in decisions),
        sum(d["propagated"] for d in decisions),
    )


def counts_from_text_report(stdout: bytes) -> Counts:
    """Rows of the forwarding table sit between the header and the
    ``log entries`` summary line, which restates the totals."""
    lines = stdout.decode("utf-8").splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("log entries: "))
    rows = [line.split() for line in lines[2:end]]
    summary = re.fullmatch(r"log entries: (\d+) \(violations: (\d+)\)", lines[end])
    counts = Counts(
        len(rows),
        sum(row[-2] == "yes" for row in rows),
        sum(row[-1] == "v=true" for row in rows),
        sum("(hop)" in row for row in rows),
    )
    if summary is None or (int(summary[1]), int(summary[2])) != (
        counts.decisions,
        counts.violations,
    ):
        raise ValueError(f"summary line {lines[end]!r} disagrees with the table")
    return counts


def check_simulation(stdout: bytes, expected: Counts, text: bool) -> list[str]:
    try:
        got = counts_from_text_report(stdout) if text else counts_from_json_report(stdout)
    except (ValueError, KeyError, TypeError, StopIteration, IndexError) as exc:
        return [f"unreadable simulation report: {exc!r}"]
    if got != expected:
        return [f"simulation counts {got}, oracle expects {expected}"]
    return []
