"""Record-level simulation of a privacy-aware diagram.

Each data record arrives on one of the original (now guarded) data flows.
The gadget's limit forwards it only when the flow carries no personal
data, or the record's consented purposes cover the flow's purpose and the
record has not expired at the simulation clock. Every evaluation writes a
log entry into the gadget's log store; the entry's violation flag is set
exactly when personal data is withheld, which is the observable a DPO
audits. Forwarded store-writes deposit the record and a policy snapshot
in the target store and its policy store; deletion flows remove both; the
cleaning pass purges expired records wholesale.

The plain business diagram, by contrast, forwards everything. Running
both semantics side by side shows what the rewrite actually changes.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import SchemaError, SimulationError, StageError
from .graph import Diagram, NodeId
from .model import FlowType, NodeType, Stage
from .transform import gadget_index

STATIC_COLUMNS = ("F_id", "Label", "Purpose", "PD", "Data_type")
DYNAMIC_COLUMNS = ("D_id", "F_id", "Dsub", "Consent", "Expiry", "Content")

Compatibility = Callable[[str, frozenset], bool]


@dataclass(frozen=True)
class FlowMeta:
    """Static policy row for one data flow."""

    flow_id: str
    label: str
    purpose: str
    pd: bool
    data_type: str


@dataclass(frozen=True)
class DataRecord:
    """One record travelling a flow: subject, consented purposes, expiry."""

    d_id: str
    flow_id: str
    dsub: str
    consent: frozenset[str]
    expiry: date
    content: str


@dataclass(frozen=True)
class PolicySnapshot:
    """What the limit saw when it decided: purpose asked, consent given,
    expiry in force."""

    purpose: str
    consent: frozenset[str]
    expiry: date


@dataclass(frozen=True)
class LogEntry:
    d_id: str
    flow_id: str
    policy: PolicySnapshot
    v: bool
    clock: date


@dataclass(frozen=True)
class StoredRecord:
    record: DataRecord
    stored_at: date


@dataclass(frozen=True)
class CleanEvent:
    """One record purged from one store by the cleaning pass."""

    store: NodeId
    d_id: str
    expiry: date
    clock: date


@dataclass
class StoreState:
    """Data stores, their policy stores, and the pairing between them."""

    data: dict[NodeId, dict[str, StoredRecord]] = field(default_factory=dict)
    policies: dict[NodeId, dict[str, PolicySnapshot]] = field(default_factory=dict)
    partners: dict[NodeId, NodeId] = field(default_factory=dict)


@dataclass(frozen=True)
class Decision:
    """Outcome of one evaluation: the business diagram forwards everything,
    the privacy-aware one only what the policy allows."""

    d_id: str
    flow_id: str
    forwarded_bdfd: bool
    forwarded_padfd: bool
    entry: LogEntry
    propagated: bool = False


@dataclass
class SimulationReport:
    clock: date
    decisions: list[Decision]
    logs: dict[NodeId, list[LogEntry]]
    state: StoreState

    @property
    def entries(self) -> list[LogEntry]:
        return [decision.entry for decision in self.decisions]

    @property
    def violations(self) -> list[LogEntry]:
        return [entry for entry in self.entries if entry.v]


def _norm(text: str) -> str:
    return text.strip().casefold()


def exact_compatibility(purpose: str, consent: frozenset) -> bool:
    """Default purpose check: the flow's purpose must literally appear in
    the record's consented purposes (case-insensitive)."""
    return _norm(purpose) in {_norm(c) for c in consent}


def compatibility_with_equivalences(
    pairs: Iterable[tuple[str, str]]
) -> Compatibility:
    """Exact matching extended with (consented, covered) purpose pairs for
    deployments whose consent wording differs from flow purposes."""
    table = {(_norm(consented), _norm(covered)) for consented, covered in pairs}

    def compatible(purpose: str, consent: frozenset) -> bool:
        if exact_compatibility(purpose, consent):
            return True
        covered = _norm(purpose)
        return any((_norm(c), covered) in table for c in consent)

    return compatible


def _check_binding(meta: FlowMeta, record: DataRecord) -> None:
    if meta.flow_id != record.flow_id:
        raise SimulationError(
            f"record {record.d_id!r} is bound to flow {record.flow_id!r} "
            f"but was evaluated against flow {meta.flow_id!r}"
        )


def evaluate_limit(
    meta: FlowMeta,
    record: DataRecord,
    clock: date,
    *,
    compatible: Compatibility | None = None,
) -> tuple[bool, LogEntry]:
    """Decide one record at one limit.

    Non-personal flows always forward and never violate. Personal flows
    forward only with compatible consent and an unexpired record (the
    expiry day itself still forwards); withheld personal data raises the
    violation flag. A log entry is produced either way.
    """
    _check_binding(meta, record)
    compatible = compatible or exact_compatibility
    if meta.pd:
        forwarded = compatible(meta.purpose, record.consent) and clock <= record.expiry
        violation = not forwarded
    else:
        forwarded = True
        violation = False
    entry = LogEntry(
        d_id=record.d_id,
        flow_id=record.flow_id,
        policy=PolicySnapshot(meta.purpose, record.consent, record.expiry),
        v=violation,
        clock=clock,
    )
    return forwarded, entry


def _initial_state(diagram: Diagram) -> StoreState:
    state = StoreState()
    for node in diagram.nodes.values():
        if node.node_type is NodeType.DB:
            state.data[node.id] = {}
            partner = diagram.nodes.get(node.partner) if node.partner else None
            if partner is not None and partner.node_type is NodeType.POLICY_DB:
                state.partners[node.id] = partner.id
                state.policies[partner.id] = {}
    return state


def run_simulation(
    diagram: Diagram,
    metas: Sequence[FlowMeta],
    records: Sequence[DataRecord],
    clock: date,
    *,
    compatible: Compatibility | None = None,
    multi_hop: bool = False,
) -> SimulationReport:
    """Evaluate every record against the diagram's gadgets.

    Records are processed in input order. With ``multi_hop`` a record
    forwarded into a process re-enters each of that process's outgoing
    guarded flows under the same policy data; flows without a policy row
    are skipped there, and a (record, flow) pair is evaluated at most
    once per arriving record, so cycles terminate.
    """
    if diagram.stage is not Stage.PA:
        raise StageError(
            f"simulation needs a privacy-aware diagram, got {diagram.stage.value}"
        )
    meta_by_flow: dict[str, FlowMeta] = {}
    for meta in metas:
        if meta.flow_id in meta_by_flow:
            raise SimulationError(f"duplicate policy row for flow {meta.flow_id!r}")
        meta_by_flow[meta.flow_id] = meta

    gadgets = gadget_index(diagram)
    for gadget in gadgets.values():
        if gadget.log_db is None:
            raise SimulationError(
                f"guarded flow {gadget.flow!r} has no log chain behind its limit"
            )
    outgoing: dict[NodeId, list[str]] = {}
    for flow_id in sorted(gadgets):
        source = gadgets[flow_id].source
        if source is not None:
            outgoing.setdefault(source, []).append(flow_id)

    state = _initial_state(diagram)
    logs: dict[NodeId, list[LogEntry]] = {
        n.id: [] for n in diagram.nodes.values() if n.node_type is NodeType.LOG_DB
    }
    decisions: list[Decision] = []

    def evaluate(record: DataRecord, propagated: bool) -> bool:
        flow = diagram.flows.get(record.flow_id)
        if flow is None:
            raise SimulationError(f"record {record.d_id!r} names unknown flow {record.flow_id!r}")
        gadget = gadgets.get(record.flow_id)
        if gadget is None:
            raise SimulationError(
                f"flow {record.flow_id!r} is not a guarded data flow; records "
                "travel the flows of the original diagram"
            )
        meta = meta_by_flow.get(record.flow_id)
        if meta is None:
            raise SimulationError(f"no policy row for flow {record.flow_id!r}")
        forwarded, entry = evaluate_limit(meta, record, clock, compatible=compatible)
        logs[gadget.log_db].append(entry)
        decisions.append(
            Decision(
                d_id=record.d_id,
                flow_id=record.flow_id,
                forwarded_bdfd=True,
                forwarded_padfd=forwarded,
                entry=entry,
                propagated=propagated,
            )
        )
        if not forwarded:
            return False
        if flow.flow_type is FlowType.LIMDB:
            store = flow.target
            if store not in state.partners:
                raise SimulationError(
                    f"data store {store!r} has no policy store; cannot deposit"
                )
            state.data[store][record.d_id] = StoredRecord(record, clock)
            state.policies[state.partners[store]][record.d_id] = entry.policy
        elif flow.flow_type is FlowType.LIMDB_DEL:
            store = flow.target
            state.data.get(store, {}).pop(record.d_id, None)
            policy_store = state.partners.get(store)
            if policy_store is not None:
                state.policies[policy_store].pop(record.d_id, None)
        return True

    for record in records:
        forwarded = evaluate(record, propagated=False)
        if not multi_hop or not forwarded:
            continue
        visited = {(record.d_id, record.flow_id)}
        queue = deque([record])
        while queue:
            current = queue.popleft()
            flow = diagram.flows[current.flow_id]
            if flow.flow_type is not FlowType.LIMPRO:
                continue
            for next_flow in outgoing.get(flow.target, ()):
                key = (current.d_id, next_flow)
                if key in visited or next_flow not in meta_by_flow:
                    continue
                visited.add(key)
                hop = replace(current, flow_id=next_flow)
                if evaluate(hop, propagated=True):
                    queue.append(hop)

    return SimulationReport(clock=clock, decisions=decisions, logs=logs, state=state)


def run_clean(state: StoreState, clock: date) -> tuple[StoreState, list[CleanEvent]]:
    """Purge every stored record whose expiry lies strictly before the
    clock, from data store and policy store alike. Pure: returns the new
    state plus one event per removal, ordered by (store, record)."""
    new_data = {store: dict(records) for store, records in state.data.items()}
    new_policies = {store: dict(snaps) for store, snaps in state.policies.items()}
    events: list[CleanEvent] = []
    for store in sorted(state.data):
        policy_store = state.partners.get(store)
        for d_id in sorted(state.data[store]):
            snapshot = new_policies.get(policy_store, {}).get(d_id)
            expiry = (
                snapshot.expiry
                if snapshot is not None
                else state.data[store][d_id].record.expiry
            )
            if expiry < clock:
                del new_data[store][d_id]
                if policy_store is not None:
                    new_policies[policy_store].pop(d_id, None)
                events.append(CleanEvent(store, d_id, expiry, clock))
    return StoreState(new_data, new_policies, dict(state.partners)), events


def _parse_bool(text: str, where: str) -> bool:
    value = text.strip().casefold()
    if value == "true":
        return True
    if value == "false":
        return False
    raise SimulationError(f"{where}: PD must be 'True' or 'False', found {text!r}")


def _parse_date(text: str, where: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise SimulationError(
            f"{where}: expected an ISO date (YYYY-MM-DD), found {text!r}"
        ) from None


def _parse_consent(value, where: str) -> frozenset[str]:
    if isinstance(value, str):
        purposes = [part.strip() for part in value.split(";")]
    elif isinstance(value, list) and all(isinstance(p, str) for p in value):
        purposes = [part.strip() for part in value]
    else:
        raise SimulationError(f"{where}: consent must be a ';'-separated string or list")
    purposes = [p for p in purposes if p]
    if not purposes:
        raise SimulationError(f"{where}: consent must list at least one purpose")
    return frozenset(purposes)


def _text_field(row: dict, key: str, where: str) -> str:
    value = row[key]
    if not isinstance(value, str):
        raise SimulationError(f"{where}: {key} must be a string, found {value!r}")
    return value.strip()


def _make_meta(row: dict, where: str) -> FlowMeta:
    flow_id = _text_field(row, "F_id", where)
    if not flow_id:
        raise SimulationError(f"{where}: F_id must not be empty")
    pd_raw = row["PD"]
    pd = _parse_bool(pd_raw, where) if isinstance(pd_raw, str) else bool(pd_raw)
    purpose = _text_field(row, "Purpose", where)
    if pd and not purpose:
        raise SimulationError(f"{where}: personal-data flows need a purpose")
    return FlowMeta(
        flow_id=flow_id,
        label=_text_field(row, "Label", where),
        purpose=purpose,
        pd=pd,
        data_type=_text_field(row, "Data_type", where),
    )


def _make_record(row: dict, where: str) -> DataRecord:
    d_id = _text_field(row, "D_id", where)
    flow_id = _text_field(row, "F_id", where)
    if not d_id or not flow_id:
        raise SimulationError(f"{where}: D_id and F_id must not be empty")
    return DataRecord(
        d_id=d_id,
        flow_id=flow_id,
        dsub=_text_field(row, "Dsub", where),
        consent=_parse_consent(row["Consent"], where),
        expiry=_parse_date(_text_field(row, "Expiry", where), where),
        content=_text_field(row, "Content", where),
    )


def _rows_from_csv(text: str, columns: tuple[str, ...], what: str):
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    missing = [c for c in columns if c not in header]
    if missing:
        raise SimulationError(
            f"{what} table is missing columns {missing}; expected header "
            f"{','.join(columns)}"
        )
    for index, row in enumerate(reader, start=2):
        yield f"{what} row {index}", {c: (row[c] or "") for c in columns}


def _rows_from_json(text: str, columns: tuple[str, ...], what: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} table: not valid JSON ({exc})") from None
    if not isinstance(doc, list):
        raise SchemaError(f"{what} table: top level must be a list of rows")
    for index, row in enumerate(doc):
        where = f"{what} row {index}"
        if not isinstance(row, dict):
            raise SchemaError(f"{where}: each row must be an object")
        missing = [c for c in columns if c not in row]
        if missing:
            raise SchemaError(f"{where}: missing keys {missing}")
        yield where, row


def parse_flow_metas(text: str, *, json_format: bool = False) -> list[FlowMeta]:
    rows = (
        _rows_from_json(text, STATIC_COLUMNS, "static")
        if json_format
        else _rows_from_csv(text, STATIC_COLUMNS, "static")
    )
    return [_make_meta(row, where) for where, row in rows]


def parse_data_records(text: str, *, json_format: bool = False) -> list[DataRecord]:
    rows = (
        _rows_from_json(text, DYNAMIC_COLUMNS, "dynamic")
        if json_format
        else _rows_from_csv(text, DYNAMIC_COLUMNS, "dynamic")
    )
    return [_make_record(row, where) for where, row in rows]


def load_flow_metas(path: str | Path) -> list[FlowMeta]:
    """Read the static policy table from a .csv or .json file."""
    path = Path(path)
    return parse_flow_metas(
        path.read_text(encoding="utf-8"), json_format=path.suffix.lower() == ".json"
    )


def load_data_records(path: str | Path) -> list[DataRecord]:
    """Read the dynamic record table from a .csv or .json file."""
    path = Path(path)
    return parse_data_records(
        path.read_text(encoding="utf-8"), json_format=path.suffix.lower() == ".json"
    )


def load_equivalences(path: str | Path) -> list[tuple[str, str]]:
    """Read purpose equivalences: a JSON list of [consented, covered] pairs."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"equivalence file: not valid JSON ({exc})") from None
    if not isinstance(doc, list):
        raise SchemaError("equivalence file: top level must be a list of pairs")
    pairs = []
    for entry in doc:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(part, str) for part in entry)
        ):
            raise SchemaError(f"equivalence file: bad pair {entry!r}")
        pairs.append((entry[0], entry[1]))
    return pairs


def _entry_dict(entry: LogEntry) -> dict:
    return {
        "d_id": entry.d_id,
        "flow_id": entry.flow_id,
        "purpose": entry.policy.purpose,
        "consent": sorted(entry.policy.consent),
        "expiry": entry.policy.expiry.isoformat(),
        "v": entry.v,
        "clock": entry.clock.isoformat(),
    }


def report_to_dict(report: SimulationReport) -> dict:
    """JSON-ready view of a report (deterministic for a given run)."""
    return {
        "clock": report.clock.isoformat(),
        "decisions": [
            {
                "d_id": d.d_id,
                "flow_id": d.flow_id,
                "forwarded_bdfd": d.forwarded_bdfd,
                "forwarded_padfd": d.forwarded_padfd,
                "violation": d.entry.v,
                "propagated": d.propagated,
            }
            for d in report.decisions
        ],
        "logs": {
            store: [_entry_dict(e) for e in entries]
            for store, entries in sorted(report.logs.items())
        },
        "stores": {
            store: {
                d_id: {"stored_at": stored.stored_at.isoformat()}
                for d_id, stored in sorted(records.items())
            }
            for store, records in sorted(report.state.data.items())
        },
        "policies": {
            store: {
                d_id: {
                    "purpose": snap.purpose,
                    "consent": sorted(snap.consent),
                    "expiry": snap.expiry.isoformat(),
                }
                for d_id, snap in sorted(snaps.items())
            }
            for store, snaps in sorted(report.state.policies.items())
        },
    }


def render_report(report: SimulationReport) -> str:
    """Human-readable forwarding table plus log and store summaries."""
    rows = [("D_id", "F_id", "B-DFD", "PA-DFD", "Violation")]
    for decision in report.decisions:
        rows.append(
            (
                decision.d_id,
                decision.flow_id + (" (hop)" if decision.propagated else ""),
                "yes" if decision.forwarded_bdfd else "no",
                "yes" if decision.forwarded_padfd else "no",
                "v=true" if decision.entry.v else "-",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = [f"clock: {report.clock.isoformat()}"]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    total = len(report.decisions)
    lines.append(f"log entries: {total} (violations: {len(report.violations)})")
    for store in sorted(report.state.data):
        held = ", ".join(sorted(report.state.data[store])) or "-"
        lines.append(f"store {store}: {held}")
    return "\n".join(lines) + "\n"
