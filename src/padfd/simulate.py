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
from collections import deque
from dataclasses import dataclass, field
from datetime import date
from json.encoder import encode_basestring_ascii as _ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import SchemaError, SimulationError, StageError, decode_json, read_utf8
from .graph import Diagram, Flow, NodeId
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


class _Coverage:
    """Purpose compatibility as a table: each normalised purpose maps to
    the normalised consented purposes that cover it, itself included; a
    purpose no pair names is covered by itself alone. A consent set is
    compatible with a purpose exactly when its normalised purposes meet
    that purpose's cover."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()) -> None:
        self.covers: dict[str, set[str]] = {}
        for consented, covered in pairs:
            purpose = _norm(covered)
            self.covers.setdefault(purpose, {purpose}).add(_norm(consented))

    def __call__(self, purpose: str, consent: frozenset) -> bool:
        wanted = _norm(purpose)
        held = map(str.casefold, map(str.strip, consent))  # _norm of each, without a Python call
        cover = self.covers.get(wanted)
        return wanted in held if cover is None else not cover.isdisjoint(held)


_EXACT = _Coverage()


def exact_compatibility(purpose: str, consent: frozenset) -> bool:
    """Default purpose check: the flow's purpose must literally appear in
    the record's consented purposes (case-insensitive)."""
    return _EXACT(purpose, consent)


def compatibility_with_equivalences(
    pairs: Iterable[tuple[str, str]]
) -> Compatibility:
    """Exact matching extended with (consented, covered) purpose pairs for
    deployments whose consent wording differs from flow purposes."""
    return _Coverage(pairs)


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
    if meta.flow_id != record.flow_id:
        raise SimulationError(
            f"record {record.d_id!r} is bound to flow {record.flow_id!r} "
            f"but was evaluated against flow {meta.flow_id!r}"
        )
    if meta.pd:
        compatible = compatible or exact_compatibility
        forwarded = compatible(meta.purpose, record.consent) and clock <= record.expiry
    else:
        forwarded = True
    policy = PolicySnapshot(meta.purpose, record.consent, record.expiry)
    # Withheld personal data, and only that, is a violation.
    return forwarded, LogEntry(record.d_id, record.flow_id, policy, not forwarded, clock)


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
    # Each flow id is resolved once, at its first record, to its flow,
    # policy row and log; an unusable flow fails at that record.
    routes: dict[str, tuple[Flow, FlowMeta, list[LogEntry]]] = {}

    def route(record: DataRecord) -> tuple[Flow, FlowMeta, list[LogEntry]]:
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
        routes[record.flow_id] = resolved = (flow, meta, logs[gadget.log_db])
        return resolved

    def evaluate(record: DataRecord, propagated: bool) -> bool:
        flow, meta, log = routes.get(record.flow_id) or route(record)
        forwarded, entry = evaluate_limit(meta, record, clock, compatible=compatible)
        log.append(entry)
        decisions.append(
            Decision(record.d_id, record.flow_id, True, forwarded, entry, propagated)
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
            flow = routes[current.flow_id][0]
            if flow.flow_type is not FlowType.LIMPRO:
                continue
            for next_flow in outgoing.get(flow.target, ()):
                key = (current.d_id, next_flow)
                if key in visited or next_flow not in meta_by_flow:
                    continue
                visited.add(key)
                hop = DataRecord(
                    current.d_id, next_flow, current.dsub, current.consent,
                    current.expiry, current.content,
                )
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


def _text(value, key: str, where: str) -> str:
    if not isinstance(value, str):
        raise SimulationError(f"{where}: {key} must be a string, found {value!r}")
    return value.strip()


def _text_field(row: dict, key: str, where: str) -> str:
    return _text(row[key], key, where)


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


class _RecordMaker:
    """Builds records from a row's fields, in DYNAMIC_COLUMNS order,
    parsing each distinct consent and expiry text once."""

    def __init__(self) -> None:
        self.consents: dict[str, frozenset[str]] = {}
        self.expiries: dict[str, date] = {}

    def __call__(self, where, d_id, flow_id, dsub, consent, expiry, content) -> DataRecord:
        d_id = _text(d_id, "D_id", where)
        flow_id = _text(flow_id, "F_id", where)
        if not d_id or not flow_id:
            raise SimulationError(f"{where}: D_id and F_id must not be empty")
        dsub = _text(dsub, "Dsub", where)
        if isinstance(consent, str):
            parsed = self.consents.get(consent)
            if parsed is None:
                parsed = self.consents[consent] = _parse_consent(consent, where)
        else:
            parsed = _parse_consent(consent, where)
        expiry = _text(expiry, "Expiry", where)
        expires = self.expiries.get(expiry)
        if expires is None:
            expires = self.expiries[expiry] = _parse_date(expiry, where)
        return DataRecord(d_id, flow_id, dsub, parsed, expires, _text(content, "Content", where))


def _rows_from_csv(text: str, columns: tuple[str, ...], what: str):
    """(row number, the row's `columns`) for every row after the header,
    read as csv.DictReader reads them: blank lines are skipped and not
    numbered, a short row reads "" for its missing fields, extra fields
    are ignored, and a repeated header name takes its last column."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None) or []
    missing = [c for c in columns if c not in header]
    if missing:
        raise SimulationError(
            f"{what} table is missing columns {missing}; expected header "
            f"{','.join(columns)}"
        )
    last = {name: index for index, name in enumerate(header)}
    picks = [last[c] for c in columns]
    pick = itemgetter(*picks)
    width = max(picks) + 1
    for number, row in enumerate(filter(None, reader), start=2):
        if len(row) < width:
            row += [""] * (width - len(row))
        yield number, pick(row)


def _rows_from_json(text: str, columns: tuple[str, ...], what: str, source: str):
    doc = decode_json(text, source)
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


def parse_flow_metas(
    text: str, *, json_format: bool = False, source: str = "static table"
) -> list[FlowMeta]:
    """The static policy table in `text`; `source` names it in errors."""
    if json_format:
        rows = _rows_from_json(text, STATIC_COLUMNS, "static", source)
    else:
        rows = (
            (f"static row {number}", dict(zip(STATIC_COLUMNS, values)))
            for number, values in _rows_from_csv(text, STATIC_COLUMNS, "static")
        )
    return [_make_meta(row, where) for where, row in rows]


def parse_data_records(
    text: str, *, json_format: bool = False, source: str = "dynamic table"
) -> list[DataRecord]:
    """The dynamic record table in `text`; `source` names it in errors."""
    make = _RecordMaker()
    if json_format:
        return [
            make(where, *[row[key] for key in DYNAMIC_COLUMNS])
            for where, row in _rows_from_json(text, DYNAMIC_COLUMNS, "dynamic", source)
        ]
    return [
        make(f"dynamic row {number}", *fields)
        for number, fields in _rows_from_csv(text, DYNAMIC_COLUMNS, "dynamic")
    ]


def load_flow_metas(path: str | Path) -> list[FlowMeta]:
    """Read the static policy table from a .csv or .json file."""
    path = Path(path)
    return parse_flow_metas(
        read_utf8(path, "static table"),
        json_format=path.suffix.lower() == ".json",
        source=f"static table {path}",
    )


def load_data_records(path: str | Path) -> list[DataRecord]:
    """Read the dynamic record table from a .csv or .json file."""
    path = Path(path)
    return parse_data_records(
        read_utf8(path, "dynamic table"),
        json_format=path.suffix.lower() == ".json",
        source=f"dynamic table {path}",
    )


def load_equivalences(path: str | Path) -> list[tuple[str, str]]:
    """Read purpose equivalences: a JSON list of [consented, covered] pairs."""
    doc = decode_json(read_utf8(path, "equivalence file"), f"equivalence file {path}")
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


# report_json writes the layout that json.dumps(report_to_dict(report),
# indent=2, sort_keys=True) gives, its keys already in sorted order:
# decisions and log stores sit at indent 4, log entries and stored records
# at 6, and every consent list's items at 10.


def _block(items: list[str], indent: str, brackets: str) -> str:
    """A JSON array or object ("[]" or "{}") of items written already, one
    level deeper than `indent`."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def _consent_text(consent: frozenset) -> str:
    return _block(["          " + _ascii(purpose) for purpose in sorted(consent)], "        ", "[]")


def _log_text(entries: list[LogEntry]) -> str:
    return _block(
        [
            f'      {{\n        "clock": "{e.clock.isoformat()}",\n'
            f'        "consent": {_consent_text(e.policy.consent)},\n'
            f'        "d_id": {_ascii(e.d_id)},\n'
            f'        "expiry": "{e.policy.expiry.isoformat()}",\n'
            f'        "flow_id": {_ascii(e.flow_id)},\n'
            f'        "purpose": {_ascii(e.policy.purpose)},\n'
            f'        "v": {"true" if e.v else "false"}\n      }}'
            for e in entries
        ],
        "    ",
        "[]",
    )


def _snapshot_text(snap: PolicySnapshot) -> str:
    return (
        f'{{\n        "consent": {_consent_text(snap.consent)},\n'
        f'        "expiry": "{snap.expiry.isoformat()}",\n'
        f'        "purpose": {_ascii(snap.purpose)}\n      }}'
    )


def _stored_text(stored: StoredRecord) -> str:
    return f'{{\n        "stored_at": "{stored.stored_at.isoformat()}"\n      }}'


def _stores_text(stores: dict, value_text: Callable) -> str:
    """Stores by id, each holding its values by record id."""
    return _block(
        [
            f"    {_ascii(store)}: "
            + _block(
                [f"      {_ascii(d_id)}: {value_text(value)}" for d_id, value in sorted(held.items())],
                "    ",
                "{}",
            )
            for store, held in sorted(stores.items())
        ],
        "  ",
        "{}",
    )


def report_json(report: SimulationReport) -> str:
    """The report as JSON text, byte-identical to
    ``json.dumps(report_to_dict(report), indent=2, sort_keys=True)``: keys
    sorted, two-space indent, ASCII only, no trailing newline. It is
    written directly, without building that dict."""
    decisions = _block(
        [
            f'    {{\n      "d_id": {_ascii(d.d_id)},\n'
            f'      "flow_id": {_ascii(d.flow_id)},\n'
            f'      "forwarded_bdfd": {"true" if d.forwarded_bdfd else "false"},\n'
            f'      "forwarded_padfd": {"true" if d.forwarded_padfd else "false"},\n'
            f'      "propagated": {"true" if d.propagated else "false"},\n'
            f'      "violation": {"true" if d.entry.v else "false"}\n    }}'
            for d in report.decisions
        ],
        "  ",
        "[]",
    )
    logs = _block(
        [f"    {_ascii(store)}: {_log_text(entries)}" for store, entries in sorted(report.logs.items())],
        "  ",
        "{}",
    )
    return (
        f'{{\n  "clock": "{report.clock.isoformat()}",\n'
        f'  "decisions": {decisions},\n'
        f'  "logs": {logs},\n'
        f'  "policies": {_stores_text(report.state.policies, _snapshot_text)},\n'
        f'  "stores": {_stores_text(report.state.data, _stored_text)}\n}}'
    )


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
