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
import re
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from datetime import date
from json.encoder import encode_basestring_ascii as _ascii
from operator import itemgetter
from pathlib import Path

from .errors import SURROGATE, SchemaError, SimulationError, StageError, decode_json, read_utf8
from .graph import Diagram, Flow, NodeId, Record
from .model import FlowType, NodeType, Stage
from .transform import gadget_index

STATIC_COLUMNS = ("F_id", "Label", "Purpose", "PD", "Data_type")
DYNAMIC_COLUMNS = ("D_id", "F_id", "Dsub", "Consent", "Expiry", "Content")

Compatibility = Callable[[str, frozenset], bool]


class FlowMeta(Record):
    """Static policy row for one data flow."""

    def __init__(self, flow_id: str, label: str, purpose: str, pd: bool, data_type: str) -> None:
        d = self.__dict__
        d["flow_id"] = flow_id
        d["label"] = label
        d["purpose"] = purpose
        d["pd"] = pd
        d["data_type"] = data_type


class DataRecord(Record):
    """One record travelling a flow: subject, consented purposes, expiry."""

    def __init__(
        self, d_id: str, flow_id: str, dsub: str, consent: frozenset[str], expiry: date,
        content: str,
    ) -> None:
        d = self.__dict__
        d["d_id"] = d_id
        d["flow_id"] = flow_id
        d["dsub"] = dsub
        d["consent"] = consent
        d["expiry"] = expiry
        d["content"] = content


class PolicySnapshot(Record):
    """What the limit saw when it decided: purpose asked, consent given,
    expiry in force."""

    def __init__(self, purpose: str, consent: frozenset[str], expiry: date) -> None:
        d = self.__dict__
        d["purpose"] = purpose
        d["consent"] = consent
        d["expiry"] = expiry


class LogEntry(Record):
    def __init__(self, d_id: str, flow_id: str, policy: PolicySnapshot, v: bool, clock: date) -> None:
        d = self.__dict__
        d["d_id"] = d_id
        d["flow_id"] = flow_id
        d["policy"] = policy
        d["v"] = v
        d["clock"] = clock


class StoredRecord(Record):
    def __init__(self, record: DataRecord, stored_at: date) -> None:
        d = self.__dict__
        d["record"] = record
        d["stored_at"] = stored_at


class CleanEvent(Record):
    """One record purged from one store by the cleaning pass."""

    def __init__(self, store: NodeId, d_id: str, expiry: date, clock: date) -> None:
        d = self.__dict__
        d["store"] = store
        d["d_id"] = d_id
        d["expiry"] = expiry
        d["clock"] = clock


class StoreState(Record, frozen=False):
    """Data stores, their policy stores, and the pairing between them.
    Each omitted map is a new empty dict."""

    def __init__(
        self, data: dict[NodeId, dict[str, StoredRecord]] | None = None,
        policies: dict[NodeId, dict[str, PolicySnapshot]] | None = None,
        partners: dict[NodeId, NodeId] | None = None,
    ) -> None:
        d = self.__dict__
        d["data"] = {} if data is None else data
        d["policies"] = {} if policies is None else policies
        d["partners"] = {} if partners is None else partners


class Decision(Record):
    """Outcome of one evaluation: the business diagram forwards everything,
    the privacy-aware one only what the policy allows."""

    def __init__(
        self, d_id: str, flow_id: str, forwarded_bdfd: bool, forwarded_padfd: bool,
        entry: LogEntry, propagated: bool = False,
    ) -> None:
        d = self.__dict__
        d["d_id"] = d_id
        d["flow_id"] = flow_id
        d["forwarded_bdfd"] = forwarded_bdfd
        d["forwarded_padfd"] = forwarded_padfd
        d["entry"] = entry
        d["propagated"] = propagated


class SimulationReport(Record, frozen=False):
    def __init__(
        self, clock: date, decisions: list[Decision], logs: dict[NodeId, list[LogEntry]],
        state: StoreState,
    ) -> None:
        d = self.__dict__
        d["clock"] = clock
        d["decisions"] = decisions
        d["logs"] = logs
        d["state"] = state

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


def compatibility_with_equivalences(
    pairs: Iterable[tuple[str, str]]
) -> Compatibility:
    """Exact matching extended with (consented, covered) purpose pairs for
    deployments whose consent wording differs from flow purposes."""
    return _Coverage(pairs)


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

    ``compatible`` tells whether a record's consent covers a flow's
    purpose; by default the purpose must appear among the consented ones,
    case-insensitively, as with ``compatibility_with_equivalences([])``.
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
    compatible = compatible or _EXACT
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
        # The expiry day itself still forwards; withheld personal data, and
        # only that, is a violation.
        forwarded = not meta.pd or (
            compatible(meta.purpose, record.consent) and clock <= record.expiry
        )
        policy = PolicySnapshot(meta.purpose, record.consent, record.expiry)
        entry = LogEntry(record.d_id, record.flow_id, policy, not forwarded, clock)
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


def _parse_bool(value, where: str) -> bool:
    """A PD field: JSON true or false, or the text True or False in any
    case and padding; anything else is refused."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip().casefold()
        if text in ("true", "false"):
            return text == "true"
    raise SimulationError(f"{where}: PD must be 'True' or 'False', found {value!r}")


def _exact_iso_date(text: str) -> date:
    """The date written as exactly YYYY-MM-DD, else ValueError. The form
    is checked first because `date.fromisoformat` also reads forms such
    as 20200601 and 2020-W23-1 from Python 3.11 on, and not before."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return date.fromisoformat(text)


def _parse_date(text: str, where: str) -> date:
    try:
        return _exact_iso_date(text.strip())
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


def _make_meta(where, flow_id, label, purpose, pd, data_type) -> FlowMeta:
    """A policy row from its fields, in STATIC_COLUMNS order."""
    flow_id = _text(flow_id, "F_id", where)
    if not flow_id:
        raise SimulationError(f"{where}: F_id must not be empty")
    pd = _parse_bool(pd, where)
    purpose = _text(purpose, "Purpose", where)
    if pd and not purpose:
        raise SimulationError(f"{where}: personal-data flows need a purpose")
    return FlowMeta(
        flow_id, _text(label, "Label", where), purpose, pd, _text(data_type, "Data_type", where)
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
    """(where, the row's `columns`) for every row after the header, read
    as csv.DictReader reads them: blank lines are skipped and not
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
        yield f"{what} row {number}", pick(row)


def _rows_from_json(text: str, columns: tuple[str, ...], what: str, path: Path):
    """(where, the row's `columns`) for every object of a JSON list."""
    source = f"{what} table {path}"
    doc = decode_json(text, source)
    if not isinstance(doc, list):
        raise SchemaError(f"{source}: top level must be a list of rows")
    # read_utf8 decodes strictly, so only a \udXXX escape can put a lone
    # surrogate, which no output can carry, into a field.
    escaped = "\\ud" in text or "\\uD" in text
    pick = itemgetter(*columns)
    for index, row in enumerate(doc):
        where = f"{what} row {index}"
        if not isinstance(row, dict):
            raise SchemaError(f"{where}: each row must be an object")
        missing = [c for c in columns if c not in row]
        if missing:
            raise SchemaError(f"{where}: missing keys {missing}")
        fields = pick(row)
        if escaped:
            for key, value in zip(columns, fields):
                for held in value if isinstance(value, list) else (value,):
                    if isinstance(held, str) and re.search(SURROGATE, held):
                        raise SchemaError(f"{where}: {key} {held!r} holds a lone surrogate")
        yield where, fields


def _read_table(path: str | Path, columns: tuple[str, ...], what: str):
    """(where, the row's `columns`) for every row of the `what` table, a
    .json file or else CSV."""
    path = Path(path)
    text = read_utf8(path, f"{what} table")
    if path.suffix.lower() == ".json":
        return _rows_from_json(text, columns, what, path)
    return _rows_from_csv(text, columns, what)


def load_flow_metas(path: str | Path) -> list[FlowMeta]:
    """Read the static policy table from a .csv or .json file."""
    return [_make_meta(where, *fields) for where, fields in _read_table(path, STATIC_COLUMNS, "static")]


def load_data_records(path: str | Path) -> list[DataRecord]:
    """Read the dynamic record table from a .csv or .json file."""
    make = _RecordMaker()
    return [make(where, *fields) for where, fields in _read_table(path, DYNAMIC_COLUMNS, "dynamic")]


def load_equivalences(path: str | Path) -> list[tuple[str, str]]:
    """Read purpose equivalences: a JSON list of [consented, covered] pairs."""
    source = f"equivalence file {path}"
    doc = decode_json(read_utf8(path, "equivalence file"), source)
    if not isinstance(doc, list):
        raise SchemaError(f"{source}: top level must be a list of pairs")
    pairs = []
    for entry in doc:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(part, str) for part in entry)
        ):
            raise SchemaError(f"{source}: bad pair {entry!r}")
        pairs.append((entry[0], entry[1]))
    return pairs


# report_json writes the layout of json.dumps(..., indent=2, sort_keys=True),
# its keys already in sorted order: decisions and log stores sit at indent
# 4, log entries and stored records at 6, and every consent list's items at
# 10.


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
    """The report as JSON text: the clock, each decision, each log store's
    entries with their policy snapshots, and what each policy store and
    data store holds by record id. The layout is the one
    ``json.dumps(..., indent=2, sort_keys=True)`` gives: keys sorted,
    two-space indent, ASCII only, no trailing newline. It is written
    directly, without building a dict."""
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


def report_to_dict(report: SimulationReport) -> dict:
    """The report as `report_json` writes it, read back as a dict."""
    return json.loads(report_json(report))


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
