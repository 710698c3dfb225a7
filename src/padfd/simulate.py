"""Record-level simulation of a privacy-aware diagram.

Each data record arrives on one of the original (now guarded) data flows.
The gadget's limit forwards it only when the flow carries no personal
data, or the record's consented purposes cover the flow's purpose and the
record has not expired at the simulation clock. Each evaluation is one
`Decision`, which is also the entry the gadget's log store keeps; its
violation flag is set exactly when personal data is withheld, which is
the observable a DPO audits. Forwarded store-writes deposit the record
itself in the target store and the policy the limit saw in its policy
store; deletion flows remove both; the cleaning pass purges expired
records wholesale. Everything a run logs or stores, it does at its clock.

The plain business diagram, by contrast, forwards everything. Running
both semantics side by side shows what the rewrite actually changes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from datetime import date
from json.encoder import encode_basestring_ascii as _ascii
from operator import itemgetter

from .errors import SURROGATE, SchemaError, SimulationError, StageError, decode_json, read_utf8
from .graph import Diagram, Flow, NodeId, Record, printable
from .model import FlowType, NodeType, Stage
from .validate import read_parts

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


class CleanEvent(Record):
    """One record purged from one store by the cleaning pass."""

    def __init__(self, store: NodeId, d_id: str, expiry: date) -> None:
        d = self.__dict__
        d["store"] = store
        d["d_id"] = d_id
        d["expiry"] = expiry


class StoreState(Record):
    """Data stores holding records, their policy stores holding the policy
    each record was stored under, and the pairing between them. Each
    omitted map is a new empty dict."""

    def __init__(
        self, data: dict[NodeId, dict[str, DataRecord]] | None = None,
        policies: dict[NodeId, dict[str, PolicySnapshot]] | None = None,
        partners: dict[NodeId, NodeId] | None = None,
    ) -> None:
        d = self.__dict__
        d["data"] = {} if data is None else data
        d["policies"] = {} if policies is None else policies
        d["partners"] = {} if partners is None else partners


class Decision(Record):
    """One evaluation by a limit, kept as the entry of its log store; `v`
    is set exactly when personal data is withheld. The business diagram
    forwards every record, the privacy-aware one all but the violations."""

    def __init__(
        self, d_id: str, flow_id: str, policy: PolicySnapshot, v: bool, propagated: bool = False,
    ) -> None:
        d = self.__dict__
        d["d_id"] = d_id
        d["flow_id"] = flow_id
        d["policy"] = policy
        d["v"] = v
        d["propagated"] = propagated

    @property
    def forwarded_padfd(self) -> bool:
        return not self.v


class SimulationReport(Record):
    def __init__(
        self, clock: date, decisions: list[Decision], logs: dict[NodeId, list[Decision]],
        state: StoreState,
    ) -> None:
        d = self.__dict__
        d["clock"] = clock
        d["decisions"] = decisions
        d["logs"] = logs
        d["state"] = state

    @property
    def violations(self) -> list[Decision]:
        return [decision for decision in self.decisions if decision.v]


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
        # _norm of the purpose and of each consent, without a Python call.
        wanted = purpose.strip().casefold()
        held = map(str.casefold, map(str.strip, consent))
        cover = self.covers.get(wanted)
        return wanted in held if cover is None else not cover.isdisjoint(held)


_EXACT = _Coverage()


def compatibility_with_equivalences(
    pairs: Iterable[tuple[str, str]]
) -> Compatibility:
    """Exact matching extended with (consented, covered) purpose pairs for
    deployments whose consent wording differs from flow purposes."""
    return _Coverage(pairs)


def run_simulation(
    diagram: Diagram,
    metas: Sequence[FlowMeta],
    records: Sequence[DataRecord],
    clock: date,
    *,
    compatible: Compatibility | None = None,
    multi_hop: bool = False,
) -> SimulationReport:
    """Evaluate every record against the diagram's gadgets: one
    `Decision` per evaluation, appended both to the report's decisions and
    to the log of the flow's gadget.

    ``compatible`` tells whether a record's consent covers a flow's
    purpose; by default the purpose must appear among the consented ones,
    case-insensitively, as with ``compatibility_with_equivalences([])``.
    It is called once per evaluation of a personal-data record on or
    before its expiry, and never for an expired record or a flow without
    personal data. Records are processed in input order. With
    ``multi_hop`` a record forwarded into a process re-enters each of that
    process's outgoing guarded flows under the same policy data; flows
    without a policy row are skipped there, and a (record, flow) pair is
    evaluated at most once per arriving record, so cycles terminate.
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

    gadgets, holders = read_parts(diagram)
    log_of: dict[str, NodeId] = {}
    for flow_id, log_db in zip(gadgets["flow"], gadgets["log_db"]):
        if log_db is None:
            raise SimulationError(f"guarded flow {flow_id!r} has no log chain behind its limit")
        log_of[flow_id] = log_db
    logs: dict[NodeId, list[Decision]] = {log_db: [] for log_db in log_of.values()}
    outgoing: dict[NodeId, list[str]] = {}
    for flow_id, source in sorted(zip(gadgets["flow"], gadgets["source"])):
        if source is not None and flow_id in meta_by_flow:
            outgoing.setdefault(source, []).append(flow_id)
    # The data stores, each with its policy store where it has one.
    state = StoreState()
    stores = holders[NodeType.DB]
    for store, policy_store in zip(stores["owner"], stores["policy_db"]):
        state.data[store] = {}
        if policy_store is not None:
            state.partners[store] = policy_store
            state.policies[policy_store] = {}
    decisions: list[Decision] = []
    # Each flow id is resolved once, at its first record, to its flow,
    # policy row, log and onward hops (the policy-row flows leaving a
    # limpro flow's process); an unusable flow fails at that record.
    routes: dict[str, tuple[Flow, FlowMeta, list[Decision], list[str]]] = {}

    def route(record: DataRecord, flow_id: str) -> tuple[Flow, FlowMeta, list[Decision], list[str]]:
        flow = diagram.flows.get(flow_id)
        if flow is None:
            raise SimulationError(f"record {record.d_id!r} names unknown flow {flow_id!r}")
        log = log_of.get(flow_id)
        if log is None:
            raise SimulationError(
                f"record {record.d_id!r} names flow {flow_id!r}, which is not a guarded "
                "data flow; records travel the flows of the original diagram"
            )
        meta = meta_by_flow.get(flow_id)
        if meta is None:
            raise SimulationError(f"record {record.d_id!r} names flow {flow_id!r}, which has no policy row")
        onward = outgoing.get(flow.target, []) if flow.flow_type is FlowType.LIMPRO else []
        routes[flow_id] = resolved = (flow, meta, logs[log], onward)
        return resolved

    def evaluate(record: DataRecord, flow_id: str, propagated: bool) -> list[str] | None:
        """Decide `record` on `flow_id`, another flow than its own for a
        hop; the flow's onward hops if the limit forwards it, else None."""
        flow, meta, log, onward = routes.get(flow_id) or route(record, flow_id)
        # The expiry day itself still forwards; withheld personal data, and
        # only that, is a violation.
        forwarded = not meta.pd or (
            clock <= record.expiry and compatible(meta.purpose, record.consent)
        )
        policy = PolicySnapshot(meta.purpose, record.consent, record.expiry)
        decision = Decision(record.d_id, flow_id, policy, not forwarded, propagated)
        log.append(decision)
        decisions.append(decision)
        if not forwarded:
            return None
        if flow.flow_type is FlowType.LIMDB:
            store = flow.target
            if store not in state.partners:
                raise SimulationError(
                    f"data store {store!r} has no policy store; cannot deposit"
                )
            if propagated:  # the store keeps the hop, the record on this flow
                record = DataRecord(
                    record.d_id, flow_id, record.dsub, record.consent, record.expiry, record.content
                )
            state.data[store][record.d_id] = record
            state.policies[state.partners[store]][record.d_id] = policy
        elif flow.flow_type is FlowType.LIMDB_DEL:
            store = flow.target
            state.data.get(store, {}).pop(record.d_id, None)
            policy_store = state.partners.get(store)
            if policy_store is not None:
                state.policies[policy_store].pop(record.d_id, None)
        return onward

    for record in records:
        onward = evaluate(record, record.flow_id, False)
        if not multi_hop or not onward:
            continue
        # Every hop is the arriving record on another flow, so flow ids
        # alone key the walk.
        visited = {record.flow_id}
        queue = deque([onward])
        while queue:
            for next_flow in queue.popleft():
                if next_flow not in visited:
                    visited.add(next_flow)
                    onward = evaluate(record, next_flow, True)
                    if onward:
                        queue.append(onward)

    return SimulationReport(clock=clock, decisions=decisions, logs=logs, state=state)


def run_clean(state: StoreState, clock: date) -> tuple[StoreState, list[CleanEvent]]:
    """Purge every stored record whose expiry lies strictly before the
    clock, from data store and policy store alike. Pure: returns the new
    state plus one event per removal, ordered by (store, record)."""
    new_data = {store: dict(records) for store, records in state.data.items()}
    new_policies = {store: dict(snaps) for store, snaps in state.policies.items()}
    events: list[CleanEvent] = []
    for store in sorted(state.data):
        # A policy store that is missing, or that no partner names, holds
        # no snapshots.
        snapshots = new_policies.get(state.partners.get(store), {})
        for d_id in sorted(state.data[store]):
            snapshot = snapshots.get(d_id)
            expiry = snapshot.expiry if snapshot is not None else state.data[store][d_id].expiry
            if expiry < clock:
                del new_data[store][d_id]
                snapshots.pop(d_id, None)
                events.append(CleanEvent(store, d_id, expiry))
    return StoreState(new_data, new_policies, dict(state.partners)), events


def _parse_bool(value, source: str, number: int) -> bool:
    """A PD field: JSON true or false, or the text True or False in any
    case and padding; anything else is refused."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip().casefold()
        if text in ("true", "false"):
            return text == "true"
    raise SimulationError(f"{_row(source, number)}: PD must be 'True' or 'False', found {value!r}")


def _exact_iso_date(text: str) -> date:
    """The date written as exactly YYYY-MM-DD, else ValueError. The form
    is checked first because `date.fromisoformat` also reads forms such
    as 20200601 and 2020-W23-1 from Python 3.11 on, and not before."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return date.fromisoformat(text)


def _row(source: str, number: int) -> str:
    return f"{source} row {number}"


def _parse_date(text: str, source: str, number: int) -> date:
    try:
        return _exact_iso_date(text.strip())
    except ValueError:
        raise SimulationError(
            f"{_row(source, number)}: expected an ISO date (YYYY-MM-DD), found {text!r}"
        ) from None


def _parse_consent(value, source: str, number: int) -> frozenset[str]:
    if isinstance(value, str):
        value = value.split(";")
    elif not (isinstance(value, list) and all(isinstance(p, str) for p in value)):
        raise SimulationError(f"{_row(source, number)}: consent must be a ';'-separated string or list")
    purposes = frozenset(filter(None, map(str.strip, value)))
    if not purposes:
        raise SimulationError(f"{_row(source, number)}: consent must list at least one purpose")
    return purposes


def _text(value, key: str, source: str, number: int) -> str:
    if not isinstance(value, str):
        raise SimulationError(f"{_row(source, number)}: {key} must be a string, found {value!r}")
    return value.strip()


def _make_meta(source, number, flow_id, label, purpose, pd, data_type) -> FlowMeta:
    """A policy row from its fields, in STATIC_COLUMNS order."""
    flow_id = _text(flow_id, "F_id", source, number)
    if not flow_id:
        raise SimulationError(f"{_row(source, number)}: F_id must not be empty")
    pd = _parse_bool(pd, source, number)
    purpose = _text(purpose, "Purpose", source, number)
    if pd and not purpose:
        raise SimulationError(f"{_row(source, number)}: personal-data flows need a purpose")
    label = _text(label, "Label", source, number)
    return FlowMeta(flow_id, label, purpose, pd, _text(data_type, "Data_type", source, number))


class _RecordMaker:
    """Builds records from the fields of a row of the dynamic table, in
    DYNAMIC_COLUMNS order, parsing each distinct consent and expiry text
    once. `_text` checks only a field that is not a str, as in JSON."""

    def __init__(self) -> None:
        self.consents: dict[str, frozenset[str]] = {}
        self.expiries: dict[str, date] = {}

    def __call__(self, source, number, d_id, flow_id, dsub, consent, expiry, content) -> DataRecord:
        d_id = d_id.strip() if type(d_id) is str else _text(d_id, "D_id", source, number)
        flow_id = flow_id.strip() if type(flow_id) is str else _text(flow_id, "F_id", source, number)
        if not d_id or not flow_id:
            raise SimulationError(f"{_row(source, number)}: D_id and F_id must not be empty")
        dsub = dsub.strip() if type(dsub) is str else _text(dsub, "Dsub", source, number)
        if type(consent) is not str:
            parsed = _parse_consent(consent, source, number)
        elif (parsed := self.consents.get(consent)) is None:
            parsed = self.consents[consent] = _parse_consent(consent, source, number)
        if type(expiry) is not str:
            _text(expiry, "Expiry", source, number)
        if (expires := self.expiries.get(expiry)) is None:
            expires = self.expiries[expiry] = _parse_date(expiry.strip(), source, number)
        content = content.strip() if type(content) is str else _text(content, "Content", source, number)
        return DataRecord(d_id, flow_id, dsub, parsed, expires, content)


def _rows_from_csv(text: str, columns: tuple[str, ...], source: str):
    """(number, the row's `columns`) for every row after the header, read
    as csv.DictReader reads them: blank lines are skipped and not
    numbered, a short row reads "" for its missing fields, extra fields
    are ignored, and a repeated header name takes its last column. Text
    the csv module cannot read, such as a field over its size limit, and a
    NUL byte, which only Python 3.10's reader refuses itself, raise
    SchemaError naming the file and the line."""
    if "\0" in text:
        line = text.count("\n", 0, text.index("\0")) + 1
        raise SchemaError(f"{source} line {line}: holds a NUL byte")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None) or []
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(
                f"{source}: missing columns {missing}; expected header {','.join(columns)}"
            )
        last = {name: index for index, name in enumerate(header)}
        picks = [last[c] for c in columns]
        pick = itemgetter(*picks)
        width = max(picks) + 1
        for number, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:
                row += [""] * (width - len(row))
            yield number, pick(row)
    except csv.Error as exc:
        raise SchemaError(f"{source} line {reader.line_num}: {exc}") from None


def _rows_from_json(text: str, columns: tuple[str, ...], source: str):
    """(index, the row's `columns`) for every object of a JSON list."""
    doc = decode_json(text, source)
    if not isinstance(doc, list):
        raise SchemaError(f"{source}: top level must be a list of rows")
    # read_utf8 decodes strictly, so only a \udXXX escape can put a lone
    # surrogate, which no output can carry, into a field.
    escaped = "\\ud" in text or "\\uD" in text
    pick = itemgetter(*columns)
    for index, row in enumerate(doc):
        if not isinstance(row, dict):
            raise SchemaError(f"{_row(source, index)}: each row must be an object")
        missing = [c for c in columns if c not in row]
        if missing:
            raise SchemaError(f"{_row(source, index)}: missing columns {missing}")
        fields = pick(row)
        if escaped:
            for key, value in zip(columns, fields):
                for held in value if isinstance(value, list) else (value,):
                    if isinstance(held, str) and re.search(SURROGATE, held):
                        raise SchemaError(f"{_row(source, index)}: {key} {held!r} holds a lone surrogate")
        yield index, fields


def _read_table(path: str | os.PathLike, what: str, columns: tuple[str, ...], make: Callable) -> list:
    """``make(source, number, *fields)`` for each row of the `what` table, a
    .json file or else CSV, its fields in `columns` order. `source`, "`what`
    table `path`", names the table in every refusal; `_row`, formatted only
    for a refusal, names a row."""
    source = f"{what} table {path}"
    text = read_utf8(path, source)
    rows = _rows_from_json if os.path.splitext(path)[1].lower() == ".json" else _rows_from_csv
    return [make(source, number, *fields) for number, fields in rows(text, columns, source)]


def load_flow_metas(path: str | os.PathLike) -> list[FlowMeta]:
    """Read the static policy table from a .csv or .json file. A second
    row for a flow is refused, naming the first."""
    first: dict[str, int] = {}

    def make(source: str, number: int, *fields) -> FlowMeta:
        meta = _make_meta(source, number, *fields)
        if (earlier := first.setdefault(meta.flow_id, number)) != number:
            duplicate = f"duplicate policy row for flow {meta.flow_id!r} (first at row {earlier})"
            raise SimulationError(f"{_row(source, number)}: {duplicate}")
        return meta

    return _read_table(path, "static", STATIC_COLUMNS, make)


def load_data_records(path: str | os.PathLike) -> list[DataRecord]:
    """Read the dynamic record table from a .csv or .json file."""
    return _read_table(path, "dynamic", DYNAMIC_COLUMNS, _RecordMaker())


def load_equivalences(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Read purpose equivalences: a JSON list of [consented, covered] pairs."""
    source = f"equivalence file {path}"
    doc = decode_json(read_utf8(path, source), source)
    if not isinstance(doc, list):
        raise SchemaError(f"{source}: top level must be a list of pairs")
    pairs = []
    for index, entry in enumerate(doc):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(part, str) for part in entry)
        ):
            raise SchemaError(f"{source} pair {index}: must be two strings, found {entry!r}")
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


def _log_text(entries: list[Decision], clock: str) -> str:
    return _block(
        [
            f'      {{\n        "clock": {clock},\n'
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
    data store holds by record id. Every entry was logged, and every
    record stored, at the report's clock. The layout is the one
    ``json.dumps(..., indent=2, sort_keys=True)`` gives: keys sorted,
    two-space indent, ASCII only, no trailing newline. It is written
    directly, without building a dict."""
    clock = f'"{report.clock.isoformat()}"'
    stored = f'{{\n        "stored_at": {clock}\n      }}'
    decisions = _block(
        [
            f'    {{\n      "d_id": {_ascii(d.d_id)},\n'
            f'      "flow_id": {_ascii(d.flow_id)},\n      "forwarded_bdfd": true,\n'
            f'      "forwarded_padfd": {"false" if d.v else "true"},\n'
            f'      "propagated": {"true" if d.propagated else "false"},\n'
            f'      "violation": {"true" if d.v else "false"}\n    }}'
            for d in report.decisions
        ],
        "  ",
        "[]",
    )
    logs = _block(
        [f"    {_ascii(store)}: {_log_text(entries, clock)}" for store, entries in sorted(report.logs.items())],
        "  ",
        "{}",
    )
    return (
        f'{{\n  "clock": {clock},\n'
        f'  "decisions": {decisions},\n'
        f'  "logs": {logs},\n'
        f'  "policies": {_stores_text(report.state.policies, _snapshot_text)},\n'
        f'  "stores": {_stores_text(report.state.data, lambda record: stored)}\n}}'
    )


def report_to_dict(report: SimulationReport) -> dict:
    """The report as `report_json` writes it, read back as a dict."""
    return json.loads(report_json(report))


def _cells(texts: list[str]) -> list[str]:
    """`texts`, each written as `printable` writes it."""
    return texts if "".join(texts).isprintable() else list(map(printable, texts))


def render_report(report: SimulationReport) -> str:
    """Human-readable forwarding table plus log and store summaries. An id
    that does not print is written with Python's escapes, so that every
    decision and store keeps one line."""
    decisions = report.decisions
    columns = (
        _cells(["D_id", *[d.d_id for d in decisions]]),
        _cells(["F_id", *[d.flow_id + " (hop)" if d.propagated else d.flow_id for d in decisions]]),
        ["B-DFD", *["yes"] * len(decisions)],
        ["PA-DFD", *["no" if d.v else "yes" for d in decisions]],
        ["Violation", *["v=true" if d.v else "-" for d in decisions]],
    )
    # Each cell padded to its column's width, but the last, whose cells
    # never end in a blank; the cells are arguments, never read as format.
    row = "%%-%ds  %%-%ds  %%-%ds  %%-%ds  %%s" % tuple(max(map(len, c)) for c in columns[:4])
    lines = [f"clock: {report.clock.isoformat()}", *[row % cells for cells in zip(*columns)]]
    lines.append(f"log entries: {len(decisions)} (violations: {columns[4].count('v=true')})")
    for store in sorted(report.state.data):
        held = ", ".join(_cells(sorted(report.state.data[store]))) or "-"
        lines.append(f"store {printable(store)}: {held}")
    return "\n".join(lines) + "\n"
