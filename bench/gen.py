"""Seeded input generator for the benchmark (standard library only).

Everything the CLI reads is written here as text: draw.io XML, raw
canonical JSON, the static and dynamic CSV tables and the purpose
equivalence file. Nothing goes through padfd's own emitters, so the
inputs do not depend on the code under test. The same seed gives the
same bytes.

A diagram is built from "shops". Each shop has one external entity, two
processes, one data store and six flows, one of each well-formed kind:

    customer --in--> order --comp--> fulfil --out--> customer
    order --store--> store --read--> fulfil --delete--> store

so a shop contributes N=4 nodes, P=2 processes, D=1 store and F=6 flows.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from xml.sax.saxutils import quoteattr

CLOCK = date(2024, 6, 1)

# (role, kind) of the shop's nodes and (source role, target role, kind)
# of its flows; kind is the well-formed flow type the typechecker infers.
_SHOP_NODES = (("customer", "ext"), ("order", "proc"), ("fulfil", "proc"), ("store", "db"))
_SHOP_FLOWS = (
    ("customer", "order", "in"),
    ("order", "fulfil", "comp"),
    ("fulfil", "customer", "out"),
    ("order", "store", "store"),
    ("store", "fulfil", "read"),
    ("fulfil", "store", "delete"),
)
# Top-left corner of each node inside a shop's cell of the page grid. The
# page is compact and aligned to the layout's 80 px step, so generated
# gadget nodes of neighbouring shops compete for the same spots.
_SHOP_OFFSETS = {"customer": (0, 80), "order": (160, 0), "fulfil": (320, 80), "store": (160, 160)}
_SHOP_WIDTH = 480
_SHOP_HEIGHT = 240
_GRID_COLUMNS = 4

_NODE_LABELS = {
    "customer": ("Customer", "Client", "Patient", "Member", "Supplier", "Visitor"),
    "order": ("Take Order", "Register", "Collect Details", "Open Case", "Sign Up"),
    "fulfil": ("Fulfil Order", "Ship Goods", "Handle Case", "Issue Invoice", "Notify"),
    "store": ("Orders DB", "Customer DB", "Case Files", "Ledger", "Archive"),
}
_FLOW_LABELS = {
    "in": ("order form", "personal details", "request", "sign-up data"),
    "comp": ("order", "case", "validated details", "task"),
    "out": ("receipt", "confirmation", "invoice", "status update"),
    "store": ("order record", "profile", "case record"),
    "read": ("order history", "stored profile", "case file"),
    "delete": ("erase record", "purge", "right to be forgotten"),
}

# draw.io palette (fill, stroke) and optional style tokens: they make style
# strings differ per cell, the way hand-made drawings do.
_PALETTE = (
    ("#dae8fc", "#6c8ebf"),
    ("#d5e8d4", "#82b366"),
    ("#ffe6cc", "#d79b00"),
    ("#fff2cc", "#d6b656"),
    ("#f8cecc", "#b85450"),
    ("#e1d5e7", "#9673a6"),
    ("#f5f5f5", "#666666"),
)
_EXTRA_TOKENS = (
    "fontStyle=1;",
    "fontSize=13;",
    "fontSize=14;",
    "shadow=1;",
    "glass=1;",
    "fontColor=#333333;",
    "spacingTop=4;",
    "labelBackgroundColor=none;",
)
_NODE_BASES = {
    "ext": ("rounded=0;whiteSpace=wrap;html=1;", "rounded=1;whiteSpace=wrap;html=1;arcSize=12;"),
    "proc": (
        "ellipse;whiteSpace=wrap;html=1;",
        "ellipse;whiteSpace=wrap;html=1;aspect=fixed;",
        "doubleEllipse;whiteSpace=wrap;html=1;",
    ),
    "db": (
        "shape=datastore;whiteSpace=wrap;html=1;",
        "shape=cylinder3;whiteSpace=wrap;html=1;boundedLbl=1;backgroundOutline=1;size=15;",
    ),
}
_EDGE_BASES = (
    "edgeStyle=orthogonalEdgeStyle;rounded=0;orthogonalLoop=1;jettySize=auto;html=1;",
    "endArrow=classic;html=1;curved=1;",
    "edgeStyle=entityRelationEdgeStyle;html=1;endArrow=block;endFill=1;",
)
_NODE_SIZES = {"ext": (120, 60), "proc": (120, 80), "db": (100, 60)}

_ID_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

# Purposes. The flat workload draws from a large vocabulary so that few
# (flow, consent, expired) keys repeat; the multi-hop workload draws from
# a small one, with consent wordings that only equivalence pairs cover.
SMALL_PURPOSES = ("billing", "shipping", "support", "marketing", "analytics", "fraud check")
SYNONYMS = {
    "billing": "Payment processing",
    "shipping": "Delivery of goods",
    "support": "Customer care",
    "fraud check": "Security screening",
}
_DATA_TYPES = ("string", "contact details", "address, phone", "payment data", "images")


@dataclass(frozen=True)
class Drawing:
    """What the generator drew, as the oracle needs it: node kinds and the
    original flows with their well-formed kind."""

    nodes: dict[str, str]  # id -> ext / proc / db
    flows: tuple[tuple[str, str, str, str], ...]  # (id, source, target, kind)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        """(N, P, D, F) of the business diagram."""
        kinds = list(self.nodes.values())
        return len(kinds), kinds.count("proc"), kinds.count("db"), len(self.flows)


@dataclass(frozen=True)
class Shop:
    """One shop of a drawing: element ids and display data."""

    node_ids: dict[str, str]
    labels: dict[str, str]
    flow_ids: tuple[str, ...]
    flow_labels: tuple[str, ...]


def _id_maker(rng: random.Random):
    """draw.io-like ids: a random 20-character prefix and a counter."""
    prefix = "".join(rng.choice(_ID_ALPHABET) for _ in range(20))
    counter = iter(range(2, 10**9))
    return lambda: f"{prefix}-{next(counter)}"


def _shops(rng: random.Random, k: int) -> tuple[list[Shop], Drawing]:
    new_id = _id_maker(rng)
    shops = []
    nodes: dict[str, str] = {}
    flows = []
    for index in range(k):
        node_ids = {role: new_id() for role, _ in _SHOP_NODES}
        labels = {role: f"{rng.choice(_NODE_LABELS[role])} {index + 1}" for role, _ in _SHOP_NODES}
        flow_ids = tuple(new_id() for _ in _SHOP_FLOWS)
        flow_labels = tuple(rng.choice(_FLOW_LABELS[kind]) for _, _, kind in _SHOP_FLOWS)
        for role, kind in _SHOP_NODES:
            nodes[node_ids[role]] = kind
        for flow_id, (source, target, kind) in zip(flow_ids, _SHOP_FLOWS):
            flows.append((flow_id, node_ids[source], node_ids[target], kind))
        shops.append(Shop(node_ids, labels, flow_ids, flow_labels))
    return shops, Drawing(nodes, tuple(flows))


def _node_style(rng: random.Random, kind: str) -> str:
    fill, stroke = rng.choice(_PALETTE)
    extras = "".join(rng.sample(_EXTRA_TOKENS, rng.randint(0, 2)))
    return f"{rng.choice(_NODE_BASES[kind])}fillColor={fill};strokeColor={stroke};{extras}"


def _edge_style(rng: random.Random, kind: str) -> str:
    style = rng.choice(_EDGE_BASES)
    if rng.random() < 0.5:
        style += f"strokeColor={rng.choice(_PALETTE)[1]};"
    if rng.random() < 0.3:
        style += "strokeWidth=2;"
    if kind == "delete":
        style += "dashed=1;"
    return style


def drawio_document(rng: random.Random, k: int) -> tuple[bytes, Drawing]:
    """A hand-drawn-like draw.io file of k shops laid out on a grid.

    Every business node carries geometry. Cells appear in a shuffled
    order, some wrapped in <object> elements with user attributes.
    """
    shops, drawing = _shops(rng, k)
    cells = []
    for index, shop in enumerate(shops):
        left = (index % _GRID_COLUMNS) * _SHOP_WIDTH + 40
        top = (index // _GRID_COLUMNS) * _SHOP_HEIGHT + 40
        for role, kind in _SHOP_NODES:
            dx, dy = _SHOP_OFFSETS[role]
            width, height = _NODE_SIZES[kind]
            geometry = (
                f'<mxGeometry x="{left + dx}" y="{top + dy}" '
                f'width="{width}" height="{height}" as="geometry" />'
            )
            cell_id = shop.node_ids[role]
            style = quoteattr(_node_style(rng, kind))
            label = quoteattr(shop.labels[role])
            if rng.random() < 0.2:
                owner = quoteattr(rng.choice(("ops", "sales", "legal", "it")))
                cells.append(
                    f"<object label={label} id={quoteattr(cell_id)} owner={owner}>"
                    f'<mxCell style={style} vertex="1" parent="1">{geometry}</mxCell></object>'
                )
            else:
                cells.append(
                    f"<mxCell id={quoteattr(cell_id)} value={label} style={style} "
                    f'vertex="1" parent="1">{geometry}</mxCell>'
                )
        for flow_id, label, (source, target, kind) in zip(
            shop.flow_ids, shop.flow_labels, _SHOP_FLOWS
        ):
            cells.append(
                f"<mxCell id={quoteattr(flow_id)} value={quoteattr(label)} "
                f"style={quoteattr(_edge_style(rng, kind))} edge=\"1\" parent=\"1\" "
                f"source={quoteattr(shop.node_ids[source])} "
                f"target={quoteattr(shop.node_ids[target])}>"
                '<mxGeometry relative="1" as="geometry" /></mxCell>'
            )
    rng.shuffle(cells)
    page_id = "".join(rng.choice(_ID_ALPHABET) for _ in range(20))
    text = "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<mxfile host="app.diagrams.net" agent="Mozilla/5.0" version="21.6.8" type="device">',
            f'  <diagram id="{page_id}" name="Page-1">',
            '    <mxGraphModel dx="1422" dy="757" grid="1" gridSize="10" guides="1" '
            'tooltips="1" connect="1" arrows="1" fold="1" page="1" pageScale="1" '
            'pageWidth="1169" pageHeight="826" math="0" shadow="0">',
            "      <root>",
            '        <mxCell id="0" />',
            '        <mxCell id="1" parent="0" />',
            *("        " + cell for cell in cells),
            "      </root>",
            "    </mxGraphModel>",
            "  </diagram>",
            "</mxfile>",
            "",
        ]
    )
    return text.encode("utf-8"), drawing


def json_document(rng: random.Random, k: int) -> tuple[bytes, Drawing]:
    """A raw canonical JSON diagram of k shops, without positions."""
    shops, drawing = _shops(rng, k)
    nodes = []
    flows = []
    for shop in shops:
        for role, kind in _SHOP_NODES:
            entry = {"id": shop.node_ids[role], "type": kind, "label": shop.labels[role]}
            if rng.random() < 0.2:
                entry["extra"] = {"owner": rng.choice(("ops", "sales", "legal", "it"))}
            nodes.append(entry)
        for flow_id, label, (source, target, kind) in zip(
            shop.flow_ids, shop.flow_labels, _SHOP_FLOWS
        ):
            flows.append(
                {
                    "id": flow_id,
                    "source": shop.node_ids[source],
                    "target": shop.node_ids[target],
                    "type": "df" if kind == "delete" else "pf",
                    "label": label,
                }
            )
    rng.shuffle(nodes)
    rng.shuffle(flows)
    doc = {"schema": "padfd-canonical/1", "stage": "raw-bdfd", "nodes": nodes, "flows": flows}
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8"), drawing


@dataclass(frozen=True)
class PolicyRow:
    flow_id: str
    purpose: str
    pd: bool


@dataclass(frozen=True)
class Record:
    d_id: str
    flow_id: str
    consent: tuple[str, ...]
    expiry: date


def _vary_case(rng: random.Random, text: str) -> str:
    """Consent wording as people type it: case and padding vary."""
    choice = rng.random()
    if choice < 0.25:
        text = text.upper()
    elif choice < 0.5:
        text = text.title()
    return f" {text}" if rng.random() < 0.2 else text


def large_vocabulary(rng: random.Random, size: int = 2000) -> tuple[str, ...]:
    words = ("account", "order", "survey", "loyalty", "research", "audit", "newsletter",
             "profiling", "delivery", "payment", "warranty", "recall", "claims", "hiring")
    return tuple(f"{rng.choice(words)} {n}" for n in range(size))


def policy_table(
    rng: random.Random, drawing: Drawing, purposes: tuple[str, ...]
) -> list[PolicyRow]:
    """One row per flow. Four in five flows carry personal data, and
    purposes are dealt in flow order from a shuffled deck: the seed renames
    the purposes but keeps which flows share one, so every seed has the
    same policy structure."""
    deck = rng.sample(purposes, len(purposes))
    return [
        PolicyRow(flow_id, deck[position % len(deck)], position % 5 != 0)
        for position, (flow_id, _, _, _) in enumerate(drawing.flows)
    ]


def static_csv(rng: random.Random, drawing: Drawing, rows: list[PolicyRow]) -> bytes:
    kind_of = {flow_id: kind for flow_id, _, _, kind in drawing.flows}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("F_id", "Label", "Purpose", "PD", "Data_type"))
    for row in rows:
        label = rng.choice(_FLOW_LABELS[kind_of[row.flow_id]])
        writer.writerow((row.flow_id, label, row.purpose, str(row.pd), rng.choice(_DATA_TYPES)))
    return out.getvalue().encode("utf-8")


def _expiry(rng: random.Random) -> date:
    """About 30% expired, 5% expiring on the clock day, the rest later."""
    draw = rng.random()
    if draw < 0.30:
        return CLOCK - timedelta(days=rng.randint(1, 900))
    if draw < 0.35:
        return CLOCK
    return CLOCK + timedelta(days=rng.randint(1, 900))


def record_batch(
    rng: random.Random,
    batch: int,
    size: int,
    rows: list[PolicyRow],
    entry_flows: list[str],
    purposes: tuple[str, ...],
    covering_share: float,
    synonyms: dict[str, str] | None = None,
) -> list[Record]:
    """Records entering on ``entry_flows``; ``covering_share`` of them list
    the flow's purpose (or a wording an equivalence pair maps to it)."""
    purpose_of = {row.flow_id: row.purpose for row in rows}
    records = []
    for index in range(size):
        flow_id = rng.choice(entry_flows)
        consent = set(rng.sample(purposes, rng.randint(0, 2)))
        if rng.random() < covering_share:
            wanted = purpose_of[flow_id]
            if synonyms and wanted in synonyms and rng.random() < 0.5:
                wanted = synonyms[wanted]
            consent.add(wanted)
        elif not consent:
            consent.add(rng.choice(purposes))
        records.append(
            Record(
                f"r{batch}-{index}",
                flow_id,
                tuple(_vary_case(rng, c) for c in sorted(consent)),
                _expiry(rng),
            )
        )
    return records


def dynamic_csv(rng: random.Random, records: list[Record]) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("D_id", "F_id", "Dsub", "Consent", "Expiry", "Content"))
    for record in records:
        writer.writerow(
            (
                record.d_id,
                record.flow_id,
                f"subject-{rng.randrange(10_000)}",
                ";".join(record.consent),
                record.expiry.isoformat(),
                f'"item {rng.randrange(1000)}", qty {rng.randint(1, 9)}',
            )
        )
    return out.getvalue().encode("utf-8")


def compat_json(synonyms: dict[str, str]) -> bytes:
    pairs = [[consented, covered] for covered, consented in sorted(synonyms.items())]
    return (json.dumps(pairs, indent=2) + "\n").encode("utf-8")

