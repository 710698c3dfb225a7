"""
From a draw.io drawing to a privacy-aware diagram
==================================================

This walkthrough parses a business diagram from a draw.io file,
type-checks it, rewrites it into its privacy-aware counterpart, and
writes the result back out in three formats: draw.io XML (with fresh
positions for the generated elements), canonical JSON, and Graphviz DOT.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from padfd import (
    NodeType,
    emit_dot,
    emit_drawio,
    emit_json,
    layout_generated,
    parse_drawio,
    transform,
    typecheck,
)

HERE = Path(__file__).parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

# ---------------------------------------------------------------------------
# Parse and type-check. The file uses vanilla draw.io shapes; the parser
# classifies them by style (ellipse = process, rounded box = external,
# cylinder = data store).

raw = parse_drawio((HERE / "data" / "estore.drawio.xml").read_bytes())
wellformed, diagnostics = typecheck(raw)
assert wellformed is not None, [d.render() for d in diagnostics]

print(f"parsed {len(raw.nodes)} nodes / {len(raw.flows)} flows from draw.io")

# ---------------------------------------------------------------------------
# Transform. Every process gains a reason partner, every data store a
# policy store with a cleaning element, and every flow is re-routed
# through a limit guarded by a request and logged to an audit store.

pa = transform(wellformed)

procs = sum(1 for n in wellformed.nodes.values() if n.node_type is NodeType.PROC)
dbs = sum(1 for n in wellformed.nodes.values() if n.node_type is NodeType.DB)
flows = len(wellformed.flows)
print(
    f"privacy-aware result: {len(pa.nodes)} nodes / {len(pa.flows)} flows "
    f"(= {len(wellformed.nodes)} + {procs} + 2*{dbs} + 4*{flows} nodes, "
    f"7*{flows} + 2*{dbs} flows)"
)

kinds = Counter(flow.flow_type.value for flow in pa.flows.values())
print("flow kinds in the output:")
for kind, count in sorted(kinds.items()):
    print(f"  {kind}: {count}")

# ---------------------------------------------------------------------------
# Write it out. Generated nodes have no positions yet; layout_generated
# places each gadget around its original flow so draw.io can open the
# file without piling everything at the origin.

placed = layout_generated(pa)
(OUT / "estore_pa.drawio.xml").write_bytes(emit_drawio(placed))
(OUT / "estore_pa.json").write_bytes(emit_json(pa))
(OUT / "estore_pa.dot").write_bytes(emit_dot(pa))
print(f"wrote estore_pa.{{drawio.xml,json,dot}} to {OUT}")
