"""The command line's contract over broken input.

Seeded byte-level mutations of the demo drawing, the demo privacy-aware
model and the payment tables run through `cli.main` in process. Whatever
a command reads, it converts or fails with a `PadfdError`: its code is 0,
1 or 2 and nothing else leaves `main`; every exit-2 message names the
mutated file, and a refusal that starts with a diagram's name exits 2;
and every JSON or draw.io file a command writes reads back
under `check` without exit 2 and exports to its own format as the same
bytes. A failure prints the mutated bytes and the command line.
"""

from __future__ import annotations

import random
from pathlib import Path

from padfd.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DRAWING = DEMOS / "data" / "estore.drawio.xml"
MODEL = DEMOS / "out" / "estore_pa.json"
TABLES = {"static": DEMOS / "data" / "payment_static.csv", "dynamic": DEMOS / "data" / "payment_dynamic.csv"}
SOURCES = [DRAWING, MODEL, *TABLES.values()]

SEED = 20201021
MUTATIONS = 5000  # about 7 s under CPython 3.11 on a shared 2-CPU host


def mutate(data: bytes, rng: random.Random) -> bytes:
    """`data` with one flip, deletion, insertion of a structural byte,
    splice or truncation."""
    at = rng.randrange(len(data))
    span = rng.randrange(1, 64)
    kind = rng.choice(["flip", "delete", "insert", "splice", "truncate"])
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + span :]
    if kind == "insert":
        return data[:at] + rng.choice([b"<", b">", b"{", b"}", b'"']) + data[at:]
    if kind == "splice":
        start = rng.randrange(len(data))
        return data[:at] + data[start : start + span] + data[at:]
    return data[:at]


def command_lines(mutated: Path, out: Path) -> list[list[str]]:
    """The command lines that read `mutated`."""
    tables = {kind: mutated if path.name == mutated.name else path for kind, path in TABLES.items()}
    simulate = [
        "--static", str(tables["static"]), "--dynamic", str(tables["dynamic"]),
        "--clock", "2020-06-01", "--multi-hop",
    ]
    if mutated.suffix == ".csv":
        return [["simulate", str(MODEL), *simulate]]
    return [
        ["simulate", str(mutated), *simulate],
        ["check", str(mutated)],
        *(["export", str(mutated), "-o", str(out / f"export.{x}")] for x in ("json", "xml", "dot")),
        *(["transform", str(mutated), "-o", str(out / f"pa.{x}")] for x in ("json", "xml")),
    ]


def run(argv: list[str], capsys, context: str) -> tuple[int, str]:
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        raise AssertionError(f"{argv} raised {exc!r}{context}") from exc
    err = capsys.readouterr().err
    assert code in (0, 1, 2), f"{argv} returned {code!r}{context}"
    return code, err


def test_broken_input_converts_or_is_refused_naming_its_file(tmp_path, capsys):
    rng = random.Random(SEED)
    out = tmp_path / "out"
    out.mkdir()
    originals = {source: source.read_bytes() for source in SOURCES}
    for _ in range(MUTATIONS):
        source = rng.choice(SOURCES)
        data = mutate(originals[source], rng)
        mutated = tmp_path / source.name
        mutated.write_bytes(data)
        context = f"\non {mutated} holding {data!r}"
        for argv in command_lines(mutated, out):
            code, err = run(argv, capsys, context)
            if code == 2:
                assert str(mutated) in err, f"{argv} refused without naming the file: {err}{context}"
            else:  # a refusal that starts with a diagram's name is a read error
                assert not err.startswith(f"error: {mutated}: "), f"{argv} returned {code}: {err}{context}"
            if "-o" not in argv:
                continue
            written = Path(argv[argv.index("-o") + 1])
            if code == 0 and written.suffix != ".dot":
                code, err = run(["check", str(written)], capsys, context)
                assert code != 2, f"{written} does not read back: {err}{context}"
                again = out / f"again{written.suffix}"
                code, err = run(["export", str(written), "-o", str(again)], capsys, context)
                assert code == 0, f"{written} does not export: {err}{context}"
                assert again.read_bytes() == written.read_bytes(), f"{written} exports otherwise{context}"
                again.unlink()
            written.unlink(missing_ok=True)
