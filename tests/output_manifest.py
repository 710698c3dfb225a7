"""Output-identity manifest of the benchmark's CLI commands.

For each seed and each workload of ``bench/workloads.py``, the workload's
``prepare`` writes its inputs into a fresh directory, and every command of
every case runs in a fresh ``python -m padfd.cli`` child there. Each command
gives one line: the workload, seed, case and step, the argv with the
directory shown as ``{work}``, the exit code, and the sha256 of stdout, of
stderr (each with the directory shown as ``{work}``) and of every file the
command wrote. The simulate workloads' ``prepare`` writes a privacy-aware
model with padfd in process; a ``prepare`` line hashes it.

The committed manifest, ``tests/fixtures/output_manifest.txt``, covers seeds
1-10. A change meant to keep every output byte regenerates some seeds and
compares them with it; a change meant to alter output regenerates the whole
file and names the lines that changed.

    python tests/output_manifest.py --seeds 1-10 > tests/fixtures/output_manifest.txt
    python tests/output_manifest.py --seeds 1-3 --check

``--check`` prints the lines that differ from the committed ones for the
same seeds and exits 1 if any do. ``--first-case`` runs only the first case
of each workload. The script needs the standard library only; ``bench/`` is
imported, never written.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "tests" / "fixtures" / "output_manifest.txt"
WORK = "{work}"
CHILD_TIMEOUT_S = 120

sys.dont_write_bytecode = True  # bench/ stays as checked out
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(SRC))

import padfd  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(workdir: Path) -> dict[str, tuple[int, int]]:
    return {
        entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
        for entry in os.scandir(workdir)
        if entry.is_file()
    }


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PADFD_STYLES", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def workload_lines(workload, seed: int, first_case: bool, env: dict[str, str]) -> list[str]:
    """The manifest lines of one workload at one seed."""
    lines = []
    with tempfile.TemporaryDirectory(prefix="padfd-manifest-") as temp:
        workdir = Path(temp)
        work = str(workdir)
        prepared = workload.prepare(seed, workdir, padfd)
        head = f"{workload.name} seed={seed}"
        if prepared.model is not None:
            lines.append(f"{head} prepare | {prepared.model.name}={_sha(prepared.model.read_bytes())}")
        cases = prepared.cases[:1] if first_case else prepared.cases
        for case in cases:
            for step, argv in enumerate(workload.commands(case, prepared)):
                before = _files(workdir)
                done = subprocess.run(
                    [sys.executable, "-m", "padfd.cli", *argv],
                    cwd=workdir, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
                )
                after = _files(workdir)
                written = sorted(name for name, stat in after.items() if before.get(name) != stat)
                hashes = [
                    f"exit={done.returncode}",
                    f"stdout={_sha(done.stdout.replace(work.encode(), WORK.encode()))}",
                    f"stderr={_sha(done.stderr.replace(work.encode(), WORK.encode()))}",
                    *(f"{name}={_sha((workdir / name).read_bytes())}" for name in written),
                ]
                command = shlex.join(argv).replace(work, WORK)
                lines.append(f"{head} case={case.index} step={step} | {command} | {' '.join(hashes)}")
    return lines


def manifest_lines(seeds, first_case: bool = False) -> list[str]:
    """The manifest lines of every workload, seed by seed."""
    env = _child_env()
    return [
        line
        for seed in seeds
        for workload in WORKLOADS.values()
        for line in workload_lines(workload, seed, first_case, env)
    ]


def committed_lines(seeds, first_case: bool = False) -> list[str]:
    """The committed lines that `manifest_lines(seeds, first_case)` regenerates."""
    keep = {f"seed={seed}" for seed in seeds}
    lines = []
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        fields = line.split(" | ", 1)[0].split()
        if fields[1] in keep and (not first_case or fields[2] in ("prepare", "case=0")):
            lines.append(line)
    return lines


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="N or N-M (default: 1-10)")
    parser.add_argument("--first-case", action="store_true", help="run only each workload's first case")
    parser.add_argument("--check", action="store_true", help="compare with the committed manifest")
    args = parser.parse_args(argv)
    lines = manifest_lines(args.seeds, args.first_case)
    if not args.check:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        return 0
    expected = committed_lines(args.seeds, args.first_case)
    diff = list(difflib.unified_diff(expected, lines, str(MANIFEST), "regenerated", lineterm=""))
    sys.stdout.write("".join(f"{line}\n" for line in diff))
    print(f"{len(lines)} lines regenerated; {'they differ' if diff else 'all match'}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
