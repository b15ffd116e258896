"""Output changes of the spintomo commands between a git revision and the working tree.

Usage, from the root of a checkout:

    python3 tools/outdiff.py REV

REV's ``src/`` is extracted with ``git archive`` (local, no network) into a
temporary directory, which is removed afterwards; an interrupted run leaves
nothing registered in the repository.  The fixed command set ``COMMANDS``
runs on the default config (an empty config file) once against REV's
package and once against the working tree's; a command that writes to
``-`` has its standard output saved under its output file's name.  For
each output file the script prints either "byte-identical" or, per column,
the count of changed cells and the largest absolute and relative change.
Comment lines and other text cells, hashes among them, are compared as
text.  It prints each command's exit code and last stderr line on both
sides, so a changed error path shows too.  It times nothing.

A CSV output's columns are its header's; a JSON output's are the paths of
its leaves, with list positions written ``[]`` (so ``rows[].zeta2_true`` is
one sweep column).  A relative change is taken against REV's value.

Exit codes: 0 when both sides ran (whatever they printed), 2 when REV
cannot be read.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = "default.cfg"

# (output file, CLI arguments); each command runs in one directory per side,
# so reconstruct reads that side's own 0.8 ms record
COMMANDS = (
    ("sweep.csv", ["sweep", "--config", CONFIG, "--out", "sweep.csv"]),
    ("sweep.json", ["sweep", "--config", CONFIG, "--format", "json", "--out", "sweep.json"]),
    *((f"records_{t}.csv", ["records", "--config", CONFIG, "--tr", t, "--out", f"records_{t}.csv"])
      for t in ("0", "0.8", "3", "6")),
    ("reconstruct.json", ["reconstruct", "records_0.8.csv", "--out", "reconstruct.json"]),
    ("reconstruct_mle.json",
     ["reconstruct", "records_0.8.csv", "--mle", "--out", "reconstruct_mle.json"]),
    *((f"qpd_{t}.csv", ["qpd", "--config", CONFIG, "--tr", t, "--out", f"qpd_{t}.csv"])
      for t in ("0", "0.8", "3")),
    ("limits_4.csv", ["limits", "4", "--out", "limits_4.csv"]),
    ("limits_4_stdout.csv", ["limits", "4", "--out", "-"]),
)


def _extract_source(rev: str, directory: str) -> None:
    """Write REV's ``src/`` tree under ``directory``; an unknown REV raises ValueError."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise ValueError(archive.stderr.decode(errors="replace").strip() or f"cannot read {rev}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory, filter="data")


def run_commands(src: str, directory: str) -> list[tuple[int, str]]:
    """(exit code, last stderr line) of each of ``COMMANDS``, run in ``directory``
    against the package under ``src``."""
    with open(os.path.join(directory, CONFIG), "w", encoding="utf-8"):
        pass
    env = {**os.environ, "PYTHONPATH": src}
    results = []
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "spintomo.cli", *argv], cwd=directory,
                              env=env, capture_output=True)
        if argv[argv.index("--out") + 1] == "-":
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(done.stdout)
        lines = done.stderr.decode(errors="replace").strip().splitlines()
        results.append((done.returncode, lines[-1] if lines else ""))
    return results


def _json_leaves(value, path: str, columns: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _json_leaves(item, f"{path}.{key}" if path else key, columns)
    elif isinstance(value, list):
        for item in value:
            _json_leaves(item, path + "[]", columns)
    else:
        columns.setdefault(path, []).append(json.dumps(value))


def table_cells(name: str, text: str) -> tuple[list[str], dict[str, list[str]]]:
    """(comment lines, column -> cell texts) of a CSV or JSON output."""
    if name.endswith(".json"):
        columns: dict[str, list[str]] = {}
        _json_leaves(json.loads(text), "", columns)
        return [], columns
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    if not body:
        return comments, {}
    header, rows = body[0], body[1:]
    return comments, {col: [row[j] if j < len(row) else "" for row in rows]
                      for j, col in enumerate(header)}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def diff_column(old: list[str], new: list[str]) -> tuple[int, int, float, float]:
    """(changed cells, of them changed as text, largest |new - old|, largest |new - old| / |old|).

    A changed pair counts as text unless both cells are finite numbers; only
    the numeric pairs enter the two maxima.
    """
    changed, as_text, largest_abs, largest_rel = 0, 0, 0.0, 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        changed += 1
        x, y = _number(a), _number(b)
        if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            as_text += 1
            continue
        delta = abs(y - x)
        largest_abs = max(largest_abs, delta)
        largest_rel = max(largest_rel, delta / abs(x) if x else math.inf)
    return changed, as_text, largest_abs, largest_rel


def diff_output(name: str, old: str | None, new: str | None) -> list[str]:
    """Report lines for one output file; ``None`` is a file that side did not write."""
    if old is None or new is None:
        if old is None and new is None:
            return [f"{name}: written by neither side"]
        return [f"{name}: written only {'in the working tree' if old is None else 'at REV'}"]
    if old == new:
        return [f"{name}: byte-identical"]
    old_comments, old_columns = table_cells(name, old)
    new_comments, new_columns = table_cells(name, new)
    lines = []
    for position in range(max(len(old_comments), len(new_comments))):
        a = old_comments[position] if position < len(old_comments) else None
        b = new_comments[position] if position < len(new_comments) else None
        if a != b:
            lines.append(f"  comment {position + 1}: {a!r} -> {b!r}")
    for col in [c for c in old_columns if c not in new_columns]:
        lines.append(f"  {col}: column only at REV")
    for col in [c for c in new_columns if c not in old_columns]:
        lines.append(f"  {col}: column only in the working tree")
    total = 0
    for col in [c for c in old_columns if c in new_columns]:
        a, b = old_columns[col], new_columns[col]
        changed, as_text, largest_abs, largest_rel = diff_column(a, b)
        total += changed
        if len(a) != len(b):
            lines.append(f"  {col}: {len(a)} cells at REV, {len(b)} in the working tree")
        if changed:
            note = f"  {col}: {changed} of {min(len(a), len(b))} cells changed"
            if changed > as_text:
                note += f", max abs {largest_abs:.2g}, max rel {largest_rel:.2g}"
            if as_text:
                note += f", {as_text} as text"
            lines.append(note)
    if not lines:  # the same cells, laid out differently (e.g. whitespace in a JSON file)
        lines.append("  the same cells, different bytes")
    return [f"{name}: {total} cells changed"] + lines


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/outdiff.py REV", file=sys.stderr)
        return 2
    rev = args[0]
    with tempfile.TemporaryDirectory(prefix="outdiff-") as scratch:
        sides = {side: os.path.join(scratch, side) for side in ("rev", "tree")}
        for directory in sides.values():
            os.mkdir(directory)
        try:
            _extract_source(rev, os.path.join(scratch, "checkout"))
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        results = {
            "rev": run_commands(os.path.join(scratch, "checkout", "src"), sides["rev"]),
            "tree": run_commands(os.path.join(ROOT, "src"), sides["tree"]),
        }
        print(f"outdiff {rev} -> working tree, default config")
        for (name, argv_), old, new in zip(COMMANDS, results["rev"], results["tree"]):
            print(f"$ spintomo {' '.join(argv_)}: "
                  f"exit {old[0]} at REV, {new[0]} in the working tree")
            for label, (_, line) in (("REV", old), ("working tree", new)):
                if line:
                    print(f"  stderr at {label}: {line}")
        for name, _ in COMMANDS:
            old = _read(os.path.join(sides["rev"], name))
            new = _read(os.path.join(sides["tree"], name))
            print("\n".join(diff_output(name, old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
