"""Command-line front end emitting plot-ready CSV/JSON data.

Subcommands: limits, sweep, records, reconstruct, qpd.  Exit codes: 0 on
success, 1 on numerical failure, 2 on usage or I/O errors; failures print a
single machine-readable line to stderr.  An output streams into a new file
beside the target (mode 0o666 less the umask), renamed onto it once
complete, so no partial file is left behind.

The ``limits`` and ``sweep`` tables are written by one function: as CSV, a
table is ``# key=value`` comment lines, a ``# units:`` line, a header and
rows; as JSON, it is an object with the same keys plus ``columns``,
``units`` and ``rows``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from dataclasses import fields
from operator import attrgetter

import numpy as np

from .errors import PhysicalityError, SweepPointError
from .experiment import ExperimentConfig, evolved_state, point_record, run_sweep
from .probe import record_from_csv, record_to_csv
from .spin_algebra import spin_dimension
from .squeezing import SCAN_POINTS, husimi, tact_optimum
from .tables import write_table
from .tomography import mle_reconstruct, correct_covariance

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line usage failures, exit code 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spintomo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_limits = sub.add_parser("limits", help="countertwisting squeezing limits per spin")
    p_limits.add_argument("f", type=float, help="largest total spin to tabulate")
    p_limits.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_limits.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sweep = sub.add_parser("sweep", help="drive-duration sweep with reconstruction")
    p_sweep.add_argument("--config", required=True, help="key=value config file")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_records = sub.add_parser("records", help="raw measurement record for one sweep point")
    p_records.add_argument("--config", required=True)
    p_records.add_argument("--tr", type=float, required=True, help="drive duration in ms")
    p_records.add_argument("--out", required=True)
    p_records.add_argument("--seed", type=int, default=None)

    p_rec = sub.add_parser("reconstruct", help="covariance correction (and MLE) of a record file")
    p_rec.add_argument("records_csv", help="record file written by the records command")
    p_rec.add_argument("--out", required=True)
    p_rec.add_argument("--mle", action="store_true", help="also run the density-matrix MLE")

    p_qpd = sub.add_parser("qpd", help="Husimi quasi-probability grid for one sweep point")
    p_qpd.add_argument("--config", required=True)
    p_qpd.add_argument("--tr", type=float, required=True)
    p_qpd.add_argument("--grid", default="64x128", help="NxM grid in theta x phi")
    p_qpd.add_argument("--out", required=True)

    return parser


@contextlib.contextmanager
def _atomic_write(path: str):
    """The text stream an output is written into: stdout for ``-``, else a new file beside
    ``path``, created 0o666 for the umask to apply, that replaces ``path`` once the writer
    has returned and it is closed; if anything raises, it is removed and ``path`` is kept."""
    if path == "-":
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".spintomo-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_rows(stream, fmt: str, meta: dict, rows) -> None:
    """Write ``rows`` of one frozen dataclass as a CSV or JSON table headed by ``meta``.

    The columns are the row type's fields, read from each row without a
    copy, and the units its ``UNITS``.
    """
    columns = [spec.name for spec in fields(rows[0])]
    units = list(rows[0].UNITS)
    values = list(map(attrgetter(*columns), rows))
    if fmt == "json":
        table = {**meta, "columns": columns, "units": units,
                 "rows": [dict(zip(columns, row)) for row in values]}
        # one dumps, one write: json.dump with an indent is the pure-Python encoder
        stream.write(json.dumps(table, indent=2) + "\n")
        return
    comments = [f"{key}={value}" for key, value in meta.items()] + ["units: " + ",".join(units)]
    write_table(stream, comments, columns, np.array(values))


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    if not os.path.exists(path):
        raise _UsageError(f"config not found: {path}")
    config = ExperimentConfig.from_file(path)
    if seed_override is not None:
        config = config.with_seed(seed_override)
    return config


def _cmd_limits(args) -> None:
    if args.f < 1:
        raise _UsageError(
            f"f={args.f:g} has no countertwisting limit: spin-1/2 (and below) "
            "cannot squeeze because Fz^2 - Fy^2 vanishes"
        )
    largest = float(np.floor(args.f + 1e-9))
    spin_dimension(largest)  # finite, dimension <= 16
    spins = [float(k) for k in range(1, int(largest) + 1)]
    optima = [tact_optimum(f) for f in spins]
    params_hash = hashlib.sha256(f"limits f={args.f:.17g} scan={SCAN_POINTS}".encode()).hexdigest()
    meta = {"params_sha256": params_hash, "scan_points": SCAN_POINTS}
    with _atomic_write(args.out) as stream:
        _write_rows(stream, args.format, meta, optima)


def _cmd_sweep(args) -> None:
    config = _load_config(args.config, args.seed)
    rows = run_sweep(config)
    with _atomic_write(args.out) as stream:
        _write_rows(stream, args.format, {"config_sha256": config.config_hash}, rows)


def _cmd_records(args) -> None:
    config = _load_config(args.config, args.seed)
    record = point_record(config, args.tr)
    header = {"config_sha256": config.config_hash, "t_r_ms": f"{args.tr:.17g}"}
    with _atomic_write(args.out) as stream:
        record_to_csv(record, stream, header_comments=header)


def _read_lines(path: str):
    """(SHA-256 hex digest, lines) of a UTF-8 text file, read in one pass.

    The digest is that of the text after newline translation.  The lines
    come without their newline, from an iterator that drops each one as it
    hands it out, so a parse of them never holds the text twice.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    digest = hashlib.sha256(text.encode()).hexdigest()
    lines = text.split("\n")
    lines.append(None)  # the sentinel that ends the iterator, popped last
    lines.reverse()
    return digest, iter(lines.pop, None)


def _cmd_reconstruct(args) -> None:
    if not os.path.exists(args.records_csv):
        raise _UsageError(f"records file not found: {args.records_csv}")
    digest, lines = _read_lines(args.records_csv)
    record = record_from_csv(lines)
    try:
        payload = {
            "source_sha256": digest,
            "corrected_covariance": correct_covariance(record.statistics).to_dict(),
        }
        if args.mle:
            payload["mle"] = mle_reconstruct(record).to_dict()
    except Exception as exc:  # named by its sweep point, where the file gives one
        if record.t_r_ms is None:
            raise
        raise SweepPointError(record.t_r_ms, exc) from exc
    with _atomic_write(args.out) as stream:
        stream.write(json.dumps(payload, indent=2) + "\n")


def _cmd_qpd(args) -> None:
    config = _load_config(args.config, None)  # a Husimi grid does not depend on the seed
    try:
        n_theta, _, n_phi = args.grid.partition("x")
        n_theta, n_phi = int(n_theta), int(n_phi)
    except ValueError:
        raise _UsageError(f"--grid must look like 64x128, got {args.grid!r}")
    state = evolved_state(config, args.tr)
    grid = husimi(state, n_theta, n_phi)
    header = {"config_sha256": config.config_hash, "t_r_ms": f"{args.tr:.17g}"}
    with _atomic_write(args.out) as stream:
        grid.to_csv_text(stream, header_comments=header)


_COMMANDS = {
    "limits": _cmd_limits,
    "sweep": _cmd_sweep,
    "records": _cmd_records,
    "reconstruct": _cmd_reconstruct,
    "qpd": _cmd_qpd,
}


# parsing leaves the parser unchanged, so one serves every call of main in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # numpy overflow, invalid values and zero division raise: no warning precedes the error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed sweep point is classified by the error it wraps
        cause = exc.__cause__ if isinstance(exc, SweepPointError) else exc
        # LinAlgError subclasses ValueError, so the numerical test goes first
        numerical = (PhysicalityError, np.linalg.LinAlgError, ArithmeticError)
        if isinstance(cause, numerical):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 1
        if isinstance(cause, (ValueError, OSError)):
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
