"""Command-line front end emitting plot-ready CSV/JSON data.

Subcommands: limits, sweep, records, reconstruct, qpd.  Exit codes: 0 on
success, 1 on numerical failure, 2 on usage or I/O errors; failures print a
single machine-readable line to stderr.  Output files are written atomically
(temp file + rename), so no partial files are left behind.

The ``limits`` and ``sweep`` tables are written by one function: as CSV, a
table is ``# key=value`` comment lines, a ``# units:`` line, a header and
rows; as JSON, it is an object with the same keys plus ``columns``,
``units`` and ``rows``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import astuple, fields

import numpy as np

from .errors import ConvergenceError, PhysicalityError, SweepPointError
from .experiment import ExperimentConfig, evolved_state, point_record, run_sweep
from .probe import record_from_csv, record_to_csv
from .spin_algebra import SpinQuantumNumber
from .squeezing import REFINE_TOL, SCAN_POINTS, husimi, tact_optimum
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
    p_qpd.add_argument("--seed", type=int, default=None)

    return parser


def _atomic_write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spintomo-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _table_text(fmt: str, meta: dict, rows) -> str:
    """``rows`` of one frozen dataclass as a CSV or JSON table headed by ``meta``.

    The columns are the row type's fields and the units its ``UNITS``.
    """
    columns = [spec.name for spec in fields(rows[0])]
    units = list(rows[0].UNITS)
    values = [astuple(row) for row in rows]
    if fmt == "json":
        table = {**meta, "columns": columns, "units": units,
                 "rows": [dict(zip(columns, row)) for row in values]}
        return json.dumps(table, indent=2) + "\n"
    comments = [f"{key}={value}" for key, value in meta.items()] + ["units: " + ",".join(units)]
    buf = io.StringIO()
    write_table(buf, comments, columns, np.array(values))
    return buf.getvalue()


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
    largest = SpinQuantumNumber.coerce(float(np.floor(args.f + 1e-9)))  # finite, dimension <= 16
    spins = [float(k) for k in range(1, int(largest.f_value) + 1)]
    optima = [tact_optimum(f) for f in spins]
    params_hash = hashlib.sha256(
        f"limits f={args.f:.17g} scan={SCAN_POINTS} refine={REFINE_TOL:g}".encode()
    ).hexdigest()
    meta = {"params_sha256": params_hash, "scan_points": SCAN_POINTS, "refine_tol": REFINE_TOL}
    _atomic_write(args.out, _table_text(args.format, meta, optima))


def _cmd_sweep(args) -> None:
    config = _load_config(args.config, args.seed)
    rows = run_sweep(config)
    _atomic_write(args.out, _table_text(args.format, {"config_sha256": config.config_hash}, rows))


def _cmd_records(args) -> None:
    config = _load_config(args.config, args.seed)
    record = point_record(config, args.tr)
    buf = io.StringIO()
    record_to_csv(
        record,
        buf,
        header_comments={"config_sha256": config.config_hash, "t_r_ms": f"{args.tr:.17g}"},
    )
    _atomic_write(args.out, buf.getvalue())


def _hashed_lines(lines, digest):
    """Yield ``lines`` unchanged, feeding each one's UTF-8 bytes to ``digest`` on the way."""
    for line in lines:
        digest.update(line.encode())
        yield line


def _cmd_reconstruct(args) -> None:
    if not os.path.exists(args.records_csv):
        raise _UsageError(f"records file not found: {args.records_csv}")
    digest = hashlib.sha256()
    with open(args.records_csv, "r", encoding="utf-8") as fh:
        record = record_from_csv(_hashed_lines(fh, digest))
    payload = {
        "source_sha256": digest.hexdigest(),
        "corrected_covariance": correct_covariance(record).to_dict(),
    }
    if args.mle:
        payload["mle"] = mle_reconstruct(record).to_dict()
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")


def _cmd_qpd(args) -> None:
    config = _load_config(args.config, args.seed)
    try:
        n_theta, _, n_phi = args.grid.partition("x")
        n_theta, n_phi = int(n_theta), int(n_phi)
    except ValueError:
        raise _UsageError(f"--grid must look like 64x128, got {args.grid!r}")
    state = evolved_state(config, args.tr)
    grid = husimi(state, n_theta, n_phi)
    text = grid.to_csv_text(
        header_comments={"config_sha256": config.config_hash, "t_r_ms": f"{args.tr:.17g}"}
    )
    _atomic_write(args.out, text)


_COMMANDS = {
    "limits": _cmd_limits,
    "sweep": _cmd_sweep,
    "records": _cmd_records,
    "reconstruct": _cmd_reconstruct,
    "qpd": _cmd_qpd,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
        numerical = (PhysicalityError, ConvergenceError, np.linalg.LinAlgError, ArithmeticError)
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
