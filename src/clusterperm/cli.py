"""Command line interface.

Five subcommands cover the package end to end: ``bound`` (worst-case
size of the unadjusted test), ``alpha`` (adjusted level lookup or
Monte Carlo calibration), ``test`` (the adjusted permutation test on a
CSV file), ``power`` (the analytic power lower bound), and ``simulate``
(the comparison studies, written to CSV).

Conventions shared by every subcommand:

* exit code 0 on success, 2 on invalid input (unknown flags, malformed
  files, infeasible designs), 1 on numerical failure;
* failures print a single-line JSON error object to stderr;
* output is human-readable text by default, ``--json`` switches to a
  JSON object and ``--csv`` to a one-record CSV, both with full float
  precision;
* stochastic runs take ``--seed``; when omitted, a fresh seed is drawn
  and printed with the output so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import secrets
import sys
from dataclasses import fields, replace

from .calibrate import (
    ENUMERATION_THRESHOLD,
    SAMPLED_PARAMS,
    CalibrationParams,
    calibrate_exhaustive,
    calibrate_sampled,
)
from .errors import (
    ClusterPermError,
    DomainError,
    InputFormatError,
    ValidationError,
)
from .estimators import MODES, cluster_estimates, ingest_csv, load_estimates
from .permkit import Design, RngStream, sample_assignments
from .permtest import (
    adjusted_test,
    adjustment_level,
    check_alpha,
    lookup_bar_alpha,
    size_bound,
)
from .power import PowerSpec, power_lower_bound
from .simharness import (
    DidConfig,
    NormalLocationConfig,
    run_did_study,
    run_normal_location_study,
)

DEFAULT_SAMPLE_M = 100_000


class _UsageError(Exception):
    """Bad command line; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_format_flags(sub):
    sub.add_argument("--json", action="store_true",
                     help="print a JSON object instead of text")
    sub.add_argument("--csv", action="store_true",
                     help="print a one-record CSV instead of text")


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it
    as it was (append actions copy their default list)."""
    parser = _Parser(prog="clusterperm",
                     description="Permutation inference with few "
                                 "heterogeneous clusters.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p = subs.add_parser("bound",
                        help="worst-case size of the unadjusted test")
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q0", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_format_flags(p)

    p = subs.add_parser("alpha",
                        help="adjusted level for (q1, q0, alpha)")
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q0", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--calibrate", action="store_true",
                   help="recompute by Monte Carlo instead of the "
                        "embedded table")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="override a calibration parameter (repeatable)")
    p.add_argument("--seed", type=int)
    _add_format_flags(p)

    p = subs.add_parser("test",
                        help="adjusted permutation test on a CSV file")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="estimates",
                   choices=("estimates",) + MODES)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--side", default="right",
                   choices=("right", "left", "two-sided"))
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="null shift of the treated-minus-control mean")
    p.add_argument("--sample-m", nargs="?", type=int,
                   const=DEFAULT_SAMPLE_M, default=None, metavar="M",
                   help="draw M random assignments (plus the identity) "
                        "instead of enumerating all of them "
                        f"(M defaults to {DEFAULT_SAMPLE_M})")
    p.add_argument("--calibrate", action="store_true",
                   help="calibrate bar_alpha by Monte Carlo instead of "
                        "looking it up in the embedded table (a "
                        "two-sided test calibrates at alpha/2)")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="override a calibration parameter (repeatable)")
    p.add_argument("--seed", type=int)
    _add_format_flags(p)

    p = subs.add_parser("power",
                        help="lower bound on the rejection probability")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sigmas-treated", required=True,
                   help="comma-separated treated-cluster sigmas")
    p.add_argument("--sigmas-control", required=True,
                   help="comma-separated control-cluster sigmas")
    _add_format_flags(p)

    p = subs.add_parser("simulate",
                        help="run a comparison study and write CSV")
    p.add_argument("--study", required=True, choices=("normal", "did"))
    p.add_argument("--config", required=True,
                   help="key=value file of study settings")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int,
                   help="override the seed from the config file")
    p.add_argument("--json", action="store_true",
                   help="print the run summary as JSON")
    return parser


def parse_key_value_file(path) -> dict[str, str]:
    """Flat key=value config file: one pair per line, '#' comments and
    blank lines ignored."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(
                f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise InputFormatError(f"line {lineno}: empty key")
        if key in out:
            raise InputFormatError(f"line {lineno}: duplicate key "
                                   f"{key!r}")
        out[key] = value.strip()
    return out


def config_from_strings(cls, mapping: dict[str, str]):
    """cls built from string values keyed by field name.  Each value
    takes the type of its field's default; a tuple field takes a
    comma-separated list, each entry typed like the default's entries."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, text in mapping.items():
        if key not in defaults:
            raise DomainError(f"unknown config key {key!r} for {cls.__name__}; "
                              f"valid names: {', '.join(defaults)}")
        default = defaults[key]
        kind = type(default[0] if isinstance(default, tuple) else default)
        try:
            if isinstance(default, tuple):
                kwargs[key] = tuple(kind(p) for p in text.split(",")
                                    if p.strip() != "")
            else:
                kwargs[key] = kind(text)
        except ValueError:
            raise DomainError(f"config key {key} must be {kind.__name__}, "
                              f"got {text!r}") from None
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload dict, text rendering)
# ---------------------------------------------------------------------------

def _cmd_bound(ns):
    value = size_bound(ns.q1, ns.q0)
    check_alpha(ns.alpha)
    payload = {"command": "bound", "q1": ns.q1, "q0": ns.q0,
               "alpha": ns.alpha, "size_bound": value,
               "exceeds_alpha": value > ns.alpha}
    return payload, f"{value:.4f}"


def _alpha_entry(ns, design, alpha, seed):
    """The adjusted level for the command: under --calibrate, calibrated
    with `seed`, exhaustively when the design has fewer than
    ENUMERATION_THRESHOLD assignments (which refuses the sampled
    calibrator's parameters) and on a sample otherwise; else the
    tabulated entry."""
    if not ns.calibrate:
        if ns.param:
            raise DomainError("--param requires --calibrate")
        return lookup_bar_alpha(design.q1, design.q0, alpha)
    mapping = dict(item.partition("=")[::2] for item in ns.param)
    params = replace(config_from_strings(CalibrationParams, mapping),
                     seed=seed)
    n = design.n_assignments
    if n >= ENUMERATION_THRESHOLD:
        return calibrate_sampled(design, alpha, params=params)
    ignored = [name for name in SAMPLED_PARAMS if name in mapping]
    if ignored:
        raise DomainError(
            f"{', '.join(ignored)}: parameters of the sampled calibrator "
            f"(C(q, q1) >= {ENUMERATION_THRESHOLD}); this design has {n} "
            "assignments and is calibrated exhaustively")
    return calibrate_exhaustive(design, alpha, params=params)


def _cmd_alpha(ns):
    seed = None
    if ns.calibrate:
        seed = ns.seed if ns.seed is not None else secrets.randbits(31)
    entry = _alpha_entry(ns, Design(ns.q1, ns.q0), ns.alpha, seed)
    payload = {"command": "alpha", **entry.to_json_dict()}
    text = (f"bar_alpha={entry.bar_alpha:.4f} "
            f"order_index={entry.order_index} source={entry.source}")
    if seed is not None:
        payload["seed"] = seed
        text += f" seed={seed}"
    return payload, text


def _cmd_test(ns):
    estimates = (load_estimates(ns.input) if ns.mode == "estimates"
                 else cluster_estimates(ingest_csv(ns.input), ns.mode))
    design = estimates.design
    if ns.sample_m is not None and ns.sample_m < 1:
        raise DomainError(f"--sample-m must be positive, got {ns.sample_m}")
    sampled = ns.sample_m is not None and design.n_assignments > ns.sample_m
    seed = None
    if sampled or ns.calibrate:
        seed = ns.seed if ns.seed is not None else secrets.randbits(31)
    entry = _alpha_entry(ns, design, adjustment_level(ns.alpha, ns.side),
                         seed)
    assignments = (sample_assignments(design, ns.sample_m,
                                      rng=RngStream(seed))
                   if sampled else None)
    outcome = adjusted_test(estimates, ns.alpha, side=ns.side, lam=ns.lam,
                            assignments=assignments, alpha_entry=entry)
    payload = {"command": "test", "input": ns.input, "mode": ns.mode,
               "q1": design.q1, "q0": design.q0}
    payload.update(outcome.to_json_dict())
    payload["bar_alpha_source"] = entry.source
    if ns.calibrate:
        payload["calibration_seed"] = seed
        payload["diagnostics"] = entry.diagnostics
    if seed is not None:
        payload["seed"] = seed
    p_shown = {"right": outcome.p_value_right,
               "left": outcome.p_value_left,
               "two-sided": outcome.p_value_two_sided}[ns.side]
    lines = [f"decision={outcome.decision}",
             f"p_value={p_shown:.6g}",
             f"statistic={outcome.statistic:.6g}",
             f"critical_value={outcome.critical_value:.6g}",
             f"bar_alpha={outcome.bar_alpha_used:.4f} ({entry.source})",
             f"assignments={outcome.n_assignments} "
             f"({outcome.assignment_source})"]
    if seed is not None:
        lines.append(f"seed={seed}")
    return payload, "\n".join(lines)


def _parse_sigmas(text: str, label: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise DomainError(f"{label} must list at least one sigma")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise DomainError(f"{label} must be comma-separated numbers, "
                          f"got {text!r}") from None


def _cmd_power(ns):
    spec = PowerSpec(delta=ns.delta,
                     sigmas_treated=_parse_sigmas(ns.sigmas_treated,
                                                  "--sigmas-treated"),
                     sigmas_control=_parse_sigmas(ns.sigmas_control,
                                                  "--sigmas-control"))
    value = power_lower_bound(spec)
    payload = {"command": "power", "delta": ns.delta,
               "sigmas_treated": list(spec.sigmas_treated),
               "sigmas_control": list(spec.sigmas_control),
               "power_lower_bound": value}
    return payload, f"{value:.6g}"


def _cmd_simulate(ns):
    mapping = parse_key_value_file(ns.config)
    if ns.seed is not None:
        mapping["seed"] = str(ns.seed)
    if ns.study == "normal":
        cfg = config_from_strings(NormalLocationConfig, mapping)
        table = run_normal_location_study(cfg, workers=ns.workers)
    else:
        cfg = config_from_strings(DidConfig, mapping)
        table = run_did_study(cfg, workers=ns.workers)
    table.write_csv(ns.out)
    payload = {"command": "simulate", "study": ns.study, "out": ns.out,
               "rows": len(table.rows), "seed": cfg.seed,
               "replications": cfg.replications,
               "data_checksum": table.metadata["data_checksum"]}
    text = (f"wrote {ns.out} rows={len(table.rows)} seed={cfg.seed} "
            f"checksum={table.metadata['data_checksum']}")
    return payload, text


_HANDLERS = {
    "bound": _cmd_bound,
    "alpha": _cmd_alpha,
    "test": _cmd_test,
    "power": _cmd_power,
    "simulate": _cmd_simulate,
}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}),
          file=sys.stderr)


def _csv_record(payload: dict) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, (list, tuple)):
            return " ".join(str(x) for x in v)
        return json.dumps(v) if isinstance(v, dict) else str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(payload)
    writer.writerow(map(cell, payload.values()))
    return buf.getvalue().rstrip("\n")


def dispatch(argv=None) -> int:
    """Parse argv, run the subcommand, print its output.  Returns the
    process exit code instead of raising."""
    try:
        ns = _parser().parse_args(argv)
        if getattr(ns, "json", False) and getattr(ns, "csv", False):
            raise _UsageError("choose at most one of --json / --csv")
        payload, text = _HANDLERS[ns.command](ns)
        if getattr(ns, "json", False):
            text = json.dumps(payload, allow_nan=False)
        elif getattr(ns, "csv", False):
            text = _csv_record(payload)
    except _UsageError as exc:
        _emit_error("UsageError", str(exc))
        return 2
    except SystemExit as exc:      # argparse --help
        return int(exc.code or 0)
    except (ValidationError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    except ClusterPermError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except Exception as exc:       # e.g. a non-finite --json payload
        _emit_error(type(exc).__name__, str(exc))
        return 1
    print(text)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
