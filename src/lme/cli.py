"""Command-line front end.

Subcommands::

    lme solve --a A1.json [--a A2.json ...] --b B1.json [...] --c C.json
    lme sylvester|stein --a A.json --b B.json --c C.json
    lme clyap|dlyap --a A.json --c C.json
    lme verify [--trials T --n N --k K --seed S | file flags as solve]
    lme diagonalize M1.json [M2.json ...] [--pair]

Matrices live in JSON files {"rows": r, "cols": c, "data": [[[re, im], ...]]}
(row major, one [re, im] pair per entry); a plain-text alternative with one
row per line and complex tokens such as ``1+2j`` is accepted on input.

Reports are JSON objects written one top-level key per line, each value
encoded compactly.  A structured solve report keeps the solution set in the
factored form the solver returns: ``S`` and ``S_inv`` (matrix payloads) and
``zero_cells``, where basis member i is ``outer(S[:, r], S_inv[c, :])`` for
``[r, c] = zero_cells[i]``.  An oracle report (``--force-oracle``) has no S
and lists its nullspace densely under ``basis``.

Exit codes, each set in ``main`` alone:

    0  success; the equation is consistent
    1  ``error: ...``: an unreadable or malformed matrix file (the message
       names it), a non-square or size-mismatched matrix, a matrix whose
       norm or commutator overflows (NonFiniteError), a bad flag value or
       an unwritable --out path
    2  ``hypothesis violated: <CauseType>: <message>``: the inputs break a
       hypothesis of the structured solver (without --force-oracle); verify
       appends the trial, as `` (trial 3)`` or `` (input files)``
    3  the equation is inconsistent
    4  verify: the solver and the oracle disagree

solve and the named forms take --tol-zero, --tol-cluster, --tol-res and
--tol-rank; verify and diagonalize take only --tol-zero and --tol-cluster.
The flags a subcommand registers, over the defaults, make the one
``Tolerances`` value of the run.  A report echoes those flags' values.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import equations, oracle
from .errors import (
    DimensionMismatchError,
    HypothesisViolatedError,
    LmeError,
    NonFiniteError,
    NonSquareError,
    OracleMismatchError,
)
from .instances import random_equation_instance
from .matcore import as_matrix
from .simdiag import _induced_pair, simultaneous_diagonalizer, validate_family
from .tolerances import DEFAULT, Tolerances

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2
EXIT_INCONSISTENT = 3
EXIT_MISMATCH = 4

_NAMED_FORMS = ("sylvester", "stein", "clyap", "dlyap")


# ---------------------------------------------------------------------------
# matrix file format

def _pairs(values) -> list:
    z = np.asarray(values, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


def matrix_payload(m: np.ndarray) -> dict:
    z = np.asarray(m, dtype=complex)
    return {"rows": int(z.shape[0]), "cols": int(z.shape[1]), "data": _pairs(z)}


def payload_matrix(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.shape != (rows, cols, 2):
        raise ValueError("declared shape does not match data")
    return as_matrix(data[..., 0] + 1j * data[..., 1])


def parse_matrix_text(text: str) -> np.ndarray:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([complex(tok) for tok in line.split()])
    if not rows:
        raise ValueError("no matrix rows found")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("rows have differing lengths")
    return as_matrix(np.array(rows, dtype=complex))


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return payload_matrix(json.loads(text))
    return parse_matrix_text(text)


def dump_matrix(m: np.ndarray) -> str:
    """Canonical form, one compact JSON line (the C encoder); writing,
    re-parsing and re-writing is byte stable."""
    return json.dumps(matrix_payload(m)) + "\n"


def write_matrix(path: str, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_matrix(m))


class _UsageError(Exception):
    """A bad input file, flag value or --out path: ``main`` exits 1."""


def _read(path: str) -> np.ndarray:
    """``load_matrix``, with a failure re-raised as a ``_UsageError`` whose
    message starts with the path (json.JSONDecodeError is a ValueError)."""
    try:
        return load_matrix(path)
    except KeyError as exc:
        raise _UsageError(f"{path}: missing key {exc}") from exc
    except OSError as exc:
        raise _UsageError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, TypeError, LmeError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _load_spec(args):
    """Read every input file once.  Returns the equation spec and, for a
    named form, its own A and B (B is None for the Lyapunov forms)."""
    if args.command in _NAMED_FORMS:
        a = _read(args.a)
        b = _read(args.b) if args.command in ("sylvester", "stein") else None
        return equations.named_form_spec(args.command, a, _read(args.c), b), a, b
    a_list = [_read(p) for p in args.a]
    b_list = [_read(p) for p in args.b]
    return equations.equation_spec(a_list, b_list, _read(args.c)), None, None


def _emit(report: dict, out_path: str | None) -> None:
    # without indent json.dumps runs the C encoder; indent=2 would encode
    # every nested float in pure Python
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in report.items())
    text = "{\n" + lines + "\n}\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"{out_path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# argument plumbing

# Tolerances field -> help; each subcommand registers the flags it reads
_TOLERANCE_FLAGS = {
    "zero": "zero threshold",
    "cluster": "eigenvalue clustering gap",
    "res": "residual acceptance",
    "rank": "rank threshold",
}


def _add_common(parser: argparse.ArgumentParser, run, *fields: str) -> None:
    """Tolerance flags, --out, and the ``run(args, tol)`` ``main`` calls."""
    for name in fields:
        default = getattr(DEFAULT, name)
        parser.add_argument(f"--tol-{name}", type=float, default=default,
                            help=f"{_TOLERANCE_FLAGS[name]} (default {default})")
    parser.set_defaults(run=run, tol_fields=fields)
    parser.add_argument("--out", default=None, help="write the JSON report here")


def _tolerances(args) -> Tolerances:
    """The run's tolerances: the registered flags over the defaults."""
    try:
        return Tolerances(**{name: getattr(args, f"tol_{name}") for name in args.tol_fields})
    except ValueError as exc:
        # the message starts with the field's name
        raise _UsageError(f"--tol-{exc}") from exc


def _echo(tol: Tolerances, args) -> dict[str, float]:
    """The report's ``tolerances``: the registered flags and their values."""
    return {f"tol_{name}": getattr(tol, name) for name in args.tol_fields}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR; argparse's own code, 2, is
    EXIT_HYPOTHESIS here.  Subparsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call rather than at import."""
    parser = _Parser(
        prog="lme",
        description="Solve linear matrix equations with commuting diagonalizable coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("solve", "general equation sum_j A_j X B_j = C"),
        ("sylvester", "A X + X B = C"),
        ("stein", "A X B - X = C"),
        ("clyap", "A* X + X A = C (A normal, C Hermitian)"),
        ("dlyap", "A* X A - X = C (A normal, C Hermitian)"),
    ):
        p = sub.add_parser(name, help=blurb)
        files = "append" if name == "solve" else "store"
        p.add_argument("--a", action=files, required=True, metavar="FILE")
        if name not in ("clyap", "dlyap"):
            p.add_argument("--b", action=files, required=True, metavar="FILE")
        p.add_argument("--c", required=True, metavar="FILE")
        p.add_argument("--force-oracle", action="store_true",
                       help="fall back to the brute-force oracle when the "
                            "structural hypotheses fail")
        _add_common(p, _cmd_equation, *_TOLERANCE_FLAGS)

    p_verify = sub.add_parser("verify", help="referee the solver against the oracle")
    p_verify.add_argument("--a", action="append", metavar="FILE")
    p_verify.add_argument("--b", action="append", metavar="FILE")
    p_verify.add_argument("--c", metavar="FILE")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=4)
    p_verify.add_argument("--k", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="report one more dimension than solve found (negative control)")
    _add_common(p_verify, _cmd_verify, "zero", "cluster")

    p_diag = sub.add_parser("diagonalize", help="joint diagonalizer and induced vectors")
    p_diag.add_argument("matrices", nargs="+", metavar="FILE")
    p_diag.add_argument("--pair", action="store_true",
                        help="with exactly two inputs, also recover the induced "
                             "pair from eigenvalues alone")
    _add_common(p_diag, _cmd_diagonalize, "zero", "cluster")
    return parser


# ---------------------------------------------------------------------------
# shared solve/report path

def _structured_report(spec, result, evidence, echo) -> dict:
    # residuals of the x_hat and basis the report carries; the evidence's
    # flags are its own view, on the Drazin candidate.  zero_cells is read
    # off the basis so that member i is outer(S[:, r_i], S_inv[c_i, :])
    basis = result.basis
    residuals = {
        "x_hat_equation": equations.equation_residual(spec, result.x_hat),
        "x_hat_standard": equations.standard_residual(spec, result.x_hat),
        "basis_homogeneous_max": equations.basis_residual_max(spec, basis),
    }
    return {
        "consistent": result.consistent,
        "dimension": result.dimension,
        "x_hat": matrix_payload(result.x_hat),
        "S": matrix_payload(basis.diagonalizer),
        "S_inv": matrix_payload(basis.inverse),
        "residuals": residuals,
        "diagnostics": list(evidence.diagnostics),
        "equivalence_checks": evidence.flags(),
        "witness_row": result.witness_r,
        "normal_certificate": result.normal_certificate,
        "zero_cells": [[int(r), int(c)] for r, c in zip(basis.rows, basis.cols)],
        "mode": "structured",
        "tolerances": echo,
    }


def _oracle_report(spec, tol, echo, reason: str) -> dict:
    sol = oracle.oracle_solve(oracle.vectorize(spec), tol.rank)
    warning = (
        "WARNING: structural hypotheses violated "
        f"({reason}); falling back to the brute-force vectorized oracle. "
        "Structure-based guarantees do not apply to this answer."
    )
    x = sol.min_norm_solution
    return {
        "consistent": sol.consistent,
        "dimension": sol.dimension,
        "x_hat": matrix_payload(x) if x is not None else None,
        "basis": [matrix_payload(b) for b in sol.nullspace],
        "residuals": {"oracle_system": sol.residual},
        "diagnostics": [warning],
        "equivalence_checks": None,
        "mode": "oracle",
        "tolerances": echo,
    }


def _cmd_equation(args, tol: Tolerances) -> int:
    command = args.command
    spec, a_mat, b_mat = _load_spec(args)
    try:
        if command in ("clyap", "dlyap"):
            equations.lyapunov_gate(a_mat, spec.rhs, tol)
        result = equations.solve(spec, tol)
    except HypothesisViolatedError as exc:
        if not args.force_oracle:
            raise
        report = _oracle_report(spec, tol, _echo(tol, args), _violation(exc))
        print(report["diagnostics"][0], file=sys.stderr)
    else:
        evidence = equations.consistency_evidence(spec, result)
        report = _structured_report(spec, result, evidence, _echo(tol, args))
    # after the gate and the solve, which report an overflowing input first
    if command in _NAMED_FORMS:
        report["formula_count"] = equations.named_form_pair_count(command, a_mat, b_mat, tol)
    _emit(report, args.out)
    return EXIT_OK if report["consistent"] else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args, tol: Tolerances) -> int:
    if args.trials is None:
        if not (args.a and args.b and args.c):
            raise _UsageError("verify needs either --trials or --a/--b/--c files")
        trials = [("input files", _load_spec(args)[0])]
    else:
        for flag in ("trials", "n", "k"):
            if getattr(args, flag) < 1:
                raise _UsageError(f"--{flag} must be positive")
        if args.seed < 0:
            raise _UsageError("--seed must be non-negative")
        rng = np.random.default_rng(args.seed)
        trials = []
        for t in range(args.trials):
            zero_rows = t % 3
            inconsistent = zero_rows > 0 and t % 5 == 0
            spec, _ = random_equation_instance(
                rng, args.n, args.k, zero_diag_rows=zero_rows, inconsistent=inconsistent
            )
            trials.append((f"trial {t}", spec))

    checked = 0
    for label, spec in trials:
        try:
            result = equations.solve(spec, tol)
        except HypothesisViolatedError as exc:
            print(f"hypothesis violated: {_violation(exc)} ({label})", file=sys.stderr)
            return EXIT_HYPOTHESIS
        if args.inject_fault:
            result = replace(result, dimension=result.dimension + 1)
        try:
            oracle.compare(result, oracle.vectorize(spec))
        except OracleMismatchError as exc:
            _emit({"agreement": False, "trial": label, "failures": exc.failures,
                   "checked": checked}, args.out)
            return EXIT_MISMATCH
        checked += 1
    _emit({"agreement": True, "checked": checked, "tolerances": _echo(tol, args)}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagonalize

def _cmd_diagonalize(args, tol: Tolerances) -> int:
    mats = [_read(p) for p in args.matrices]
    if args.pair and len(mats) != 2:
        raise _UsageError("--pair needs exactly two matrices")
    family = validate_family(mats, tol)
    star = simultaneous_diagonalizer(family)
    report = {
        "diagonalizer": matrix_payload(star.diagonalizer),
        "induced_vectors": _pairs(star.vectors),
        "block_levels": [[[lo, hi] for lo, hi in level] for level in star.levels],
        "tolerances": _echo(tol, args),
    }
    if args.pair:
        avec, bvec, collisions, beta = _induced_pair(family, star)
        report["pair"] = {
            "a": _pairs(avec),
            "b": _pairs(bvec),
            "collision_set": _pairs(collisions),
            "beta": _pairs(beta),
        }
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _violation(exc: LmeError) -> str:
    """``<CauseType>: <message>`` of a hypothesis failure, with the cause
    unwrapped from a HypothesisViolatedError."""
    if isinstance(exc, HypothesisViolatedError) and exc.cause is not None:
        exc = exc.cause
    return f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, _tolerances(args))
    except (_UsageError, NonSquareError, DimensionMismatchError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except LmeError as exc:
        print(f"hypothesis violated: {_violation(exc)}", file=sys.stderr)
        return EXIT_HYPOTHESIS


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
