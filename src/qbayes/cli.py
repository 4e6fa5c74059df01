"""Batch front end: load model files, compute bounds and certifications,
emit machine-readable reports.

Subcommands: bounds (selected lower bounds as a JSON report), verify
(ordering audit plus seesaw certification), zoo (materialize a built-in
model to the JSON format), lemmas (the identity/chain property suites).

Exit codes: 0 success; 2 validation error (a model file that cannot be
read or is rejected, an output path that cannot be written or that names the
model file or the other output, bad selector, bad zoo name, count or seed,
bad seed list, negative seed, outcome count below the model's d, trial or
iteration count below one, or a `verify` model whose weight is not
constant); 3 solver failure or an ordering margin below -MARGIN_TOL = -1e-6
(`verify.LADDER`): a solve that fails outside `bounds`, whose report carries
each bound's error, stops the command with the one stderr line
"solver failure during <command>: <message>", without a traceback or a
report; 141 (128 + SIGPIPE, as a shell reports a writer whose reader left)
when standard output is closed before all of the output is written: the
command stops writing, without a traceback. Output paths are
checked before any solve. Per-bound capability errors are reported inside
the `bounds` output without failing the run.
QBAYES_GAP_TOL, a finite positive number, sets the relative gap of every SDP
a command solves (default GAP_TOL, and 1e-10 for the `lemmas` identity
suite); each command reads it once and reports an invalid value on stderr.
The library never reads it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from .closedform import SingularInformationError, rld_bound, sld_bound, \
    van_tree_bound
from .conic import GAP_TOL, SolverFailureError
from .model import CapabilityError, ModelError, build_extended_moments, \
    load_model, model_to_dict, model_zoo
from .sdpbounds import f_family_pinned_example, f_family_suite, \
    holevo_lemma_sdp_value, holevo_lemma_suite, holevo_lemma_value, \
    holevo_type_bound, nagaoka_bound, nagaoka_hayashi_bound
from .verify import MARGIN_TOL, ladder_margins, ordering_audit, seesaw

BOUND_NAMES = ("nh", "holevo", "nagaoka2", "sld", "rld", "vantree")
GAP_TOL_ENV = "QBAYES_GAP_TOL"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_PIPE = 141


def _write_text(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Validation(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_outputs(inputs: dict, outputs: dict) -> None:
    """Fail before any work on an output path that cannot be written, or
    that names the same file as an input or another output, which writing it
    would overwrite. Both map an option to its path, None if not given. The
    probe appends nothing and removes a file it had to create."""
    taken = {os.path.realpath(path): opt for opt, path in inputs.items()}
    for opt, path in outputs.items():
        if not path:
            continue
        real = os.path.realpath(path)
        if real in taken:
            raise _Validation(f"{taken[real]} and {opt} name the same "
                              f"file: {path}")
        taken[real] = opt
        existed = os.path.exists(path)
        _write_text(path, "", "a")
        if not existed:
            os.remove(path)


def _write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        _write_text(out_path, text + "\n")
    else:
        print(text)


def _env_gap_tol() -> float | None:
    """QBAYES_GAP_TOL if it is a finite positive number, else None; an
    invalid value is reported on stderr."""
    env = os.environ.get(GAP_TOL_ENV)
    if not env:
        return None
    try:
        tol = float(env)
    except ValueError:
        tol = math.nan
    if math.isfinite(tol) and tol > 0:
        return tol
    print(f"warning: ignoring {GAP_TOL_ENV}={env!r}: not a finite positive "
          "number", file=sys.stderr)
    return None


def _model_digest(model) -> str:
    canonical = json.dumps(model_to_dict(model), sort_keys=True,
                           separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load(path: str):
    try:
        return load_model(path)
    except OSError as exc:
        raise _Validation(f"cannot read model file: {exc}")
    except UnicodeDecodeError as exc:
        raise _Validation(f"model file is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise _Validation(f"model file is not valid JSON: {exc}")
    except ModelError as exc:
        raise _Validation(f"model file rejected: {exc}")


class _Validation(Exception):
    """Internal signal mapped to exit code 2."""


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _solved(sol) -> dict:
    """Report fields of an SDP bound: its value and the solve's record."""
    diag = sol.diagnostics
    return {"value": sol.value, "solver_status": diag.status, "gap": diag.gap,
            "iterations": diag.iterations, "feas_primal": diag.feas_primal,
            "feas_dual": diag.feas_dual}


def _bound_runners(model, gap_tol: float) -> dict:
    """Per bound name, a call that returns its report entry."""
    moments = functools.cache(lambda: build_extended_moments(model))
    weight = model.weight_spec.require_constant

    def closed_form(value):
        return {"value": value, "solver_status": "closed-form", "gap": 0.0}

    return {
        "nh": lambda: _solved(nagaoka_hayashi_bound(moments(), gap_tol)),
        "holevo": lambda: _solved(holevo_type_bound(moments(), gap_tol)),
        "nagaoka2": lambda: _solved(nagaoka_bound(moments(), gap_tol)),
        "sld": lambda: closed_form(sld_bound(moments(), weight())[0]),
        "rld": lambda: closed_form(rld_bound(moments(), weight())[0]),
        "vantree": lambda: closed_form(van_tree_bound(model, weight())),
    }


def cmd_bounds(args) -> int:
    model = _load(args.model)
    tokens = [t.strip() for t in args.bounds.split(",") if t.strip()]
    if not tokens:
        raise _Validation("empty bounds selector")
    selected = []
    for t in tokens:
        if t == "all":
            selected.extend(n for n in BOUND_NAMES if n not in selected)
        elif t in BOUND_NAMES:
            if t not in selected:
                selected.append(t)
        else:
            raise _Validation(
                f"unknown bound selector {t!r}; valid: "
                f"{', '.join(BOUND_NAMES + ('all',))}")
    _check_outputs({"--model": args.model},
                   {"--out": args.out, "--csv": args.csv})

    gap_tol = _env_gap_tol() or GAP_TOL
    runners = _bound_runners(model, gap_tol)
    bounds = {}
    notes = []
    solver_failed = False
    for name in selected:
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                entry = runners[name]()
            except (CapabilityError, SingularInformationError) as exc:
                entry = {"error": str(exc), "error_kind": "capability"}
            except SolverFailureError as exc:
                entry = {"error": str(exc), "error_kind": "solver"}
                solver_failed = True
        entry["wall_time_ms"] = (time.perf_counter() - t0) * 1000.0
        for w in caught:
            notes.append(f"{name}: {w.message}")
        bounds[name] = entry

    audit = ladder_margins({n: e["value"] for n, e in bounds.items()
                            if "value" in e})

    report = {
        "model_digest": _model_digest(model),
        "gap_tol": gap_tol,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "bounds": bounds,
        "audit": audit,
        "warnings": notes,
    }
    _write_report(report, args.out)
    if args.csv:
        lines = ["bound,value,solver_status,gap,wall_time_ms\n"]
        for name in selected:
            e = bounds[name]
            if "value" in e:
                lines.append(f"{name},{e['value']!r},{e['solver_status']},"
                             f"{e['gap']!r},{e['wall_time_ms']:.3f}\n")
            else:
                lines.append(f"{name},,error:{e['error_kind']},,"
                             f"{e['wall_time_ms']:.3f}\n")
        _write_text(args.csv, "".join(lines))
    return EXIT_SOLVER if solver_failed else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    model = _load(args.model)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise _Validation(f"--seeds must be comma-separated integers, "
                          f"got {args.seeds!r}") from None
    if not seeds:
        raise _Validation("empty seed list")
    if min(seeds) < 0:
        raise _Validation(f"--seeds must be non-negative, got {args.seeds!r}")
    if args.outcomes is not None and args.outcomes < model.d:
        raise _Validation(f"--outcomes must be positive and at least the "
                          f"model's d = {model.d}, got {args.outcomes}")
    if args.iters < 1:
        raise _Validation(f"--iters must be positive, got {args.iters}")
    _check_outputs({"--model": args.model}, {"--out": args.out})
    gap_tol = _env_gap_tol() or GAP_TOL
    audit = ordering_audit(model, gap_tol, iters=args.iters,
                           seed=seeds[0], outcome_count=args.outcomes)
    runs = [{"start": "nh", "risk": audit["values"]["seesaw_risk"]}]
    for s in seeds:
        dec = seesaw(model, outcome_count=args.outcomes, iters=args.iters,
                     seed=s, gap_tol=gap_tol)
        runs.append({"seed": s, "risk": dec.risk})

    best = min(r["risk"] for r in runs)
    margins = ladder_margins({**audit["values"], "seesaw": best})
    ok = all(v >= -MARGIN_TOL for v in margins.values())
    report = {
        "model_digest": _model_digest(model),
        "gap_tol": gap_tol,
        "values": audit["values"],
        "seesaw_runs": runs,
        "best_seesaw_risk": best,
        "margins": margins,
        "min_margin": min(margins.values()),
        "ok": ok,
    }
    _write_report(report, args.out)
    if not ok:
        print(f"ordering violation: min margin {min(margins.values()):.3e}",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------

def cmd_zoo(args) -> int:
    try:
        model = model_zoo(args.name, args.params, grid_size=args.grid)
    except ModelError as exc:
        raise _Validation(str(exc))
    text = json.dumps(model_to_dict(model), indent=1)
    if args.out:
        _write_text(args.out, text + "\n")
        print(f"wrote {args.out} ({len(model.points)} grid points, "
              f"n={model.n}, d={model.d})")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def cmd_lemmas(args) -> int:
    if args.trials < 1:
        raise _Validation(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise _Validation(f"--seed must be non-negative, got {args.seed}")
    _check_outputs({}, {"--out": args.out})
    override = _env_gap_tol()
    gap_tol = override or GAP_TOL
    # the 1e-7 identity check is absolute while the solver gap is relative,
    # so large-value triples need a deeper solve; a valid override still wins
    identity_tol = override or 1e-10
    failures = 0

    identity = holevo_lemma_suite(trials=args.trials, seed=args.seed,
                                  gap_tol=identity_tol)
    bad = [r for r in identity
           if r["status"] != "optimal" or r["abs_diff"] > 1e-7]
    max_diff = max((r["abs_diff"] for r in identity), default=0.0)
    line = (f"trace-norm identity: {len(identity) - len(bad)}/{len(identity)} "
            f"agree within 1e-7 (max diff {max_diff:.2e})")
    print(line + (" PASS" if not bad else " FAIL"))
    failures += len(bad)

    W = np.eye(2)
    A = np.diag([1.0, 2.0])
    B = np.array([[0.0, 0.5], [-0.5, 0.0]])
    pinned_closed = holevo_lemma_value(W, A, B)
    pinned_sdp = holevo_lemma_sdp_value(W, A, B, identity_tol).primal_value
    pin_ok = abs(pinned_closed - 4.0) < 1e-12 and abs(pinned_sdp - 4.0) < 1e-7
    print(f"pinned identity case: closed {pinned_closed!r}, sdp "
          f"{pinned_sdp:.9f}, expected 4.0" + (" PASS" if pin_ok else " FAIL"))
    failures += 0 if pin_ok else 1

    chain = f_family_suite(trials=args.trials, seed=args.seed, gap_tol=gap_tol)
    bad_chain = [r for r in chain
                 if r["eq_gap"] > 1e-6 * max(1.0, abs(r["f1"]))
                 or min(r["margin_sdp_f3"], r["margin_f3_f4"],
                        r["margin_sdp_f5"], r["margin_sdp_f2"]) < -1e-7]
    max_eq = max((r["eq_gap"] for r in chain), default=0.0)
    min_margin = min((min(r["margin_sdp_f3"], r["margin_f3_f4"],
                          r["margin_sdp_f5"], r["margin_sdp_f2"])
                      for r in chain), default=0.0)
    line = (f"functional chain: {len(chain) - len(bad_chain)}/{len(chain)} "
            f"instances pass (max equality gap {max_eq:.2e}, min chain "
            f"margin {min_margin:.2e})")
    print(line + (" PASS" if not bad_chain else " FAIL"))
    failures += len(bad_chain)

    pinned = f_family_pinned_example(gap_tol)
    pin2_ok = (abs(pinned["f_sdp"] - 2.0) < 1e-6
               and abs(pinned["f1"] - 2.0) < 1e-12)
    print(f"pinned block instance: f_sdp {pinned['f_sdp']:.9f}, f1 "
          f"{pinned['f1']:.9f}, expected 2.0" + (" PASS" if pin2_ok else " FAIL"))
    failures += 0 if pin2_ok else 1

    if args.out:
        _write_report({
            "identity_suite": identity,
            "pinned_identity": {"closed": pinned_closed, "sdp": pinned_sdp},
            "chain_suite": chain,
            "pinned_chain": pinned,
            "failures": failures,
        }, args.out)
    return EXIT_OK if failures == 0 else EXIT_SOLVER


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbayes",
        description="Bayes-risk lower bounds and certification for "
                    "finite-grid quantum estimation models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="compute selected lower bounds")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--bounds", default="all",
                   help="comma-separated: nh,holevo,nagaoka2,sld,rld,vantree,all")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.add_argument("--csv", default=None, help="also write a flat CSV here")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="ordering audit plus seesaw certification")
    p.add_argument("--model", required=True)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seeds", default="0", help="comma-separated seesaw seeds")
    p.add_argument("--outcomes", type=int, default=None,
                   help="outcomes of the seeded random measurement that "
                        "the --seeds runs start from and the audit blends "
                        "in, at least the model's d (default max(n+2, d))")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zoo", help="materialize a built-in model")
    p.add_argument("name", help="classical_binary | correlated_pair | "
                                "qubit_xy | qubit_z_line | random_model")
    p.add_argument("params", nargs="*", type=float, help="model parameters")
    p.add_argument("--grid", type=int, default=None,
                   help="grid count, unless the params end in one")
    p.add_argument("--out", default=None, help="write model JSON here")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("lemmas", help="run the identity and chain suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", default=None, help="write suite details here")
    p.set_defaults(func=cmd_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a reader that left shows here, not at exit
        return code
    except (_Validation, ModelError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverFailureError as exc:
        print(f"solver failure during {args.command}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BrokenPipeError:
        # the reader of standard output is gone: write nothing more, and
        # point the descriptor at devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
