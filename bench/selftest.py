"""Self-test of the benchmark: runs in well under a minute.

    python3 bench/selftest.py

1. Runs every workload at its tiny size, untraced and traced, through the
   same entry point as a real run, and checks that the report has the keys
   and the metric names BENCHMARK.json declares, and no failed check.
2. Feeds each correctness check a deliberately corrupted value and checks
   that it is rejected, and feeds it the true value and checks that it
   passes.

Exit code 0 when everything holds, 1 otherwise.
"""

import contextlib
import io
import json
import sys
import tempfile

import run  # pins BLAS threads before numpy is imported

FAILURES = []


def expect(cond, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def run_tiny(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    expect(code == 0, f"{workload} trace={trace}: exit code 0")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def end_to_end(spec: dict) -> None:
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report = run_tiny(wl, trace)
            expect(set(report) == {"correct", "attempted", "failed", "metrics"},
                   f"{wl} trace={trace}: report keys")
            expect(report["correct"] is True, f"{wl} trace={trace}: correct")
            expect(report["attempted"] >= 1, f"{wl} trace={trace}: attempted")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            expect(got == declared, f"{wl} trace={trace}: metric names and units")


def corrupted(workloads, checks, qmodel) -> None:
    import numpy as np

    from qbayes import verify

    # the shared checks
    expect(checks.lower_bound_problems("nh", 1.0, 1.0) == [], "bound at the prior risk passes")
    expect(checks.lower_bound_problems("nh", 1.1, 1.0) != [], "bound above the prior risk is rejected")
    expect(checks.lower_bound_problems("nh", float("nan"), 1.0) != [], "NaN bound is rejected")
    good = {"seesaw": 1.0, "nh": 0.9, "holevo": 0.8, "sld": 0.7, "rld": 0.6}
    expect(checks.ordering_problems(good) == [], "ordered sandwich passes")
    for key, value in (("seesaw", 0.85), ("nh", 0.75), ("sld", 0.81), ("rld", 0.81)):
        expect(checks.ordering_problems(dict(good, **{key: value})) != [],
               f"sandwich with {key} = {value} is rejected")

    model = qmodel.random_model(2, 3, seed=2, grid=3)
    povm = verify.random_povm(3, 4, np.random.default_rng(0))
    est = np.random.default_rng(1).uniform(-1, 1, (4, 2))
    expect(abs(checks.decision_risk(model, povm.elements, est)
               - verify.bayes_risk(model, povm, est)) < 1e-12,
           "the risk loop agrees with bayes_risk")
    expect(checks.povm_problems(povm.elements, 3) == [], "a measurement passes")
    short = list(povm.elements[:-1])
    expect(checks.povm_problems(short, 3) != [], "elements missing the identity are rejected")
    bent = [povm.elements[0] - 0.01 * np.eye(3), povm.elements[1] + 0.01 * np.eye(3),
            *povm.elements[2:]]
    expect(checks.povm_problems(bent, 3) != [], "a negative element is rejected")

    from qbayes import build_extended_moments, nagaoka_objective
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    X = (X + X.conj().transpose(0, 2, 1)) / 2
    em = build_extended_moments(model)
    expect(abs(checks.nagaoka_value(model, X) - nagaoka_objective(em, X)) < 1e-9,
           "the objective formula agrees with nagaoka_objective")

    with tempfile.TemporaryDirectory() as tmp:
        # audit-ensemble
        wl = workloads.AuditEnsemble(0, workloads.TINY, tmp)
        op = wl.ops[0]
        audit = op.run()
        wl.finish()
        expect(wl.check(op.label, audit) == (False, []), "audit: a true result passes")
        for key, delta in (("nh", 10.0), ("holevo", -1.0), ("seesaw_risk", 5.0)):
            bad = dict(audit, values=dict(audit["values"]))
            bad["values"][key] += delta
            expect(wl.check(op.label, bad)[1] != [], f"audit: {key} {delta:+} is rejected")
        bad = dict(audit, margins=dict(audit["margins"], nh_minus_holevo=1.0))
        expect(wl.check(op.label, bad)[1] != [], "audit: a forged margin is rejected")

        # bounds-ladder
        wl = workloads.BoundsLadder(0, workloads.TINY, tmp)
        results = [(op.label, op.run()) for op in wl.ops]
        wl.finish()
        for label, result in results:
            expect(wl.check(label, result) == (False, []), f"ladder: {label} passes")
        label, (code, text) = results[0]
        report = json.loads(text)
        entry = report["bounds"]["nh"]

        def forged(**changes):
            r = json.loads(text)
            r["bounds"]["nh"].update(changes)
            return code, json.dumps(r)

        d = int(label.split("-d")[1])
        cases = {
            "status": forged(solver_status="numerical-failure"),
            "gap": forged(gap=10 * report["gap_tol"]),
            "above seesaw": forged(value=wl.refs[d]["seesaw"] + 1e-3),
            "above prior": forged(value=wl.prior[d] + 1e-3),
            "below sld": forged(value=max(wl.refs[d]["sld"], wl.refs[d]["rld"]) - 1e-3),
            "exit code": (3, text),
        }
        for what, result in cases.items():
            expect(wl.check(label, result)[1] != [], f"ladder: forged {what} is rejected")
        expect(entry["solver_status"] == "optimal", "ladder: the true entry is optimal")

        # nagaoka-search
        wl = workloads.NagaokaSearch(0, workloads.TINY, tmp)
        values = {op.label: op.run() for op in wl.ops}
        wl.finish()
        for label, value in values.items():
            expect(wl.check(label, value)[1] == [], f"search: {label} passes its checks")
        expect(wl.check("qubit_xy(0.6)", values["qubit_xy(0.6)"])[0] is False,
               "search: qubit_xy stays below the achieved risk")
        ref = wl.refs["qubit_xy(0.6)"]
        expect(wl.check("qubit_xy(0.6)", ref["holevo"] - 1e-3)[1] != [],
               "search: a value below Holevo is rejected")
        expect(wl.check("qubit_xy(0.6)", ref["start"] + 1e-3)[1] != [],
               "search: a value above the SLD start is rejected")
        expect(wl.check("qubit_xy(0.6)", ref["seesaw"] + 1e-3)[0] is True,
               "search: a value above the achieved risk is counted as failed")


def main() -> int:
    run.import_package()
    import checks
    import workloads
    from qbayes import model as qmodel
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end(spec)
    corrupted(workloads, checks, qmodel)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
