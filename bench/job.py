"""One benchmark job, run in a fresh child process by run.py.

    python3 bench/job.py REPORT [--trace] cli ARGS...   the bilocal CLI
    python3 bench/job.py REPORT [--trace] hw SEED       the hw library job
    python3 bench/job.py REPORT setup WORKLOAD          imports and inputs only

Before and after the job the child times a fixed reference loop, so that
run.py can rescale the job's wall time to a reference host speed (the
host this benchmark runs on changes speed by up to 2x over minutes, and
only a measurement made in the same process tracks it).  bilocal is
imported inside the job, after the first loop.  With --trace the bilocal
modules are wrapped by tracer.py before the job starts.  REPORT receives
the loop times and the trace as JSON.

The CLI job's stdout and exit code are those of `bilocal ARGS`.  The hw
job prints one JSON line: the operations it attempted, the names of
those whose output disagreed with its closed form, and the names of
those that hit the known gamma-identity defect.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import CLI_OPS, hw_cases  # noqa: E402


def run_cli(argv) -> int:
    from bilocal import cli

    code = cli.main(argv)
    sys.stdout.flush()
    return code


def setup(workload: str) -> int:
    """Start-up cost of a job: import bilocal, build every context and
    input of the workload, run no check."""
    from bilocal import cli
    from bilocal.fock import FockContext

    parser = cli.build_parser()
    for argv in CLI_OPS[workload]:
        args = parser.parse_args(argv)
        if hasattr(args, "kind"):
            FockContext(args.kind, args.N, args.M, args.P).validate()
    if workload == "hw":
        list(hw_cases())
    return 0


# ---------------------------------------------------------------------------
# hw library job


def _wrong_weight(w, shift):
    from bilocal.sectors import Weight

    return Weight(w.field_kind, tuple(x + shift for x in w.head_plus),
                  None if w.head_minus is None else tuple(x + shift for x in w.head_minus),
                  w.tail + shift)


def _conditions_expected(ctx) -> int:
    """Ground-state conditions verify_hw_conditions must check: all X, the
    raising E and one Cartan E per mode and species."""
    M = ctx.M
    if ctx.field_kind == "complex":
        return M * M + M * (M - 1) + 2 * M
    return M * (M + 1) // 2 + M * (M - 1) // 2 + M


def _ground_ok(ctx, s, v) -> bool:
    """Nonzero, integer coefficients, every monomial on the sector's
    occupation profile."""
    from bilocal.fock import occupation_profile

    rows_a = tuple(s.y_plus.row(i) for i in range(1, ctx.M + 1))
    rows_b = tuple(s.y_minus.row(i) for i in range(1, ctx.M + 1)) if s.y_minus else (0,) * ctx.M
    if v.is_zero():
        return False
    for m, c in v.items():
        if c.denominator != 1 or occupation_profile(m, ctx) != (rows_a, rows_b):
            return False
    return True


def hw(seed: int) -> int:
    from bilocal import casimir, sectors

    rng = random.Random(seed)
    cases = list(hw_cases())
    rng.shuffle(cases)
    attempted, failed, defects = 0, [], []

    def op(name, fn, check):
        """Run one operation and check its output; return the output, or
        None when it raised."""
        nonlocal attempted
        attempted += 1
        value = None
        try:
            value = fn()
            outcome = check(value)
        except Exception as exc:  # any exception is a failed operation
            outcome = f"{type(exc).__name__}: {exc}"
        if outcome == "defect":
            defects.append(name)
        elif outcome is not True:
            failed.append(f"{name}: {outcome}")
        return value

    for s, n, ctx, det_ctx in cases:
        w = sectors.weight_from_sector(s)
        tag = f"{ctx.field_kind} {s} n={n} M={ctx.M} P={ctx.P}"
        v = op(f"ground_state {tag}", lambda: sectors.build_ground_state(ctx, s),
               lambda v: _ground_ok(ctx, s, v))
        if v is None:
            continue
        op(f"hw_conditions {tag}", lambda: sectors.verify_hw_conditions(ctx, v, w),
           lambda r: r["ok"] is True and r["conditions_checked"] == _conditions_expected(ctx))
        wrong = _wrong_weight(w, rng.choice((1, 2)))
        op(f"hw_conditions_wrong_weight {tag}",
           lambda: sectors.verify_hw_conditions(ctx, v, wrong),
           lambda r: r["ok"] is False or "negative control passed")
        op(f"gamma_identity {tag}", lambda: casimir.verify_gamma_identity(ctx, s, n),
           lambda r: _gamma_outcome(r, ctx, s, n))
        op(f"cg_eigenvalue {tag}", lambda: casimir.cg_eigenvalue_oracle(ctx, s, n),
           lambda value: value == casimir.cg_candidate_shifted_delta(w, n) or f"got {value}")
        det_tag = f"{tag} det_M={det_ctx.M}"
        op(f"det_recursion {det_tag}", lambda: sectors.determinant_recursion_check(det_ctx, s, 2),
           lambda r: (r["ok"] is True and r["lhs"] == r["expected"]
                      and r["coefficient"] == sectors.determinant_recursion_coefficient(w, 2)))
    print(json.dumps({"attempted": attempted, "failed": failed, "defects": defects}))
    return 0


def _gamma_outcome(r, ctx, s, n):
    """True when the identity holds with gamma equal to its closed form;
    "defect" for the known n < M lookup miss (casimir._vector_weight builds
    weights of length M, canonical_lambda of length n, so the compact
    module lookup never matches); a description otherwise."""
    from bilocal.casimir import gamma_closed_form

    closed = gamma_closed_form(s)
    if r["ok"] is True and r["gamma"] == closed:
        return True
    if r.get("case") == "no_vector_found" and n < ctx.M and closed != 0:
        return "defect"
    return f"ok={r['ok']} case={r.get('case')} gamma={r['gamma']} closed_form={closed}"


# ---------------------------------------------------------------------------


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of the operations bilocal
    spends its time in: tuple keys, dict updates, Fraction arithmetic."""
    t0 = time.perf_counter()
    acc = {}
    for j in range(4000):
        key = tuple(sorted((j % 17, j % 5, j % 3)))
        acc[key] = acc.get(key, 0) + Fraction(j, 7) * Fraction(3, j + 1)
    return time.perf_counter() - t0


def main(argv) -> int:
    report_path, argv = Path(argv[0]), argv[1:]
    report = {"reference_s": [reference_loop()]}
    tracer = None
    if argv[0] == "--trace":
        from tracer import Tracer, install

        argv = argv[1:]
        tracer = Tracer()
        install(tracer)
    kind, rest = argv[0], argv[1:]
    if kind == "cli":
        code = run_cli(rest)
    elif kind == "hw":
        code = hw(int(rest[0]))
    elif kind == "setup":
        code = setup(rest[0])
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    report["reference_s"].append(reference_loop())
    if tracer is not None:
        report["trace"] = tracer.report()
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
