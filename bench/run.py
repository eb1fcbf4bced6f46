"""The bilocal benchmark.

    python3 bench/run.py --workload {verify,classify,hw} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each job is a fresh child
process, one at a time (a closed loop with one client), the way a
`bilocal` CLI user pays for it.  A pass runs every operation of the
workload once, in an order drawn from the seed; passes repeat until the
next one would overrun --seconds.

Times are rescaled to a reference host speed.  Every child times a fixed
reference loop (job.py) before and after its job; its wall time, less
the two loops, is multiplied by REFERENCE_S / (their mean).  The host
this was built on (a 2-vCPU VM, CPython 3.11.7) changes speed by up to 2x
within seconds and for minutes at a time, the same for the loop and the
job in one process, so raw wall times of identical runs spread by 25 %
while rescaled ones agree within a few per cent.  The medians of the net
(not rescaled) times are in the detail line.

--trace 0 prints the end-to-end metrics:
  job_s         one complete pass: the median of each operation's
                rescaled time over the passes, summed over the operations
  setup_s       median rescaled time of a child that starts the
                interpreter, imports bilocal and builds the workload's
                contexts and inputs without running a check
  peak_rss_mib  median over passes of the largest child peak RSS
  pass_ratio    share of attempted operations whose output is right;
                an operation that hits the known gamma-identity defect
                counts against it (it lists the defect by name) but is
                not a failure, since its output is the seed's

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (tracer.py wraps the library from outside).
Times named *.self_s are self times (span minus wrapped children); other
*_s times include children.  Layer times are rescaled like job_s;
proc.cpu_s is the raw CPU time of an untraced pass.

Every operation's output is checked: CLI stdout against its pinned
SHA-256 and exit code (gates.json), verify outputs against the closed
form work model, classify multiplicities against Weyl dimensions, and
the hw library job against closed forms (job.py).  The last stdout line
is the result: {"correct", "attempted", "failed", "metrics"}; the line
before it records the environment, sample counts, failures and defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import CLI_OPS, op_name, option, work_model  # noqa: E402

WORKLOADS = ("verify", "classify", "hw")
JOB_TIMEOUT_S = 120          # a single child that runs longer is killed
HARD_STOP_S = 120            # no pass starts that would end after this
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 15
HW_JOB = "hw library job"
# About the median time of job.reference_loop in a child on the
# reference host, so that rescaled times read close to its wall times.
REFERENCE_S = 0.020


class Child:
    """Outcome of one job.py child: wall seconds, the same less the
    reference loops (net) and rescaled, CPU seconds, peak RSS, exit code,
    output and the child's report (reference loop times and, when traced,
    the trace)."""

    def __init__(self, args, tmp: Path, env):
        out_path, err_path, report_path = tmp / "stdout", tmp / "stderr", tmp / "report.json"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "job.py"), str(report_path), *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes()
        self.report = json.loads(report_path.read_text()) if report_path.exists() else None
        loops = self.report["reference_s"] if self.report else []
        self.net_s = self.wall_s - sum(loops)
        self.scale = REFERENCE_S / statistics.fmean(loops) if loops else 1.0
        self.scaled_s = self.net_s * self.scale


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.tmp = tmp
        # Children load bilocal from bytecode in src/bilocal/__pycache__, written
        # by the warm-up job, as an installed package does, whatever the
        # caller's environment says about bytecode files.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.gates = json.loads((BENCH / "gates.json").read_text())
        self.ops = [op_name(a) for a in CLI_OPS[workload]] + ([HW_JOB] if workload == "hw" else [])
        self.attempted = 0
        self.failures = []
        self.defects = set()
        self.defect_hits = 0
        self.setup_jobs = []

    # -- one child per job ------------------------------------------------

    def setup_sample(self):
        child = Child(["setup", self.workload], self.tmp, self.env)
        if child.exit != 0 or child.report is None:
            raise RuntimeError(f"setup job failed: {child.stderr.decode(errors='replace')}")
        self.setup_jobs.append(child)

    def run_pass(self, traced: bool):
        """Run every operation once, each in a fresh child; return {op: Child}."""
        order = list(self.ops)
        self.rng.shuffle(order)
        children = {}
        for op in order:
            args = ["--trace"] if traced else []
            if op == HW_JOB:
                args += ["hw", str(self.rng.randrange(2**31))]
            else:
                args += ["cli", *op.split()]
            children[op] = child = Child(args, self.tmp, self.env)
            if child.report is None:
                self.attempted += 1
                self.fail(op, f"the job wrote no report; stderr "
                              f"{child.stderr[-300:].decode(errors='replace')!r}")
            else:
                self.check(op, child)
        return children

    # -- output checks -----------------------------------------------------

    def fail(self, op, why):
        self.failures.append(f"{op}: {why}")

    def check(self, op: str, child: Child):
        if op == HW_JOB:
            return self.check_hw(child)
        self.attempted += 1
        gate = self.gates.get(op)
        digest = hashlib.sha256(child.stdout).hexdigest()
        if gate is None:
            return self.fail(op, "no pinned output in gates.json")
        if child.exit != gate["exit"] or digest != gate["sha256"]:
            return self.fail(op, f"exit {child.exit} (pinned {gate['exit']}), stdout sha256 "
                                 f"{digest[:12]} (pinned {gate['sha256'][:12]}); "
                                 f"stderr {child.stderr[-300:].decode(errors='replace')!r}")
        argv = op.split()
        model = work_model(argv)
        if model is not None:
            sc = json.loads(child.stdout)["checks"]["structure_constants"]
            if (sc["basis_size"], sc["pairs_checked"]) != model:
                return self.fail(op, f"basis {sc['basis_size']} and pairs {sc['pairs_checked']} "
                                     f"differ from the work model {model}")
        if argv[0] == "classify" and option(argv, "--kind") == "complex":
            bad = self.weyl_mismatches(json.loads(child.stdout), int(option(argv, "--N")))
            if bad:
                return self.fail(op, f"multiplicity differs from the Weyl dimension: {bad[:3]}")

    @staticmethod
    def weyl_mismatches(payload, N):
        from bilocal import young as y

        bad = []
        for row in payload["sectors"]:
            s = y.complex_sector(y.YoungDiagram(tuple(row["Y_plus"])),
                                 y.YoungDiagram(tuple(row["Y_minus"])), N)
            dim = y.weyl_dimension_U(y.sector_to_irrep_U(s), N)
            if row["multiplicity"] != dim:
                bad.append(f"{s}: {row['multiplicity']} != {dim}")
        return bad

    def check_hw(self, child: Child):
        try:
            if child.exit != 0:
                raise ValueError(f"exit {child.exit}")
            report = json.loads(child.stdout.splitlines()[-1])
        except (ValueError, IndexError) as exc:
            self.attempted += 1
            return self.fail(HW_JOB, f"{exc}; stderr "
                                     f"{child.stderr[-300:].decode(errors='replace')!r}")
        self.attempted += report["attempted"]
        self.failures += report["failed"]
        self.defects.update(report["defects"])
        self.defect_hits += len(report["defects"])

    # -- metrics -------------------------------------------------------------

    def pass_ratio(self):
        return (self.attempted - len(self.failures) - self.defect_hits) / self.attempted


def job_s(passes, field="scaled_s"):
    """Median time of each operation over the passes, summed."""
    return sum(statistics.median(getattr(p[op], field) for p in passes) for op in passes[0])


def run_untraced(bench: Bench, seconds: float, start: float):
    passes = []
    while True:
        bench.setup_sample()
        passes.append(bench.run_pass(traced=False))
        end = time.perf_counter() - start + job_s(passes, "wall_s")
        if end > HARD_STOP_S or (len(passes) >= MIN_PASSES and end > seconds):
            break
    while len(bench.setup_jobs) < MIN_SETUP_SAMPLES:
        bench.setup_sample()
    metrics = {
        "job_s": (job_s(passes), "s"),
        "setup_s": (statistics.median(c.scaled_s for c in bench.setup_jobs), "s"),
        "peak_rss_mib": (statistics.median(max(c.rss_mib for c in p.values()) for p in passes),
                         "MiB"),
        "pass_ratio": (bench.pass_ratio(), "ratio"),
    }
    return metrics, {"passes": len(passes), "setup_samples": len(bench.setup_jobs),
                     "fail_ratio": 1 - bench.pass_ratio(),
                     "job_net_s": job_s(passes, "net_s"),
                     "setup_net_s": statistics.median(c.net_s for c in bench.setup_jobs),
                     "reference_loop_s": statistics.median(
                         t for c in [*bench.setup_jobs, *(c for p in passes for c in p.values())]
                         for t in c.report["reference_s"])}


def run_traced(bench: Bench, seconds: float, start: float):
    plain, traced = [], []
    while True:
        children = bench.run_pass(traced=False)
        plain.append(children)
        t_children = bench.run_pass(traced=True)
        traced.append(t_children)
        for op, child in t_children.items():
            if op != HW_JOB and child.stdout != children[op].stdout:
                bench.fail(op, "traced stdout differs from the untraced stdout")
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > min(seconds, HARD_STOP_S):
            break
    metrics = layer_metrics(traced)
    metrics["trace.overhead_ratio"] = (job_s(traced) / job_s(plain), "ratio")
    metrics["proc.cpu_s"] = (statistics.median(sum(c.cpu_s for c in p.values()) for p in plain),
                             "s")
    for name, value in zip(("fock.basis_size", "algebra.pairs_checked",
                            "fock.basis_size_predicted", "algebra.pairs_predicted"),
                           bench_work(traced[0])):
        metrics[name] = (value, "count")
    return metrics, {"passes": len(plain), "traced_passes": len(traced)}


def bench_work(children):
    """Measured and predicted basis sizes and generator pairs, summed over
    the verify operations of one pass."""
    sums = [0, 0, 0, 0]
    for op, child in children.items():
        model = work_model(op.split()) if op != HW_JOB else None
        if model is None:
            continue
        sc = json.loads(child.stdout)["checks"]["structure_constants"]
        for i, v in enumerate((sc["basis_size"], sc["pairs_checked"]) + model):
            sums[i] += v
    return sums


def layer_metrics(traced_passes):
    """Per-layer metrics: the median over the traced passes."""
    per_pass = [_pass_layers(p) for p in traced_passes]
    out = {}
    for name, (_, unit) in per_pass[0].items():
        value = statistics.median(m[name][0] for m in per_pass)
        out[name] = (int(value) if unit == "count" and value == int(value) else value, unit)
    return out


def _pass_layers(children):
    stats, counters, shard_s, covered = {}, {}, [], 0.0
    for child in children.values():
        if child.report is None:
            continue
        t, k = child.report["trace"], child.scale
        for name, (calls, total, self_s) in t["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total * k
            agg[2] += self_s * k
        for name, v in t["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
        shard_s += [d * k for d in t["samples"].get("sectors.shard_s", [])]
        covered += t["covered_s"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def ctr(name):
        return counters.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def quantile(values, q):
        if not values:
            return 0.0
        values = sorted(values)
        return values[min(len(values) - 1, int(q * len(values)))]

    labels = calls("young.irrep_U_to_sector") + calls("young.irrep_O_to_sector")
    c, s = "count", "s"
    out = {
        "cli.structure_constants_s": (total("algebra.structure_constants"), s),
        "cli.ccr_s": (total("cli.ccr"), s),
        "cli.adjointness_s": (total("cli.adjointness"), s),
        "cli.vacuum_cartan_s": (total("cli.vacuum_cartan"), s),
        "cli.charge_commutes_s": (total("cli.charge_commutes"), s),
        "cli.gauge_commutant_s": (total("cli.gauge_commutant"), s),
        "cli.classify_s": (total("cli.classify"), s),
        "cli.map_irreps_s": (total("cli.map_irreps"), s),
        "cli.gram_s": (total("cli.gram"), s),
        "algebra.apply_generator.calls": (calls("algebra.apply_generator"), c),
        "algebra.apply_generator.self_s": (self_s("algebra.apply_generator"), s),
        "algebra.apply_generator.terms_in": (ctr("algebra.apply_generator.terms_in"), c),
        "algebra.operator_apply.calls": (calls("algebra.operator_apply"), c),
        "algebra.operator_apply.self_s": (self_s("algebra.operator_apply"), s),
        "algebra.abstract_commutator.calls": (calls("algebra.abstract_commutator"), c),
        "fock.apply_creation.calls": (calls("fock.apply_creation"), c),
        "fock.apply_annihilation.calls": (calls("fock.apply_annihilation"), c),
        "fock.ladder.self_s": (self_s("fock.apply_creation", "fock.apply_annihilation"), s),
        "fock.inner_product.calls": (calls("fock.inner_product"), c),
        "fock.inner_product.self_s": (self_s("fock.inner_product"), s),
        "linalg.nullspace.calls": (calls("linalg.nullspace"), c),
        "linalg.nullspace.self_s": (self_s("linalg.nullspace"), s),
        "linalg.nullspace.max_rows": (ctr("linalg.nullspace.rows_max"), c),
        "linalg.nullspace.max_cols": (ctr("linalg.nullspace.cols_max"), c),
        "linalg.nullspace.rank_ratio": (ratio(ctr("linalg.nullspace.rank"),
                                              ctr("linalg.nullspace.rows")), "ratio"),
        "linalg.solve.calls": (calls("linalg.solve"), c),
        "linalg.solve.self_s": (self_s("linalg.solve"), s),
        "linalg.rowspan.adds": (calls("linalg.rowspan"), c),
        "linalg.rowspan.accept_ratio": (ratio(ctr("linalg.rowspan.accepted"),
                                              calls("linalg.rowspan")), "ratio"),
        "linalg.rowspan.self_s": (self_s("linalg.rowspan"), s),
        "sectors.shards": (ctr("sectors.shards"), c),
        "sectors.shard_hit_ratio": (ratio(ctr("sectors.shard_hits"), ctr("sectors.shards")),
                                    "ratio"),
        "sectors.shard_monomials_max": (ctr("sectors.shard_monomials_max"), c),
        "sectors.shard_monomials_sum": (ctr("sectors.shard_monomials_sum"), c),
        "sectors.shard_s.p50": (quantile(shard_s, 0.5), s),
        "sectors.shard_s.p90": (quantile(shard_s, 0.9), s),
        "sectors.hw_kernel.self_s": (self_s("sectors.hw_kernel"), s),
        "sectors.ground_state.calls": (calls("sectors.ground_state"), c),
        "sectors.ground_state.self_s": (self_s("sectors.ground_state"), s),
        "sectors.hw_conditions.self_s": (self_s("sectors.hw_conditions"), s),
        "sectors.det_recursion.self_s": (self_s("sectors.det_recursion"), s),
        "casimir.compact_module.self_s": (self_s("casimir.compact_module"), s),
        "casimir.compact_module.vectors": (ctr("casimir.compact_module.vectors"), c),
        "casimir.hw_vectors.self_s": (self_s("casimir.hw_vectors"), s),
        "casimir.gamma.calls": (calls("casimir.gamma"), c),
        "casimir.gamma.no_vector": (ctr("casimir.gamma.no_vector"), c),
        "casimir.cg_oracle.self_s": (self_s("casimir.cg_oracle"), s),
        "young.roundtrip.self_s": (self_s("young.roundtrip"), s),
        "young.labels_tried": (labels, c),
        "young.label_hit_ratio": (ratio(ctr("young.entries"), labels), "ratio"),
        "young.weyl_dimension.calls": (calls("young.weyl_dimension"), c),
        "modes.self_s": (self_s(*(n for n in stats if n.startswith("modes."))), s),
        "serialize.dumps_s": (total("serialize.dumps"), s),
        "serialize.bytes": (ctr("serialize.bytes"), c),
        "trace.coverage": (ratio(covered, sum(ch.net_s for ch in children.values())), "ratio"),
    }
    return out


def environment() -> dict:
    stamp = {"loadavg_start": list(os.getloadavg()), "nproc": os.cpu_count(),
             "python": platform.python_version(), "source_sha256": _source_digest()}
    stamp["git_rev"] = stamp["git_dirty"] = None
    if (ROOT / ".git").exists():  # a plain source tree has no revision to report
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return stamp
        if rev.returncode == 0 and dirty.returncode == 0:
            stamp["git_rev"] = rev.stdout.strip()
            stamp["git_dirty"] = bool(dirty.stdout.strip())
    return stamp


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bilocal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bilocal" / "cli.py").is_file():
        print(f"error: no bilocal sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    stamp = environment()
    tmp = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        warm = Child(["setup", args.workload], tmp, bench.env)
        if warm.exit != 0:
            print(f"error: cannot import bilocal: {warm.stderr.decode(errors='replace')}",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        if args.trace:
            metrics, counts = run_traced(bench, args.seconds, start)
        else:
            metrics, counts = run_untraced(bench, args.seconds, start)
        counts["measured_s"] = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stamp["loadavg_end"] = list(os.getloadavg())
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": stamp, **counts,
              "known_defects": sorted(bench.defects), "failures": bench.failures[:50]}
    print(json.dumps({"detail": detail}))
    table = dict(metrics)
    if "fail_ratio" in counts:
        table["fail_ratio"] = (counts["fail_ratio"], "ratio")
    for name, (value, unit) in table.items():
        print(f"{name:36s} {value:>16.6g} {unit}", file=sys.stderr)
    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": len(bench.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
