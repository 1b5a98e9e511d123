"""oscym benchmark: closed-loop CLI workloads checked against closed forms.

usage: python3 bench/run.py --workload {converge,verify,tabulate,all} --seed N
                            --seconds S --trace {0,1}

Run from the root of a source checkout.  One client runs one CLI child
process at a time (a closed loop, sized for two cores).  Each child is
bench/shim.py: a fresh interpreter that imports `oscym.cli` from ./src and
calls `oscym.cli.main(argv)`.  The workload seed generates the spec files
and the --seed values and call order; oscym receives only those files and
arguments.

Times are the children's CPU seconds (user + system, from wait4), scaled by
the pace of bench/yardstick.py, a fixed non-oscym child run between the
calls: on a shared host the same call costs 15-25% more or less CPU time
from one minute to the next, and the yardstick moves with it.  Wall times
are in the report, as measured.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
one traced cycle.  Every output is checked against bench/reference.py.  The
last line of standard output is the JSON result; a readable report, the
failed invocations and the provenance come before it and are written to
bench/out/.  See bench/README.md for why each workload exists.
"""
from __future__ import annotations

import argparse
import compileall
import importlib.metadata
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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import check
import reference as ref
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SHIM = BENCH / "shim.py"
YARDSTICK = BENCH / "yardstick.py"
OUT = BENCH / "out"

SETUP_PROBES = 3       # import-only children per timed run, for setup_s
IMPORTTIME_PROBES = 3  # `python -X importtime` children per traced run
CALL_TIMEOUT = 150.0   # seconds; a child still running then is killed
YARD_EVERY_S = 2.0     # CPU seconds of calls between two yardstick runs
YARD_REF_S = 1.0       # yardstick CPU seconds at the reference pace


# -- workloads ---------------------------------------------------------------
# A workload is an endless sequence of cycles.  A cycle has a fixed list of
# commands; the seed and the cycle number draw only their inputs.  Runs end
# on a whole cycle, so every run holds the same mix of commands and its
# medians do not depend on where the clock stopped.

def _write_spec(workdir: Path, name: str, obj: dict) -> str:
    (workdir / name).write_text(json.dumps(obj))
    return name


CONVERGE_TEETH = (8, 12, 16, 20)


def converge_cycle(rng: random.Random, workdir: Path, cycle: int) -> list[check.Job]:
    """Four README-window converge calls on roubicek, teeth 8, 12, 16 and
    20 in an order the seed shuffles.

    A call's cost grows faster than linearly in teeth (3 s of work at 8,
    10.6 s at 24), so teeth drawn by the seed would make a cycle's cost
    depend on the seed by up to 15%; the same four teeth in every cycle
    keep it fixed.  A run holds exactly one cycle unless the machine is
    twice as fast, so the number of calls does not depend on how fast the
    first ones ran."""
    teeth = list(CONVERGE_TEETH)
    rng.shuffle(teeth)
    jobs = []
    for i, t in enumerate(teeth):
        name = _write_spec(workdir, f"roubicek-{cycle}-{i}-{t}.json",
                           {"family": "roubicek", "params": {"teeth": t},
                            "indices": [1, 64]})
        jobs.append(check.Job(["converge", "--input", name, "--window", "8,64",
                               "--depth", "6", "--tol", "1e-2"]))
    return jobs


def _function_specs(rng: random.Random, workdir: Path, cycle: int) -> dict:
    refs = {
        "saw": ref.sawtooth_spec(rng),
        "sine": ref.sine_spec(rng),
        "power_lo": ref.power_spec(rng, above_one=False),
        "power_hi": ref.power_spec(rng, above_one=True),
        "atoms": ref.atoms_spec(rng),
        "expr": ref.expr_spec(rng),
    }
    return {key: (_write_spec(workdir, f"{key}-{cycle}.json", f.spec), f)
            for key, f in refs.items()}


def verify_cycle(rng: random.Random, workdir: Path, cycle: int) -> list[check.Job]:
    """`verify --samples 1000000 --bins 16` on each of the five piece kinds,
    power once with an exponent below 1 and once above."""
    specs = _function_specs(rng, workdir, cycle)
    return [check.Job(["verify", "--input", path, "--samples", "1000000", "--bins", "16",
                       "--seed", str(rng.randrange(2 ** 31))], ref=f)
            for path, f in specs.values()]


def tabulate_cycle(rng: random.Random, workdir: Path, cycle: int) -> list[check.Job]:
    """Short interactive commands at the README grids, CSV and JSON, some
    written with --out, then the spec-free README commands.

    Seven calls are cheap (validate, bolza, homog, weak-cont: 5-20 ms of
    work) and fifteen tabulate a density or slope pointwise, so the median
    falls inside the pointwise calls.  On the boundary between the two
    groups, where it sat with fewer pointwise calls, a small shift in either
    group moved it by half."""
    specs = _function_specs(rng, workdir, cycle)

    def job(command, key, *extra, out=None):
        path, f = specs[key]
        argv = [command, "--input", path, *extra]
        if out is not None:
            out = f"{command}-{key}-{cycle}.{out}"
            argv += ["--out", out]
        return check.Job(argv, ref=f, out=out)

    json_ = ("--format", "json")
    g101 = ("--grid", "101")
    jobs = [
        job("validate", "saw"),
        job("density", "saw", *g101),
        job("density", "saw"),
        job("slope", "saw", *json_, out="json"),
        job("measure", "saw", *g101, *json_),
        job("validate", "sine", *json_),
        job("density", "sine", *g101),
        job("density", "sine"),
        job("slope", "sine"),
        job("measure", "sine", *json_, out="json"),
        job("density", "power_lo", *json_),
        job("slope", "power_lo"),
        job("measure", "power_lo", out="csv"),
        job("slope", "power_hi", *g101),
        job("measure", "atoms", *g101, out="csv"),
        job("measure", "atoms", *json_),
        job("density", "atoms", *json_),
        job("slope", "atoms", *json_, out="json"),
        job("validate", "expr"),
        job("density", "expr", *g101, *json_),
        job("slope", "expr", *g101),
        job("measure", "expr", *g101),
    ]
    n_list = "1,2,4,8,16"
    jobs += [
        check.Job(["bolza", "--n-list", n_list], params={"n_list": n_list}),
        check.Job(["bolza", "--gradient-ym", "--n", "4", *json_]),
        check.Job(["homog", "--family", "triangular"]),
        check.Job(["weak-cont", "--family", "triangular", "--x0", "0.5"],
                  params={"x0": 0.5, "n_stop": 256, "depth": 6, "tol": 1e-2}),
    ]
    return jobs


WORKLOADS = {"converge": converge_cycle, "verify": verify_cycle, "tabulate": tabulate_cycle}


# -- running children --------------------------------------------------------

@dataclass
class Call:
    job: check.Job | None
    rc: int
    start: float   # perf_counter() at spawn and at exit
    end: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    record: dict | None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.record is not None and not self.problems


class Runner:
    def __init__(self, workdir: Path, paced: bool):
        self.workdir = workdir
        self.paced = paced  # run the yardstick between calls
        self.env = {k: v for k, v in os.environ.items() if k != "YM_SEED"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.count = 0
        self.yard: list[tuple[float, float]] = []   # (perf_counter() mid-run, CPU s)
        self.since_yard = 0.0

    def yardstick(self, force: bool = False) -> None:
        """Run bench/yardstick.py when YARD_EVERY_S of call CPU time has
        passed since the last run (or when forced), so that a call is at
        most a few seconds from a yardstick run on either side."""
        due = force or not self.yard or self.since_yard >= YARD_EVERY_S
        if not (self.paced and due):
            return
        self.count += 1
        rc, start, end, cpu, _, _, stderr = self._spawn(
            [sys.executable, str(YARDSTICK)], f"yardstick-{self.count}")
        if rc != 0:
            raise RuntimeError(f"yardstick exited {rc}: {stderr[-300:]}")
        self.yard.append(((start + end) / 2, cpu))
        self.since_yard = 0.0

    def pace(self, c: "Call") -> float:
        """Reference seconds per CPU second while `c` ran: YARD_REF_S over the
        mean CPU time of the yardstick runs just before and just after it.
        The host switches between fast and slow spells that last seconds, so
        runs further away, even in a median, tracked the calls worse."""
        before = max((t, cpu) for t, cpu in self.yard if t <= c.start)[1]
        after = min((t, cpu) for t, cpu in self.yard if t >= c.end)[1]
        return YARD_REF_S / ((before + after) / 2)

    def _spawn(self, argv: list[str], name: str):
        """Run one child to completion; (rc, start, end, CPU seconds, max-RSS
        MB, stdout, stderr).  CPU seconds are the child's user + system time."""
        out, err = self.workdir / f"{name}.out", self.workdir / f"{name}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            p = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=fo, stderr=fe)
            timer = threading.Timer(CALL_TIMEOUT, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
        return (p.returncode, start, end, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                out.read_text(errors="replace"), err.read_text(errors="replace"))

    def call(self, job: check.Job | None, trace: bool) -> Call:
        """One shim child: an oscym CLI call, or an import-only probe."""
        self.count += 1
        rec_path = self.workdir / f"rec-{self.count}.json"
        if job is not None and job.out is not None:
            (self.workdir / job.out).unlink(missing_ok=True)
        argv = [sys.executable, str(SHIM), str(rec_path), str(self.count),
                "1" if trace else "0", *(job.argv if job else [])]
        self.yardstick()
        rc, start, end, cpu, rss, stdout, stderr = self._spawn(argv, f"call-{self.count}")
        self.since_yard += cpu
        record = json.loads(rec_path.read_text()) if rec_path.exists() else None
        c = Call(job, rc, start, end, end - start, cpu, rss, record)
        if record is None:
            c.problems.append((None, f"no record from the child (exit {rc}): "
                                     f"{stderr.strip()[-300:]}"))
        elif job is not None:
            out_text = None
            if job.out is not None and (self.workdir / job.out).exists():
                out_text = (self.workdir / job.out).read_text()
            c.problems = check.check(job, rc, stdout, stderr, out_text)
        return c

    def importtime(self) -> dict[str, float]:
        """Cumulative import seconds of the outermost numpy, scipy and oscym
        modules in one `python -X importtime -c "import oscym.cli"`."""
        self.count += 1
        rc, _, _, _, _, _, stderr = self._spawn(
            [sys.executable, "-X", "importtime", "-c", "import oscym.cli"],
            f"importtime-{self.count}")
        if rc != 0:
            raise RuntimeError(f"importtime probe exited {rc}: {stderr[-300:]}")
        entries = []
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip(" "))) // 2
            entries.append((depth, name.strip(), int(cumulative) / 1e6))
        totals = dict.fromkeys(("oscym", "scipy", "numpy"), 0.0)
        stack: list[tuple[int, str]] = []
        for depth, name, cum in reversed(entries):  # parents before children
            while stack and stack[-1][0] >= depth:
                stack.pop()
            top = name.split(".")[0]
            if top in totals and all(a.split(".")[0] != top for _, a in stack):
                totals[top] += cum
            stack.append((depth, name))
        return totals


# -- metrics -----------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """p90 with 100 or more samples; otherwise the highest percentile above
    the median that keeps ten samples beyond it; None for the median alone."""
    n = len(values)
    if n >= 100:
        q = 90
    else:
        q = (100 * (n - 10)) // n if n > 10 else 0
        if q <= 50:
            return None
    ordered = sorted(values)
    return q, ordered[max(0, -(-q * n // 100) - 1)]


def timing_lines(name: str, values: list[float]) -> list[str]:
    lines = [f"{name}.p50 = {statistics.median(values):.6f} s  (n={len(values)})"]
    tail = tail_percentile(values)
    if tail is not None:
        lines.append(f"{name}.p{tail[0]} = {tail[1]:.6f} s  (n={len(values)})")
    return lines


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer sums over the traced calls: calls, raised, total and self
    time of each wrapped function, and the ratios that show wasted work."""
    calls, raised, extra = Counter(), Counter(), Counter()
    total, self_s = defaultdict(float), defaultdict(float)
    for rec in records:
        calls.update(rec.get("calls", {}))
        raised.update(rec.get("raised", {}))
        extra.update(rec.get("extra", {}))
        spans = rec.get("spans", [])
        child = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, name, start, end, _ in spans:
            total[name] += end - start
            self_s[name] += end - start - child[sid]
    m: dict[str, tuple[float, str]] = {}
    for name in tracing.TIMED:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
        m[f"{name}.total_s"] = (total[name], "s")
        m[f"{name}.raised"] = (raised[name], "count")
    for name in tracing.COUNTED:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.raised"] = (raised[name], "count")

    def ratio(a, b):
        return a / b if b else 0.0

    m["measures.young_density.calls_per_integral"] = (
        ratio(calls["measures.young_density"], calls["quadrature.integrate"]), "1")
    m["measures.slope_sum.hit_ratio"] = (
        ratio(calls["domain.inverse_slope"], extra["slope_sum.pieces_scanned"]), "1")
    m["domain.inverse_slope.singular_ratio"] = (
        ratio(raised["domain.inverse_slope"], calls["domain.inverse_slope"]), "1")
    m["sampling.samples_per_s"] = (
        ratio(extra["sampling.samples"], total["sampling.pushforward_empirical"]), "1/s")
    m["convergence.leaf_masses_per_s"] = (
        ratio(extra["convergence.leaf_masses"], total["convergence.dieudonne_check"]), "1/s")
    return m


def provenance(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        sha = p.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_sha": sha, "python": platform.python_version(), **versions,
            "nproc": args.nproc, "pinned_cpu": args.cpu, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


# -- one run -----------------------------------------------------------------

def run_cycles(runner, make_cycle, rng_for, trace, seconds=None):
    """Whole cycles in a closed loop: one cycle when `seconds` is None, else
    until the next cycle would end more than half a cycle after `seconds`.
    Returns (calls, loop wall seconds)."""
    calls = []
    start = time.perf_counter()
    n = 0
    while True:
        for job in make_cycle(rng_for(n), runner.workdir, n):
            calls.append(runner.call(job, trace))
        n += 1
        elapsed = time.perf_counter() - start
        if seconds is None or elapsed + 0.5 * elapsed / n > seconds:
            return calls, elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "oscym" / "cli.py").is_file():
        print(f"no oscym sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    # Every child, the yardstick too, runs on the one core the benchmark
    # pins itself to: on a shared host the two cores slow down at different
    # times, and a yardstick run on the other core says nothing of this one.
    args.nproc = len(os.sched_getaffinity(0))
    args.cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {args.cpu})

    OUT.mkdir(exist_ok=True)
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        args.workload = workload
        workdir = OUT / f"work-{workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir()
        try:
            rc = max(rc, measure(args, Runner(workdir, paced=not args.trace)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return rc


def measure(args, runner: Runner) -> int:
    make_cycle = WORKLOADS[args.workload]

    def rng_for(cycle):
        return random.Random(f"{args.workload}:{args.seed}:{cycle}")

    report = [f"# oscym benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    probes = []
    if args.trace:
        imports = [runner.importtime() for _ in range(IMPORTTIME_PROBES)]
        plain, _ = run_cycles(runner, make_cycle, rng_for, False)
        traced, _ = run_cycles(runner, make_cycle, rng_for, True)
        calls = plain + traced
    else:
        probes = [runner.call(None, False) for _ in range(SETUP_PROBES)]
        if not all(p.ok and p.rc == 0 for p in probes):
            print(f"set-up probe failed: {[p.problems for p in probes]}", file=sys.stderr)
            return 1
        calls, wall = run_cycles(runner, make_cycle, rng_for, False, args.seconds)

    ok = [c for c in calls if c.ok]
    failed = [c for c in calls if not c.ok]
    if not ok:
        print("no invocation succeeded; no metric can be computed", file=sys.stderr)
        for c in failed:
            print(f"  oscym {' '.join(c.job.argv)}: {c.problems}", file=sys.stderr)
        return 1
    unexpected = [c for c in failed if any(tag is None for tag, _ in c.problems)]

    if args.trace:
        metrics = layer_metrics([c.record for c in traced])
        for key in ("oscym", "scipy", "numpy"):
            metrics[f"import.{key}_s"] = (statistics.median(i[key] for i in imports), "s")
        plain_ok = [c.record["work_s"] for c in plain if c.ok]
        traced_ok = [c.record["work_s"] for c in traced if c.ok]
        overhead = (statistics.median(traced_ok) - statistics.median(plain_ok)
                    if plain_ok and traced_ok else 0.0)
        metrics["trace.overhead_s"] = (overhead, "s")
        report.append(f"traced one cycle of {len(traced)} calls after an untraced one")
        report += [f"{k} = {v:.9g} {u}" for k, (v, u) in metrics.items()]
    else:
        runner.yardstick(force=True)  # one more after the last call
        pace = {id(c): runner.pace(c) for c in probes + calls}
        cli_cpu = [pace[id(c)] * c.cpu_s for c in ok]
        work_cpu = [pace[id(c)] * c.record["work_cpu_s"] for c in ok]
        # Means over every attempted call of whole cycles: a cycle mixes
        # commands of different cost, so its median sits on the edge between
        # two of them and jumps when one cycle more runs or a known defect is
        # fixed; the mean moves by what the calls really cost.
        every = [c for c in calls if c.record]
        cli_mean = statistics.fmean(pace[id(c)] * c.cpu_s for c in every)
        work_mean = statistics.fmean(pace[id(c)] * c.record["work_cpu_s"] for c in every)
        setup = [pace[id(c)] * c.record["import_cpu_s"] for c in probes + calls if c.record]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "cli_cpu_s.mean": (cli_mean, "s"),
            "peak_rss_mb": (max(c.rss_mb for c in probes + calls), "MB"),
        }
        report.append(f"pace = {statistics.median(pace.values()):.6f} reference s per "
                      f"CPU s  (median over the calls, from {len(runner.yard)} yardstick "
                      f"runs; the CPU metrics below are CPU seconds times the pace "
                      f"around each call, the wall times are as measured)")
        report.append(f"setup_s = {metrics['setup_s'][0]:.6f} s  (n={len(setup)}, median "
                      f"CPU time of `import oscym.cli`)")
        report.append(f"cli_cpu_s.mean = {cli_mean:.6f} s  (n={len(every)}, every attempted call)")
        report.append(f"work_cpu_s.mean = {work_mean:.6f} s  (n={len(every)}, every attempted call)")
        report += timing_lines("cli_cpu_s", cli_cpu) + timing_lines("work_cpu_s", work_cpu)
        report += (timing_lines("cli_s", [c.wall_s for c in ok])
                   + timing_lines("work_s", [c.record["work_s"] for c in ok]))
        report.append(f"ok_per_s = {len(ok) / wall:.6f} 1/s  "
                      f"({len(ok)} ok in {wall:.3f} s)")
        report.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.3f} MB  "
                      f"(n={len(probes) + len(calls)})")
    report.append(f"fail_ratio = {len(failed) / len(calls):.6f} 1  "
                  f"({len(failed)} failed / {len(calls)} attempted, "
                  f"{len(unexpected)} not a known defect)")
    for c in failed:
        tags = sorted({tag or "UNEXPECTED" for tag, _ in c.problems})
        report.append(f"FAILED [{','.join(tags)}] oscym {' '.join(c.job.argv)}")
        report += [f"    {tag or 'UNEXPECTED'}: {msg}" for tag, msg in c.problems]
    seen = sorted({tag for c in failed for tag, _ in c.problems if tag})
    report += [f"known defect {tag}: {check.KNOWN_DEFECTS[tag]}" for tag in seen]
    prov = provenance(args)
    report.append("# provenance: " + json.dumps(prov))

    result = {
        "correct": not unexpected,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    per_call = [{"argv": c.job.argv if c.job else None, "rc": c.rc, "wall_s": c.wall_s,
                 "start": c.start, "end": c.end,
                 "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
                 "import_s": (c.record or {}).get("import_s"),
                 "import_cpu_s": (c.record or {}).get("import_cpu_s"),
                 "work_cpu_s": (c.record or {}).get("work_cpu_s"),
                 "work_s": (c.record or {}).get("work_s"), "problems": c.problems}
                for c in probes + calls]
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "report": report, "calls": per_call,
         "yardstick": runner.yard},
        indent=1))
    if args.trace:
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for c in traced:
                inv = c.record["invocation"]
                for sid, name, start, end, parent in c.record.get("spans", []):
                    fh.write(json.dumps({"invocation": inv, "id": sid, "name": name,
                                         "start": start, "end": end, "parent": parent}) + "\n")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
