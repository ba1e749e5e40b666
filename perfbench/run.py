"""The rotref benchmark: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; the package is taken from ``src/`` beside this
directory, as it is in the source tree, with nothing installed.

Workloads (see BENCHMARK.json for why each was chosen):

* ``threshold``  a fresh interpreter runs ``rotref threshold --json``;
* ``sweep``      a fresh interpreter sends 59 small subcommands through
  ``rotref.cli.main`` in an order shuffled by the seed;
* ``oracle-h4``  a fresh interpreter runs
  ``rotref arrangement compute H4 --method isotropy --json``.  It is left out
  of BENCHMARK.json: one repeat takes 30-50 s on a 2-vCPU 2.1 GHz Xeon, too
  long for the benchmark's time budget, so it is run by hand.

Every command runs with ``--jobs 1``.  A run repeats the workload, each time
in a new interpreter, until the next repeat would end past ``--seconds``;
it always makes at least one.  Every output is checked against values
derived from the theory (checks.py), and its canonical JSON bytes against
those of earlier runs in the same checkout (a digest file under ``.run/``).
The first ``threshold`` run in a checkout also makes one untimed repeat with
``--jobs 2``, which must give the same bytes.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced and one
traced repeat of the first input and reports the per-layer metrics of
tracing.py, plus the traced minus the untraced wall time.  The exit code is
0 when every check passed, 1 when one failed and 2 when the package is
missing.
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

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".run"
DIGESTS = WORK / "digests.json"
CHILD_TIMEOUT_S = 160
SETUP_SPAWNS = 10
WORKLOADS = ("threshold", "oracle-h4", "sweep")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

SWEEP_GROUPS = ("A3xA1", "B3xA1", "H3xA1", "I2(5)xI2(8)", "I2(7)xI2(8)")
SWEEP_PLANE_MS = (3, 5, 6, 8)
SWEEP_PLANE_SAMPLES = 100


def workload_commands(workload: str, seed: int, repeat: int) -> list:
    """The commands of one repeat, made from the seed alone."""
    if workload == "threshold":
        return [["threshold"]]
    if workload == "oracle-h4":
        return [["arrangement", "compute", "H4", "--method", "isotropy"]]
    plane_rng = random.Random(f"lemma-plane:{seed}")
    cmds = [["lemma-ag", "--m", str(m)] for m in range(2, 13)]
    cmds += [["rotation", "--m", str(m)] for m in range(2, 13)]
    cmds += [
        ["dichotomy", "--p", str(p), "--q", str(q)]
        for p in range(2, 9)
        for q in range(p, 9)
    ]
    cmds += [
        ["lemma-plane", "--m", str(m), "--samples", str(SWEEP_PLANE_SAMPLES),
         "--seed", str(plane_rng.randrange(1 << 31))]
        for m in SWEEP_PLANE_MS
    ]
    cmds += [["arrangement", "compute", g, "--method", "isotropy"] for g in SWEEP_GROUPS]
    random.Random(f"sweep:{seed}:{repeat}").shuffle(cmds)
    return cmds


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a record of machine speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    try:
        import mpmath.libmp

        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = "unavailable"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": backend,
        "git_sha": git_sha(),
    }


class Runner:
    """Spawns the child interpreters of one benchmark run and keeps what it
    learns: setup samples, checked outputs and the digests they are
    compared with."""

    def __init__(self, workload: str, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        outer = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + outer if outer else ""))
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.compared = 0
        self.store = self._load_digests()
        self.earlier = self.store["digests"].setdefault(workload, {})
        self._n = 0

    @staticmethod
    def _load_digests() -> dict:
        """``digests``: workload -> command -> SHA-256 of its JSON report;
        ``cross_checked``: workloads already compared across ``--jobs``."""
        try:
            return json.loads(DIGESTS.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {"digests": {}, "cross_checked": []}

    def cross_check_jobs(self, commands):
        """Once per checkout: an untimed ``--jobs 2`` repeat, compared byte
        for byte with the timed ``--jobs 1`` ones."""
        if self.workload in self.store["cross_checked"]:
            return
        failed = self.failed
        self.execute(commands, jobs=2)
        if self.failed == failed:
            self.store["cross_checked"].append(self.workload)
            say("first run in this checkout: an untimed --jobs 2 repeat gave the same bytes")

    def save_digests(self):
        part = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
        part.write_text(json.dumps(self.store, sort_keys=True), encoding="utf-8")
        os.replace(part, DIGESTS)

    def _spawn(self, extra_args, capture):
        """Run child.py to the end; returns (stdout, exit code, rusage,
        spawn time)."""
        argv = [sys.executable, str(HERE / "child.py"), *extra_args]
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read() if capture else b""
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            if capture:
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return out, proc.returncode, rusage, t_spawn

    def setup_sample(self, keep=True):
        out, code, _, t_spawn = self._spawn([], capture=True)
        if code != 0:
            raise RuntimeError(f"rotref.cli failed to import (exit code {code})")
        if keep:
            self.setup_s.append(float(out) - t_spawn)

    def execute(self, commands, trace=False, jobs=1) -> dict:
        """One repeat in a fresh interpreter; every output is checked."""
        self._n += 1
        paths = [self.tmp / f"r{self._n}-{i}.json" for i in range(len(commands))]
        result_path = self.tmp / f"r{self._n}.result.json"
        spec = {
            "commands": [
                args + ["--json", str(p), "--jobs", str(jobs)]
                for args, p in zip(commands, paths)
            ],
            "trace": trace,
            "result": str(result_path),
        }
        _, code, rusage, t_spawn = self._spawn([json.dumps(spec)], capture=False)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = None
        if code != 0 or result is None:
            self.attempted += len(commands)
            self.failed += len(commands)
            self.problems.append(f"child exited with {code} on {commands[:1]}...")
            return {"ok": False}
        for args, path, cmd in zip(commands, paths, result["commands"]):
            text = path.read_text(encoding="utf-8") if path.exists() else None
            problems = checks.check(args, cmd["exit"], text)
            if not problems:
                problems = self._compare(args, text)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(args)}: {'; '.join(problems)}")
        self.setup_s.append(result["ready"] - t_spawn)
        return {
            "ok": True,
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": rusage.ru_maxrss / 1024,
            "verdicts": len(commands),
            "trace": result["trace"],
        }

    def _compare(self, args, text) -> list:
        key = " ".join(args)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        known = self.earlier.setdefault(key, digest)
        if known is not digest:
            self.compared += 1
        if known != digest:
            return ["canonical JSON differs from an earlier run in this checkout"]
        return []


def say(line: str):
    print(line, flush=True)


def end_to_end(runner: Runner, args):
    """Timed repeats until the next would end past ``--seconds``."""
    for _ in range(SETUP_SPAWNS):
        runner.setup_sample()
    runs, ref_loops, spent = [], [reference_loop()], 0.0
    while not runs or spent + spent / len(runs) <= args.seconds:
        t = time.perf_counter()
        run = runner.execute(workload_commands(args.workload, args.seed, len(runs)))
        spent += time.perf_counter() - t
        ref_loops.append(reference_loop())
        if not run["ok"]:
            break
        runs.append(run)
        say(f"repeat {len(runs) - 1}: wall {run['wall_s']:.3f} s, cpu "
            f"{run['cpu_s']:.3f} s, peak rss {run['peak_rss_mb']:.1f} MB, "
            f"{run['verdicts']} verdicts")
    if not runs:
        return {}, ref_loops
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "verdicts_per_s": statistics.median(r["verdicts"] / r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(runner.setup_s),
    }
    samples = dict.fromkeys(values, len(runs))
    samples["setup_s"] = len(runner.setup_s)
    metrics = {
        name: {"value": values[name], "unit": unit, "samples": samples[name]}
        for name, unit in END_TO_END
    }
    return metrics, ref_loops


def per_layer(runner: Runner, args):
    """One untraced and one traced repeat of the same input."""
    commands = workload_commands(args.workload, args.seed, 0)
    ref_loops = [reference_loop()]
    plain = runner.execute(commands)
    ref_loops.append(reference_loop())
    traced = runner.execute(commands, trace=True) if plain["ok"] else plain
    ref_loops.append(reference_loop())
    if not traced["ok"]:
        return {}, ref_loops
    say(f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s")
    metrics = traced["trace"]
    metrics["trace.overhead_s"]["value"] = traced["wall_s"] - plain["wall_s"]
    for m in metrics.values():
        m["samples"] = 1
    return metrics, ref_loops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rotref" / "cli.py").is_file():
        print(f"error: no rotref package under {SRC}", file=sys.stderr)
        return 2

    meta = metadata(args)
    say(f"rotref benchmark {json.dumps(meta, sort_keys=True)}")
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(args.workload, tmp)
        runner.setup_sample(keep=False)  # fills __pycache__ before timing
        metrics, loops = (per_layer if args.trace else end_to_end)(runner, args)
        if metrics and not args.trace and args.workload == "threshold":
            runner.cross_check_jobs(workload_commands(args.workload, args.seed, 0))
        if not runner.failed:
            runner.save_digests()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    say(f"machine reference loop: median {statistics.median(loops):.4f} s, "
        f"min {min(loops):.4f}, max {max(loops):.4f}, n={len(loops)} "
        "(a diagnostic, not a metric)")
    say(f"checks: {runner.attempted} outputs, {runner.failed} failed "
        f"(failed_frac {runner.failed / max(runner.attempted, 1):.4f}); "
        f"{runner.compared} compared byte for byte with earlier runs")
    for name, m in metrics.items():
        say(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
