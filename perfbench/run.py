"""Cohort benchmark for the p300speller CLI.

One run:

    python3 perfbench/run.py --workload paper-cohort --seed 1 --seconds 34 --trace 0

drives the program through ``cli.main`` (and ``session_io.write_session``
where the CLI cannot make the input) in closed-loop rounds for
``--seconds``, checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Results and spans go to ``.perfbench/`` in the checkout.

End-to-end times are given in reference seconds: wall seconds scaled by
the machine's speed over the run, which a fresh import of the numpy/scipy
stack gauges between commands (see ``machine_speed``).  The wall-clock
values are kept in the result file.

Repeat mode runs each workload several times on consecutive seeds and
prints each end-to-end metric's spread against its bound from
``BENCHMARK.json``, then one traced run per workload with the tracing
overhead:

    python3 perfbench/run.py --repeat 10 --seed 1 [--workload NAME]

See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 2  # the report's paired t-test needs two subjects
SETUP_IMPORTS = 4  # fresh-import pairs per run, spread over the measured window
IMPORT_CLI = "import p300speller.cli"
IMPORT_STACK = "import numpy, scipy.signal"  # the third-party stack under the CLI, none of the program
PROBE_REF_S = 0.87  # IMPORT_STACK's median wall time on the reference machine when it is idle
MODULES = ("cli", "session_io", "synth", "scheduler", "pipeline", "dsp", "xdawn", "blda",
           "decoder", "metrics")
KIND_METRICS = {"simulate": "simulate_xrt", "train": "train_xrt", "eval": "eval_swap_xrt"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs commands one at a time, timing each and counting failures."""

    def __init__(self, cli, tracer=None, setup=None):
        self.main = cli.main
        self.tracer = tracer
        self.setup = setup
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.errors = []
        self.xrt = defaultdict(list)  # kind -> recording seconds per wall second
        self.peak_rss_mb = []

    def cli(self, kind: str, argv: list[str], recording_s: float | None) -> bool:
        def call() -> float:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            seconds = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return seconds

        return self.produce(kind, call, recording_s)

    def produce(self, kind: str, call, recording_s: float | None) -> bool:
        """Run one command; ``call`` returns the seconds the program spent."""
        self.attempted += 1
        span = self.tracer.command(self.attempted, kind) if self.tracer else contextlib.nullcontext()
        try:
            with span:
                seconds = call()
        except Exception:  # a failed command is counted; the run goes on
            self.failed += 1
            self.errors.append(f"{kind} (command {self.attempted}): {traceback.format_exc()}")
            return False
        finally:
            if self.setup:
                self.setup.between_commands()
        if recording_s is not None:
            self.xrt[kind].append(recording_s / seconds)
        return True

    def check(self, fn, *args):
        """Run one output check; returns (passed, its result)."""
        try:
            return True, fn(*args)
        except Exception:  # malformed output fails the check, not the run
            self.require(False, f"{fn.__name__}{args[:1]}: {traceback.format_exc()}")
            return False, None

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures += 1
            self.errors.append(f"check failed: {message}")

    def peak_rss(self, argv: list[str]) -> bool:
        """Peak resident memory of ``argv`` run in a fresh interpreter."""
        code = "import sys; from p300speller.cli import main; sys.exit(main(sys.argv[1:]))"

        def call() -> float:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=_child_env(),
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            stderr = proc.stderr.read()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {stderr.decode().strip()}")
            self.peak_rss_mb.append(usage.ru_maxrss / 1024)  # Linux reports KiB
            return time.perf_counter() - t0

        return self.produce("fresh-eval", call, None)


def _fresh_import_s(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True, timeout=120)
    return time.perf_counter() - t0


def import_wall_s() -> dict:
    """Wall times of two fresh interpreters back to back: one imports the CLI,
    the other only the numpy/scipy stack under it, which is the speed probe."""
    return {"setup_s": _fresh_import_s(IMPORT_CLI), "probe_s": _fresh_import_s(IMPORT_STACK)}


def machine_speed(samples: list[dict]) -> float:
    """How fast the machine ran during the window, against the idle reference machine.

    ``PROBE_REF_S`` over the median probe import: 1 on the idle reference
    machine, below 1 while other tenants of the host slow it down.
    """
    return PROBE_REF_S / statistics.median(s["probe_s"] for s in samples)


def import_layers_ms() -> dict:
    """``-X importtime`` self times of one fresh import: all of scipy, and the package's own modules."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CLI],
                          env=_child_env(), check=True, timeout=120, capture_output=True, text=True)
    total = dict.fromkeys(("scipy", "p300speller"), 0.0)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue  # the column header
        top = name.split(".")[0]
        if top in total:
            total[top] += int(self_us) / 1000
    return {f"setup.{top}_import_ms": ms for top, ms in total.items()}


class SetupProbe:
    """``SETUP_IMPORTS`` fresh-import samples spread evenly over the measured window.

    One sample runs between two commands once its turn in the window has
    come, so the samples meet the machine's state across the whole run
    rather than only at its start; the run reports their median.
    """

    def __init__(self, measure, seconds: float):
        self.measure = measure
        self.seconds = seconds
        self.samples = []
        self.t0 = None

    def start(self) -> None:
        self.t0 = time.perf_counter()

    def stop(self) -> None:
        """Ends the window; the imports still owed run back to back in ``medians``."""
        self.t0 = None

    def between_commands(self) -> None:
        due = len(self.samples) * self.seconds / SETUP_IMPORTS
        if self.t0 is not None and len(self.samples) < SETUP_IMPORTS \
                and time.perf_counter() - self.t0 >= due:
            self.samples.append(self.measure())

    def medians(self) -> dict:
        while len(self.samples) < SETUP_IMPORTS:
            self.samples.append(self.measure())
        return {name: statistics.median(s[name] for s in self.samples) for name in self.samples[0]}


def blas_info() -> dict:
    """OpenBLAS build and thread count of the copy numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads and config:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return {"library": Path(path).name, "config": config().decode(),
                            "threads": threads()}
    return {"library": None, "config": None, "threads": None}


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np
    import scipy
    from p300speller import cli

    from tracing import Tracer
    from workloads import WORKLOADS

    modules = {name: importlib.import_module(f"p300speller.{name}") for name in MODULES}
    setup = SetupProbe(import_layers_ms if trace else import_wall_s, seconds)
    tracer = Tracer() if trace else None
    runner = Runner(cli, tracer, setup)
    work = OUT / f"work-{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](runner, work, seed)
        if tracer:
            tracer.install(modules)
        setup.start()
        t0 = time.perf_counter()
        rounds = 0
        try:
            while rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
                workload.round(rounds)
                rounds += 1
            measured_s = time.perf_counter() - t0
            setup.stop()
            workload.finish()
        finally:
            if tracer:
                tracer.uninstall()
        if not trace and workload.last_pair:
            workload.fresh_eval()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_medians = setup.medians()

    speed, wall = None, {}
    if trace:
        units = {"ms": "ms", "mb": "MB"}
        metrics = {name: (value, units.get(name.rsplit("_", 1)[-1], "count"))
                   for name, value in {**tracer.layer_metrics(), **setup_medians}.items()}
    else:
        # times in reference seconds: wall seconds scaled by the machine's speed
        # over the run, so that other tenants of the host do not move them
        speed = machine_speed(setup.samples)
        wall["setup_s"] = setup_medians["setup_s"]
        setup_ratio = statistics.median(s["setup_s"] / s["probe_s"] for s in setup.samples)
        metrics = {"setup_s": (setup_ratio * PROBE_REF_S, "s")}
        for kind, name in KIND_METRICS.items():
            wall[name] = statistics.median(runner.xrt[kind]) if runner.xrt[kind] else 0.0
            metrics[name] = (wall[name] / speed, "s/s")
        rss = runner.peak_rss_mb
        metrics["peak_rss_mb"] = (statistics.median(rss) if rss else 0.0, "MB")

    quality = {
        paradigm: {
            "subjects": len(figures),
            "auc": [f["auc"] for f in figures],
            "mean_auc": float(np.mean([f["auc"] for f in figures])) if figures else None,
            "mean_accuracy_k5": float(np.mean([f["accuracy"][4] for f in figures])) if figures else None,
        }
        for paradigm, figures in workload.results.items()
    }
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "measured_s": measured_s, "setup_samples": setup.samples,
        "machine_speed": speed, "wall": wall,
        "correct": runner.check_failures == 0, "attempted": runner.attempted,
        "failed": runner.failed, "errors": runner.errors,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "commands": {kind: {"n": len(v), "median_xrt": statistics.median(v), "xrt": v}
                     for kind, v in runner.xrt.items() if v},
        "quality": quality,
        "environment": {"machine": platform.machine(), "cpus": os.cpu_count(),
                        "python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "blas": blas_info()},
    }
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{stem}.json").write_text(json.dumps(tracer.dump()) + "\n")
    return record


def print_record(record: dict) -> None:
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print(f"# {record['workload']} seed {record['seed']}: {record['rounds']} rounds in "
          f"{record['measured_s']:.1f} s, {record['attempted']} commands attempted, "
          f"{record['failed']} failed, correct={record['correct']}, "
          f"BLAS threads {record['environment']['blas']['threads']}")
    if record["machine_speed"] is not None:
        print(f"#   machine speed {record['machine_speed']:.3f} of the idle reference; wall-clock "
              + ", ".join(f"{name} {value:.4g}" for name, value in record["wall"].items()))
    for kind, c in record["commands"].items():
        print(f"#   {kind}: {c['n']} commands, median {c['median_xrt']:.2f} s/s wall-clock")
    for paradigm, q in record["quality"].items():
        if q["mean_auc"] is not None:
            print(f"#   {paradigm}: mean AUC {q['mean_auc']:.4f}, "
                  f"mean accuracy at k=5 {q['mean_accuracy_k5']:.4f} over {q['subjects']} subjects")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def repeat(names: list[str], first_seed: int, count: int, seconds: int) -> int:
    """Runs each workload ``count`` times, then once traced; prints spreads against bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        records = []
        for trace in [0] * count + [1]:
            seed = first_seed + len(records) if not trace else first_seed
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            record = json.loads((OUT / "results" / f"{name}-seed{seed}-trace{trace}.json").read_text())
            speed = f", machine speed {record['machine_speed']:.3f}" if record["machine_speed"] else ""
            print(f"{name} seed {seed} trace {trace}: attempted {record['attempted']}, "
                  f"failed {record['failed']}, correct {record['correct']}{speed}, "
                  + ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in record["metrics"].items()))
            if trace:
                for kind, c in record["commands"].items():
                    base = statistics.median(r["commands"][kind]["median_xrt"] for r in records)
                    print(f"  tracing overhead on {kind}: {base / c['median_xrt'] - 1:+.1%} "
                          f"(traced median against the median of the untraced runs)")
            else:
                records.append(record)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bound)
            wall = [r["wall"][metric] for r in records if metric in r["wall"]]
            wall_spread = ""
            if len(wall) > 1:
                w1, wmed, w3 = statistics.quantiles(wall, n=4)
                wall_spread = f" (wall-clock: median {wmed:.4g}, spread {(w3 - w1) / wmed:.1%})"
            print(f"  {name} {metric}: median {med:.4g}, quartiles {q1:.4g}..{q3:.4g}, "
                  f"spread {spread:.1%} against bound {bound:.0%}{wall_spread}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (repeat mode: default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload")
    args = parser.parse_args()

    if not (SRC / "p300speller" / "cli.py").is_file():
        print(f"error: no p300speller sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.repeat:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return repeat(names, args.seed, args.repeat, seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    print_record(run(args.workload, args.seed, seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
