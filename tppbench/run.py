"""Benchmark entry point for the `tpp` package.

    python3 tppbench/run.py --workload mae-tpp --seed 1 --seconds 38 --trace 0
    python3 tppbench/run.py --smoke

Run from the root of a checkout; the package is imported from `src/`.
BLAS is pinned to one thread before numpy loads.

With `--trace 0` the run measures the end-to-end metrics with no tracing.
It repeats the pass while another fits in `--seconds`, and times a fresh
set-up process (import, data generation and model construction) before
each pass. Each part of a pass is timed on its own: the training stage or
each cli verb, and the checkpoint snapshot, save and load. Times are in
reference seconds: the wall time scaled by speed probes run just before
and after the timed call (see `clock.py`), which cancels the changes in
speed of the shared machine. A metric is the median over the run:
  setup_s              median set-up;
  train_samples_per_s  samples of one pass / time of its training parts;
  pipeline_s           time of all parts of a pass;
  ckpt_*_s             a call of each checkpoint part (median of all calls);
  peak_rss_mb          peak resident set size of the process.
The raw wall times are recorded on the line before the result.

With `--trace 1` the run alternates an untraced pass with a traced one
(set-up included) and reports the per-layer metrics per traced pass, plus
the tracing overhead: the median traced training time over the median
untraced one.

Every pass is checked: finite losses, exit codes, freeze audits and
checkpoint round trips; byte-identical outputs across same-seed passes;
and, for seeds in `references.json`, every step loss (mae-tpp, dino-tpp) or
the test Dice/HD95 (cli-seg) against the values recorded for this code,
within `REL_TOL`. Every run first makes one pass of the workload's tiny
variant on `CANARY_SEED`, checked against its reference, so a run on any
seed checks the outputs, and warms up the code paths before the timed passes.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The line before it records
the environment and the raw per-pass times.

`--smoke` runs tiny versions of all three workloads untraced and traced,
and checks that traced and untraced outputs are byte-identical, that every
traced entry point recorded a span and that every wrapper was removed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# before numpy loads (also in set-up processes, which inherit it): one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

SETUP_PROBES_FIRST = 4
CANARY_SEED = 0
TINY_KEY = "%s:tiny"  # references.json key of a workload's tiny variant
# ROADMAP float-order rule: an optimisation that reorders float operations
# must agree with the old code to float64 rounding
REL_TOL = 1e-12

END_TO_END = {
    "setup_s": "s", "train_samples_per_s": "1/s", "peak_rss_mb": "MB",
    "pipeline_s": "s", "ckpt_snapshot_s": "s", "ckpt_save_s": "s", "ckpt_load_s": "s",
}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) or a == b


def compare_reference(outputs: dict, reference: dict) -> list[str]:
    problems = []
    for key, expected in reference.items():
        got = outputs.get(key)
        if isinstance(expected, list):
            if got is None or len(got) != len(expected):
                problems.append(f"{key}: {len(got or [])} values, reference has {len(expected)}")
                continue
            bad = [i for i, (g, e) in enumerate(zip(got, expected)) if not _close(g, e)]
            if bad:
                i = bad[0]
                problems.append(f"{key}[{i}] = {got[i]!r}, reference {expected[i]!r} "
                                f"({len(bad)} of {len(expected)} differ)")
        elif not _close(got, expected):
            problems.append(f"{key} = {got!r}, reference {expected!r}")
    return problems


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


class Run:
    """Passes of one workload, with their checks."""

    def __init__(self, workload, workdir: str, references: dict):
        self.workload = workload
        self.workdir = workdir
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []
        self.units = []

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.workload.setup(seed, self.workdir)

    def unit(self):
        try:
            result = self.workload.unit(self.workdir)
        except Exception:
            self.attempted += 1
            self.failures.append(f"{self.workload.name} pass raised:\n{traceback.format_exc()}")
            return None
        self.attempted += result.attempted
        self.failures += result.failures
        reference = self.references.get(self.workload.name, {}).get(str(self.seed))
        if reference is not None:
            self.failures += [f"{self.workload.name} seed {self.seed}: {p}"
                              for p in compare_reference(result.outputs, reference)]
        return result

    def units_for(self, seconds: float, one_pass) -> list:
        """Call `one_pass` while another call fits in `seconds` (at least once).

        `one_pass` returns the results of the passes it made (None for one
        that raised). All of them must give the same outputs.
        """
        units = []
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            results = one_pass()
            units += [r for r in results if r is not None]
            if None in results or 2 * time.perf_counter() - t0 > end:
                break
        if not units:
            raise SystemExit("no pass completed:\n" + "\n".join(self.failures))
        self.units += units
        fingerprints = {u.fingerprint for u in units}
        if len(fingerprints) > 1:
            self.failures.append(f"{self.workload.name}: {len(fingerprints)} different "
                                 f"outputs from {len(units)} same-seed passes")
        return units

    def canary(self):
        """A tiny pass on CANARY_SEED, checked against its reference whatever the seed."""
        tiny = type(self.workload)(tiny=True)
        tiny.setup(CANARY_SEED, self.workdir)
        result = tiny.unit(self.workdir)
        self.attempted += result.attempted
        self.failures += result.failures
        reference = self.references.get(TINY_KEY % self.workload.name, {}).get(str(CANARY_SEED))
        if reference is None:
            self.failures.append(f"{self.workload.name}: no reference for the tiny canary pass")
        else:
            self.failures += [f"{self.workload.name} tiny canary: {p}"
                              for p in compare_reference(result.outputs, reference)]
        return result


def median_parts(units, parts) -> float:
    """Median over `units` of the time of `parts` of each pass.

    A part called more than once in a pass counts with its median call.
    """
    return statistics.median(sum(statistics.median(u.parts[part]) for part in parts)
                             for u in units)


def median_call(units, part: str) -> float:
    """Median of every call of `part` over `units`."""
    return statistics.median(t for u in units for t in u.parts[part])


def train_time(workload, units) -> float:
    return median_parts(units, workload.TRAIN_PARTS)


def setup_probe(name: str, seed: int) -> float:
    """Import, data generation and model construction in this fresh process."""
    t0 = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name]()
    workdir = tempfile.mkdtemp(dir=work_root())
    try:
        workload.setup(seed, workdir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir)


def setup_time(name: str, seed: int) -> tuple[float, float]:
    """Time `setup_probe` in a fresh process, as a user's first command pays it.

    Returns the time in reference seconds, scaled by speed probes run in
    this process just before and after, and in wall seconds.
    """
    from clock import reference_time, speed_probe  # numpy: not in set-up probes

    before = speed_probe()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    wall = float(proc.stdout.strip().splitlines()[-1])
    return reference_time(wall, before, speed_probe()), wall


def work_root() -> str:
    path = os.path.join(ROOT, ".bench_build", "tppbench")
    os.makedirs(path, exist_ok=True)
    return path


def environment(seed: int) -> dict:
    import numpy
    import scipy
    env = {
        "nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "seed": seed, "commit": "unknown",
        "blas_threads_pinned": {v: os.environ[v] for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    if libs:
        import ctypes
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                env["blas_threads"] = getter()
                break
    try:  # a checkout without .git records "unknown"
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                ref = fh.read().strip()
        env["commit"] = ref
    except OSError:
        pass
    return env


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from clock import step_probes
    from tracer import Tracer, per_layer_metric_units

    references = load_references()
    setups, raw = [], {"setup_wall_s": []}

    def probe():
        ref, wall = setup_time(name, seed)
        setups.append(ref)
        raw["setup_wall_s"].append(wall)

    workdir = tempfile.mkdtemp(dir=work_root())
    try:
        run = Run(workloads.WORKLOADS[name](), workdir, references)
        run.canary()
        run.setup(seed)
        if not trace:
            def probed_pass():
                probe()
                return [run.unit()]

            for _ in range(SETUP_PROBES_FIRST):
                probe()
            with step_probes():
                units = run.units_for(seconds, probed_pass)
            values = {
                "setup_s": statistics.median(setups),
                "train_samples_per_s": units[0].samples / train_time(run.workload, units),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "pipeline_s": median_parts(units, units[0].parts),
                "ckpt_snapshot_s": median_call(units, "snapshot"),
                "ckpt_save_s": median_call(units, "save"),
                "ckpt_load_s": median_call(units, "load"),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        else:
            tracer = Tracer()

            def paired_pass():
                # untraced and traced passes alternate, so that both see the
                # same spells of machine speed
                plain = run.unit()
                with tracer:
                    run.setup(seed)
                    return [plain, run.unit()]

            units = run.units_for(seconds, paired_pass)
            plain, traced = units[0::2], units[1::2]
            if tracer.leftover_wrappers():
                run.failures.append(f"wrappers left installed: {tracer.leftover_wrappers()}")
            overhead = 100.0 * (train_time(run.workload, traced)
                                / train_time(run.workload, plain) - 1.0)
            units = per_layer_metric_units()
            per_layer = tracer.metrics(len(traced), overhead)
            metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
            raw["traced_passes"] = len(traced)
            raw["missing_entry_points"] = tracer.missing
        raw["passes_wall_s"] = [u.walls for u in run.units]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"env": environment(seed), "workload": name, "trace": int(trace),
                      "raw": raw}))
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": min(len(run.failures), run.attempted), "metrics": metrics}


def smoke() -> int:
    """Tiny versions of every workload, untraced and traced."""
    import workloads
    from tracer import Tracer

    references = load_references()
    problems, seen_missing, unhit = [], set(), None
    for name, cls in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(dir=work_root())
        try:
            run = Run(cls(), workdir, references)
            t0 = time.perf_counter()
            plain = run.canary()
            with Tracer() as tracer:
                traced = run.canary()
            elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems += run.failures
        if plain.fingerprint != traced.fingerprint:
            problems.append(f"{name}: traced and untraced outputs differ")
        if tracer.leftover_wrappers():
            problems.append(f"{name}: wrappers left installed: {tracer.leftover_wrappers()}")
        seen_missing.update(tracer.missing)
        without = set(tracer.entry_points_without_spans())
        unhit = without if unhit is None else unhit & without
        print(f"{name}: {elapsed:.2f} s, {len(tracer.spans)} spans, "
              f"outputs {'identical' if plain.fingerprint == traced.fingerprint else 'DIFFER'}")
    if seen_missing:
        problems.append(f"entry points not found: {sorted(seen_missing)}")
    if unhit:
        problems.append(f"entry points that recorded no span: {sorted(unhit)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"smoke": "pass" if not problems else "fail", "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("mae-tpp", "dino-tpp", "cli-seg"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny end-to-end check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "tpp")):
        # never fall back to an installed copy: the benchmark measures this checkout
        parser.error(f"no src/tpp under {ROOT}; run from a checkout of the repository")
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
