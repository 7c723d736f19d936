"""Benchmark of veronese-kit through its command-line entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan|witness|construct --seed N --seconds S --trace 0|1

One process is one closed-loop client with no threads: it runs the next op
only when the previous one has returned. An op is one `veronese-kit` command
(`eval`, `gale`, `dim`, `eqs` or `transversal`) invoked in-process through
`cli.main`, so click dispatch, JSON decoding and encoding and the envelope
are timed, and interpreter start-up is not. The inputs are made from the seed
before any timing, then one untimed warm-up pass runs every op once and
checks its output. The timed phase repeats whole passes over the same ops
until `--seconds` have passed and at least 100 ops have run; an op fails when
its output differs from the warm-up pass or the warm-up output failed its
check.

Times are scaled by the calibration kernel of `calibrate.py`, run before each
op, so that they read as on a machine of fixed speed; the unscaled figures are
printed beside them. `ops_per_s` is completed ops over the summed op time.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics. With `--trace 1` the run times half of its seconds
untraced and half traced, and reports the per-layer metrics of one traced
pass (times are unscaled seconds per pass); the spans of the first traced
pass go to `.perfbench_out/trace-<workload>-<seed>.json`. Lines before the
last one give every metric by name and unit, the input and envelope digests
and the environment.

Exit code 2, with no result line, when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100
SETUP_LAUNCHES = 9
#: d values whose generator tables every workload uses, built during set-up
SETUP_DEGREES = (3, 4, 5)

# (name, unit) of the metrics BENCHMARK.json declares, in its order
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

# The child times the calibration kernel after its set-up, on the same core,
# and prints the median and the total so the parent can take them out.
SETUP_CHILD = """\
import statistics, sys
sys.path[:0] = sys.argv[1:3]
import veronese_kit.cli
from veronese_kit import brackets
build = getattr(brackets, "psi_generators", None)
if build is not None:
    for d in sys.argv[3:]:
        build(int(d))
import calibrate
runs = [calibrate.kernel_seconds() for _ in range(5)]
print(statistics.median(runs), sum(runs))
"""


def invoke(main, args, stdin: str) -> tuple[int, str]:
    """Run one command through the click entry point; returns (exit code, stdout)."""
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    code = 0
    try:
        with contextlib.redirect_stdout(buf):
            try:
                main.main(args=list(args), prog_name="veronese-kit", standalone_mode=False)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


class Reference:
    """Outputs of the checked warm-up pass, which every timed pass must repeat."""

    def __init__(self, main, ops):
        self.outputs = []
        self.failures = []
        digest = hashlib.sha256()
        for i, op in enumerate(ops):
            code, out = run_op(main, op)
            reason = op.check(code, out) if code is not None else out
            self.outputs.append((code, out))
            self.failures.append(reason)
            digest.update(f"{op.label}\0{code}\0{out}\0".encode())
        self.digest = digest.hexdigest()


def run_op(main, op, tracer=None, op_id=None):
    """One op; an exception escaping the CLI is returned as (None, message)."""
    if tracer is not None:
        tracer.op = op_id
    try:
        return invoke(main, op.args, op.stdin)
    except Exception as e:  # the run goes on; the op counts as failed
        return None, f"{type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.end_op()


def timed_passes(main, ops, ref: Reference, seconds: float, min_ops: int = MIN_OPS, tracer=None):
    """Whole passes until `seconds` have passed and `min_ops` ops have run.

    The calibration kernel runs before every op; each pass's op times are
    also given scaled by the pass's calibration factor.
    """
    latencies, scaled = [], []
    failed = 0
    passes = 0
    envelope_bytes = 0
    start = perf_counter()
    while True:
        pass_latencies, kernel = [], []
        for i, op in enumerate(ops):
            kernel.append(calibrate.kernel_seconds())
            t0 = perf_counter()
            code, out = run_op(main, op, tracer, (passes, i))
            pass_latencies.append(perf_counter() - t0)
            envelope_bytes += len(out)
            if (code, out) != ref.outputs[i] or ref.failures[i] is not None:
                failed += 1
        factor = calibrate.REFERENCE_S / statistics.median(kernel)
        latencies += pass_latencies
        scaled += [t * factor for t in pass_latencies]
        passes += 1
        if tracer is not None:
            tracer.end_pass()
        if perf_counter() - start >= seconds and len(latencies) >= min_ops:
            break
    return {
        "latencies": latencies,
        "scaled": scaled,
        "failed": failed,
        "passes": passes,
        "envelope_bytes": envelope_bytes,
    }


def measure_setup() -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter importing the CLI and
    building the generator tables; each launch is scaled by its own calibration."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE)] + [str(d) for d in SETUP_DEGREES]
    scaled, raw = [], []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = perf_counter()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        kernel, kernel_total = map(float, done.stdout.split())
        elapsed = perf_counter() - t0 - kernel_total
        if i:  # the first launch may write bytecode caches
            raw.append(elapsed)
            scaled.append(elapsed * calibrate.REFERENCE_S / kernel)
    return statistics.median(scaled), statistics.median(raw)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "seed": seed,
    }


def make_inputs(build, seed, tracer):
    """Build the ops; with a tracer, sampler calls are spans of their own."""
    if tracer is None:
        return build(seed, lambda fn, *a, **kw: fn(*a, **kw))
    tracer.op = "inputs"
    ops = build(seed, lambda fn, *a, **kw: tracer.call("configurations.sample", fn, a, kw))
    tracer.end_op()
    return ops


def input_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.label, list(op.args), op.stdin]).encode())
    return h.hexdigest()


def end_to_end(timed, setup: tuple[float, float]) -> tuple[dict, dict]:
    """The reported metrics, with times scaled by the calibration, and those times unscaled."""
    completed = len(timed["latencies"]) - timed["failed"]

    def times(latencies, setup_s):
        return {
            "op_ms_p50": statistics.median(latencies) * 1e3,
            "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "ops_per_s": completed / sum(latencies),
            "setup_s": setup_s,
        }

    metrics = times(timed["scaled"], setup[0])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ops_failed_frac"] = timed["failed"] / len(timed["latencies"])
    return metrics, times(timed["latencies"], setup[1])


def per_layer(tracer, sample_tracer, untraced, traced) -> dict:
    passes = traced["passes"]
    counts = tracer.first_pass[0]
    self_s = {k: v / passes for k, v in tracer.self_s.items()}
    values = {name: counts.get(name, 0) for name, _ in PER_LAYER}
    values.update({name: self_s.get(name[: -len(".self_s")], 0.0) for name, _ in PER_LAYER if name.endswith(".self_s")})
    values["configurations.sample.self_s"] = sample_tracer.self_s.get("configurations.sample", 0.0)
    gets = counts.get("linalg.minors.get_calls", 0)
    computed = counts.get("linalg.minors.computed", 0)
    possible = counts.get("brackets.pullbacks_possible", 0)
    values["linalg.minors.hit_ratio"] = 1 - counts.get("linalg.minors.get_misses", 0) / gets if gets else 0.0
    values["linalg.minors.unused_frac"] = counts.get("linalg.minors.unused", 0) / computed if computed else 0.0
    values["brackets.scan_skipped_frac"] = 1 - counts.get("brackets.pullbacks", 0) / possible if possible else 0.0
    values["serialize.envelope_bytes"] = traced["envelope_bytes"] // passes
    op_time = sum(traced["latencies"]) / passes
    values["cli.unattributed_s"] = op_time - sum(self_s.values())
    rate = len(untraced["scaled"]) / sum(untraced["scaled"])
    values["trace.overhead_frac"] = 1 - (len(traced["scaled"]) / sum(traced["scaled"])) / rate
    values["ops_failed_frac"] = traced["failed"] / len(traced["latencies"])
    return values


def write_trace(workload, seed, tracer, env) -> Path:
    """Write the first traced pass: counters, kernel shapes and spans (times in µs)."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.json"
    counts, shapes = tracer.first_pass
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "env": env,
        "counts": counts,
        "kernel_shapes": [{"kernel": k, "shape": list(s), "calls": c} for (k, s), c in sorted(shapes.items())],
        "span_fields": ["name", "start_us", "end_us", "parent", "op"],
        "spans": [
            [name, round((a - t0) * 1e6), round((b - t0) * 1e6), parent, op]
            for name, a, b, parent, op in tracer.spans
        ],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["scan", "witness", "construct"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import veronese_kit.cli as cli
    except ImportError as e:
        print(f"perfbench: cannot import veronese_kit from {SRC}: {e}", file=sys.stderr)
        return 2
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: veronese_kit was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import mix
    import tracer as tracing

    env = environment(args.seed)
    sample_tracer = tracing.Tracer() if args.trace else None
    installed = tracing.Installed(sample_tracer) if args.trace else None
    try:
        ops = make_inputs(mix.WORKLOADS[args.workload], args.seed, sample_tracer)
    finally:
        if installed is not None:
            installed.restore()
    ref = Reference(cli.main, ops)

    if args.trace:
        untraced = timed_passes(cli.main, ops, ref, args.seconds / 2)
        tr = tracing.Tracer()
        installed = tracing.Installed(tr)
        try:
            timed = timed_passes(cli.main, ops, ref, args.seconds / 2, min_ops=0, tracer=tr)
        finally:
            installed.restore()
        metrics, unscaled = per_layer(tr, sample_tracer, untraced, timed), {}
        units = shown = PER_LAYER
    else:
        timed = timed_passes(cli.main, ops, ref, args.seconds)
        metrics, unscaled = end_to_end(timed, measure_setup())
        units = END_TO_END
        shown = units + [("ops_failed_frac", "ratio")]

    attempted = len(timed["latencies"])
    failed = timed["failed"]
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted} in {timed['passes']} passes of {len(ops)}  traced {bool(args.trace)}")
    if not args.trace:
        print(f"  percentiles over {attempted} samples; times scaled to a {calibrate.REFERENCE_S * 1e3:g} ms calibration kernel")
    for name, unit in shown:
        line = f"  {name:40s} {metrics[name]:<12.6g} {unit}"
        if name in unscaled:
            line += f"  (unscaled {unscaled[name]:.6g})"
        print(line)
    if args.trace:
        print("  kernels.bytes_in is computed from array sizes, not measured")
        if tr.absent:
            print(f"  absent (reported as 0): {', '.join(sorted(tr.absent))}")
        layer_s = sum(metrics[n] for n, _ in PER_LAYER if n.endswith(".self_s") and n != "configurations.sample.self_s")
        print(f"  traced op time per pass {sum(timed['latencies']) / timed['passes']:.6g} s = layer .self_s "
              f"{layer_s:.6g} s + cli.unattributed_s {metrics['cli.unattributed_s']:.6g} s")
        print(f"  counts repeat exactly over {tr.passes} traced passes: {tr.counts_repeat()}")
        for (kernel, shape), calls in sorted(tr.first_pass[1].items(), key=lambda kv: -kv[1]):
            print(f"  kernel shape {kernel} {shape}: {calls} calls")
        print(f"  spans: {write_trace(args.workload, args.seed, tr, env).relative_to(ROOT)}")
    for i, reason in enumerate(ref.failures):
        if reason is not None:
            print(f"  FAILED {ops[i].label}: {reason}")
    print(f"inputs_sha256 {input_digest(ops)}")
    print(f"envelopes_sha256 {ref.digest}")
    print(f"env {json.dumps(env)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
