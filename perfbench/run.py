"""The repository benchmark: one command, four workloads, traced or not.

Run from the repository root::

    python3 perfbench/run.py --workload mtf_pfa_16x16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (``layers.py``) and reports per-layer metrics
instead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every operation
succeeded and every output passed its checks.  See ``README.md`` for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"

ROUTING = ("mtf_pfa_16x16", "mtf_iterated_8x8", "negotiate_16x16")
WORKLOADS = ROUTING + ("service_jobs",)
#: fresh interpreters timed per run for setup_s
SETUP_SAMPLES = 3
#: one probe may take this long before the run is abandoned
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "route_s": "s",
    "peak_rss_mb": "MB",
    "wirelength": "length",
    "pathlength": "length",
    "critical_delay": "elmore",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "hit_p50_ms": "ms",
    "jobs_per_min": "1/min",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the service job stream (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--circuit-seed", type=int, default=None,
        help="route circuits from this seed instead of the workload's "
             "pinned ones (routing workloads; skips the pinned-signature "
             "check)",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build_inputs(args):
    if args.workload == "service_jobs":
        import service_jobs

        return service_jobs.Inputs(args.seed, str(WORKDIR))
    import routing

    return routing.build_inputs(
        routing.WORKLOADS[args.workload], args.circuit_seed
    )


def close_inputs(inputs) -> None:
    if hasattr(inputs, "close"):
        inputs.close()


def setup_probe(args) -> int:
    """Child mode: set up, say ``ready`` with the CPU seconds this
    process has used so far (the sampler's own left out) at reference
    host speed, tear down."""
    import hostspeed

    hostspeed.pin_to_one_cpu()
    with hostspeed.Sampler() as speed:
        began = time.perf_counter()
        inputs = build_inputs(args)
        ready = time.perf_counter()
        cpu_s = time.process_time() - speed.cpu_s()
    try:
        print(f"ready {cpu_s / speed.slowness(began, ready)!r}", flush=True)
    finally:
        close_inputs(inputs)
    return 0


def time_setup(args):
    """CPU seconds a fresh interpreter spends from its start until its
    inputs are ready, at reference host speed (``hostspeed.py``); the
    median of several, and every sample."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    if args.circuit_seed is not None:
        command += ["--circuit-seed", str(args.circuit_seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline().split()
            try:
                child.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
        if len(line) != 2 or line[0] != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        samples.append(float(line[1]))
    return statistics.median(samples), samples


def load_pinned(args):
    if args.workload == "service_jobs" or args.circuit_seed is not None:
        return None
    record = json.loads((HERE / "RECORD.json").read_text(encoding="utf-8"))
    return record["signatures"].get(args.workload)


def measure(args):
    """(metrics, attempted, failed, notes) of one workload run."""
    import layers

    notes = []
    if not args.trace:
        setup_s, samples = time_setup(args)
        notes.append(f"setup samples {[round(s, 4) for s in samples]}")
    spans_path = str(WORKDIR / f"spans-{args.workload}.jsonl")
    inputs = build_inputs(args)
    try:
        if args.workload == "service_jobs":
            import service_jobs

            metrics, attempted, failed, more = service_jobs.run(
                inputs, args.seconds, bool(args.trace), spans_path
            )
        else:
            import routing

            metrics, attempted, failed, more = routing.run(
                routing.WORKLOADS[args.workload], inputs, args.seconds,
                bool(args.trace), load_pinned(args), spans_path,
            )
    finally:
        close_inputs(inputs)
    notes += more
    if args.trace:
        units = layers.per_layer_names()
    else:
        units = END_TO_END
        metrics["setup_s"] = setup_s
        # the routing workloads report theirs after their first round
        metrics.setdefault(
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    missing = sorted(set(units) - set(metrics))
    if missing:
        failed += 1
        notes.append(f"missing metrics: {', '.join(missing)}")
    report = {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit in units.items() if name in metrics
    }
    return report, attempted, failed, notes


def steal_s():
    """Seconds the host has withheld this machine's CPUs from it, summed
    over CPUs (``/proc/stat``); None where the kernel does not say."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_facts() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
        f"numpy {numpy_version}"
    )


def run_one(args) -> int:
    print(f"workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}; {host_facts()}")
    stolen = steal_s()
    report, attempted, failed, notes = measure(args)
    if stolen is not None:
        notes.append(f"host steal time during the run {steal_s() - stolen:.2f} s")
    for note in notes:
        print(f"  note: {note}")
    for name, row in report.items():
        print(f"  {name:<36} {row['value']:>14.6g} {row['unit']}")
    print(f"  {'error_rate':<36} {failed / max(1, attempted):>14.6g} "
          f"ratio ({failed} of {attempted})")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": report}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.circuit_seed is not None and workload in ROUTING:
            command += ["--circuit-seed", str(args.circuit_seed)]
        status |= subprocess.run(command, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORKDIR)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
