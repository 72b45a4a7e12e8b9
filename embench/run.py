"""The repository's benchmark: one command for every workload.

    python3 embench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root.  Set-up (data generation, checkpoint load,
fine-tuning, band calibration) runs ``SETUP_REPEATS`` times and
``setup_s`` is the median; the last set-up is measured for ``--seconds``.
``--trace 0`` prints every end-to-end metric; ``--trace 1`` measures once
untraced and once traced and prints every per-layer metric (a layer the
workload never calls reads 0).  End-to-end times are scaled to a nominal
host speed measured by a reference loop (``embench/speed.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``embench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: Builds (first run in a checkout) or checks the zoo checkpoints.
ZOO_BUILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import host; "
             "host.pin_blas_threads(); from fixtures import ensure_zoo; "
             "ensure_zoo(sys.argv[3])")
#: Reference-loop samples of the host's speed before and after each
#: set-up.
SETUP_SPEED_SAMPLES = 2
WORKLOADS = ("dedupe-jaccard", "dedupe-cascade", "match-pairs",
             "serve-poisson")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload(name: str):
    """``(setup, measure)`` of a workload."""
    if name == "match-pairs":
        import wl_match
        return wl_match.setup, wl_match.measure
    if name == "serve-poisson":
        import wl_serve
        return wl_serve.setup, wl_serve.measure
    import wl_dedupe
    if name == "dedupe-jaccard":
        return wl_dedupe.setup_jaccard, wl_dedupe.measure
    return wl_dedupe.setup_cascade, wl_dedupe.measure


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    import host
    host.pin_blas_threads()           # before numpy is first imported
    if not (ROOT / "src" / "repro").is_dir():
        print(f"embench: no program source at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gc
    from fixtures import MAX_SEED
    if not 0 <= args.seed < MAX_SEED:
        print(f"embench: --seed must lie in [0, {MAX_SEED})",
              file=sys.stderr)
        return 2
    from catalogue import END_TO_END, PER_LAYER
    from spans import Recorder
    from speed import HostSpeed
    from stats import median

    cache = ROOT / ".embench_cache"
    scratch = cache / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    print("host " + json.dumps(host.host_record(), sort_keys=True))
    # Built once per checkout, untimed, in a child process so that the
    # pretraining's memory does not count in this run's peak_rss_mb.
    subprocess.run([sys.executable, "-c", ZOO_BUILD, str(HERE),
                    str(ROOT / "src"), str(cache / "zoo")], check=True)

    setup, measure = _workload(args.workload)
    setup_speed = HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        fixture = None                # release the previous set-up first
        gc.collect()
        setup_speed.sample(SETUP_SPEED_SAMPLES)
        start = time.perf_counter()
        fixture = setup(args.seed, cache / "zoo", str(scratch),
                        args.seconds)
        setup_times.append(time.perf_counter() - start)
        setup_speed.sample(SETUP_SPEED_SAMPLES)
    gc.collect()

    speed = HostSpeed()               # sampled by the workload between units
    run = measure(fixture, args.seconds, speed)
    work_scale = speed.scale()
    measured = {"setup_s": median(setup_times), **run.metrics}
    run.info.update(measured=measured, setup_scale=setup_speed.scale(),
                    work_scale=work_scale)
    if args.trace:
        recorder = Recorder(time.monotonic
                            if args.workload == "serve-poisson"
                            else time.perf_counter)
        traced_speed = HostSpeed()
        traced = measure(fixture, args.seconds, traced_speed, recorder)
        totals = traced.totals
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(run.details)
        values.update(traced.layers)
        values["trace.overhead_frac"] = (
            run.metrics["throughput_per_s"] * work_scale
            / (traced.metrics["throughput_per_s"] * traced_speed.scale())
            - 1.0)
        values["trace.remainder_frac"] = totals.root_self / totals.roots
        values["failed_frac"] = traced.failed / traced.attempted
        _print_accounting(totals)
        out = cache / "traces"
        out.mkdir(exist_ok=True)
        written = recorder.write(
            out / f"{args.workload}-seed{args.seed}.jsonl")
        print(f"trace: {written} spans written to "
              f"{out.relative_to(ROOT)}")
        run.checks += traced.checks
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.info["traced"] = traced.info
    else:
        # Times at the nominal host speed (see embench/speed.py).
        values = {"setup_s": measured["setup_s"] / setup_speed.scale(),
                  "peak_rss_mb": host.peak_rss_mb(),
                  "throughput_per_s": (measured["throughput_per_s"]
                                       * work_scale),
                  "latency_ms": measured["latency_ms"] / work_scale}
    catalogue = PER_LAYER if args.trace else END_TO_END
    unknown = set(values) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {unknown}")
    metrics = {name: _metric(values[name], unit)
               for name, unit in catalogue.items()}

    for check in run.checks:
        print(f"check {'ok  ' if check.ok else 'FAIL'} {check.name}: "
              f"{check.detail}")
    print("info " + json.dumps({"setup_s": setup_times, **run.info,
                                "details": run.details},
                               sort_keys=True, default=str))
    print(json.dumps({"correct": all(c.ok for c in run.checks),
                      "attempted": int(run.attempted),
                      "failed": int(run.failed), "metrics": metrics}))
    return 0


def _print_accounting(totals) -> None:
    """Self time per span name against the traced end-to-end time."""
    print(f"trace accounting: {totals.roots:.4f} s traced end to end")
    for name, own in sorted(totals.self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<36} self {own:10.4f} s  calls "
              f"{totals.calls[name]}")


if __name__ == "__main__":
    sys.exit(main())
