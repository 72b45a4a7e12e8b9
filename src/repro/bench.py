"""The benchmark-report core: timing, gates, host, validation, output.

Every ``repro bench <suite>`` report is built, checked, written and
printed here; a suite (:mod:`repro.perf.bench`, :mod:`repro.dedupe.bench`,
:mod:`repro.serve.bench_resilient`) only measures its workload and hands
its sections and gates to :meth:`Suite.report`.

* :func:`best_of` — fastest-of-N wall time *and that repeat's result*,
  so anything the timed callable returns (phase timings, counter
  deltas) describes the run the report's time comes from;
* :func:`gate` — one ``{name, value, bound, better, passed}`` check;
  :meth:`Suite.report` folds the gate list into the acceptance block
  ``{enforced, passed, gates}`` — a smoke run is never enforced;
* :func:`host` — the CPU, nproc, python, numpy and BLAS-thread record
  stamped into every report;
* :class:`Suite` — the suite's name, schema version and required key
  paths, with the one validator, atomic writer and exit code
  (0 pass or smoke, 1 a gate failed, 2 the report is invalid);
* :func:`render` — the one text view of a report;
* :func:`build_workload` / :func:`fit_matcher` — the dblp-acm pair
  workload and tiny fitted matcher shared by the matcher-backed suites
  and the overhead benchmarks.

Imports from ``repro.matching`` stay inside the functions: the matching
layer imports ``repro.perf``, whose suite imports this module.
"""

from __future__ import annotations

import ctypes
import glob
import json
import operator
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .utils import atomic_write_text

__all__ = ["best_of", "gate", "host", "Suite", "render",
           "build_workload", "fit_matcher", "tiny_zoo_settings"]

_BETTER = {"higher": operator.ge, "lower": operator.le}
_BASE_KEYS = ("benchmark", "schema", "smoke", "host.cpu", "host.nproc",
              "host.python", "host.numpy", "host.blas_threads", "config",
              "acceptance.enforced", "acceptance.passed",
              "acceptance.gates")
_GATE_KEYS = ("name", "value", "bound", "better", "passed")


def best_of(fn, repeats: int, setup=None):
    """Run ``fn`` ``repeats`` times; return the fastest wall time and the
    result of that same repeat.

    ``setup`` runs before each repeat outside the timed region (cache
    clears, so every repeat measures the same cold-cache shape).  The
    minimum is the noise-robust estimator: the timed work is
    deterministic, and scheduler interference only ever adds time.
    """
    best, best_result = float("inf"), None
    for _ in range(max(1, repeats)):
        if setup is not None:
            setup()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, best_result = elapsed, result
    return best, best_result


def gate(name: str, value, bound, better: str = "higher") -> dict:
    """One acceptance check: ``value`` must be ``better`` than ``bound``
    (``"higher"``: ``value >= bound``; ``"lower"``: ``value <= bound``)."""
    if better not in _BETTER:
        raise ValueError(f"better must be 'higher' or 'lower', "
                         f"got {better!r}")
    return {"name": name, "value": value, "bound": bound,
            "better": better, "passed": bool(_BETTER[better](value, bound))}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads(np) -> int | None:
    """The BLAS thread count: the environment's pin, else what the
    bundled OpenBLAS reports (None if neither is known)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    for path in glob.glob(os.path.dirname(np.__file__)
                          + ".libs/*openblas*"):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host() -> dict:
    """The machine a report was measured on."""
    import numpy as np
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {"cpu": _cpu_model(), "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": _blas_threads(np)}


def _missing(node, path: str, prefix: str = "") -> list[str]:
    """Dotted ``path`` segments absent under ``node``; ``*`` matches every
    key of a dict, and a ``None`` section is optional."""
    head, _, rest = path.partition(".")
    if head == "*":
        if not isinstance(node, dict):
            return []
        return [miss for key, child in node.items()
                for miss in _missing(child, rest, f"{prefix}{key}.")]
    if not isinstance(node, dict) or head not in node:
        return [prefix + head]
    if not rest or node[head] is None:
        return []
    return _missing(node[head], rest, f"{prefix}{head}.")


@dataclass(frozen=True)
class Suite:
    """What one benchmark's report must carry.

    ``required`` lists dotted key paths beyond the keys every report has
    (benchmark, schema, smoke, host, config, acceptance).
    """

    name: str
    schema: int
    required: tuple[str, ...] = ()

    def report(self, smoke: bool, config: dict, gates, **sections) -> dict:
        """Assemble a report; ``gates`` become the acceptance block."""
        gates = list(gates)
        return {"benchmark": self.name, "schema": self.schema,
                "smoke": bool(smoke), "host": host(), "config": config,
                **sections,
                "acceptance": {
                    # Smoke runs are too small for stable timing; gates
                    # are evaluated but only enforced on full runs.
                    "enforced": not smoke,
                    "passed": all(g["passed"] for g in gates),
                    "gates": gates}}

    def validate(self, report: dict) -> list[str]:
        """Schema check; returns a list of problems (empty = valid)."""
        problems = []
        if report.get("benchmark") != self.name:
            problems.append(f"benchmark must be {self.name!r}, "
                            f"got {report.get('benchmark')!r}")
        if report.get("schema") != self.schema:
            problems.append(f"schema must be {self.schema}, "
                            f"got {report.get('schema')!r}")
        for path in _BASE_KEYS + self.required:
            problems += [f"missing {miss!r}"
                         for miss in _missing(report, path)]
        for index, entry in enumerate(
                report.get("acceptance", {}).get("gates") or ()):
            problems += [f"gate {index} missing {key!r}"
                         for key in _GATE_KEYS if key not in entry]
        return problems

    def write(self, report: dict, path: str | Path) -> Path:
        """Validate, then atomically write the report JSON to ``path``."""
        problems = self.validate(report)
        if problems:
            raise ValueError(f"invalid {self.name} report: "
                             + "; ".join(problems))
        path = Path(path)
        atomic_write_text(path, json.dumps(report, indent=2,
                                           sort_keys=True) + "\n")
        return path

    def exit_code(self, report: dict) -> int:
        """0 on pass or smoke, 1 if an enforced gate fails, 2 if invalid."""
        if self.validate(report):
            return 2
        acceptance = report["acceptance"]
        return 1 if acceptance["enforced"] and not acceptance["passed"] \
            else 0

    def publish(self, report: dict, path: str | Path) -> int:
        """Write and print the report; return :meth:`exit_code`."""
        code = self.exit_code(report)
        if code == 2:
            for problem in self.validate(report):
                print(f"error: invalid report: {problem}", file=sys.stderr)
            return code
        self.write(report, path)
        print(render(report))
        print(f"report written to {path}")
        return code


def render(report: dict) -> str:
    """The text view: a host header, one line per gate, the verdict."""
    machine = report["host"]
    acceptance = report["acceptance"]
    lines = [f"{report['benchmark']} (schema {report['schema']}"
             f"{', smoke' if report['smoke'] else ''}) on "
             f"{machine['cpu']}, {machine['nproc']} cpus, python "
             f"{machine['python']}, numpy {machine['numpy']}, BLAS "
             f"threads {machine['blas_threads']}"]
    for entry in acceptance["gates"]:
        op = ">=" if entry["better"] == "higher" else "<="
        lines.append(f"  {entry['name']:<34} {entry['value']:>12.6g} "
                     f"{op} {entry['bound']:<10g} "
                     f"{'pass' if entry['passed'] else 'FAIL'}")
    lines.append(f"  acceptance: {'pass' if acceptance['passed'] else 'FAIL'}"
                 f"{'' if acceptance['enforced'] else ' (not enforced: smoke)'}")
    return "\n".join(lines)


def tiny_zoo_settings():
    """The 2-layer d=32 zoo recipe the matcher-backed benchmarks use."""
    from .pretraining import ZooSettings
    return ZooSettings(base_steps=25, base_examples=150,
                       tokenizer_sentences=150, vocab_size=220,
                       d_model=32, num_layers=2, num_heads=2,
                       max_position=64, seq_len=32)


def build_workload(num_pairs: int, seed: int):
    """dblp-acm splits plus a cycled test-pair workload.

    The workload cycles the test split's pairs up to the requested
    count with the unique pool capped at half the workload, so every
    record really is re-matched at least once — the cacheable shape.
    Train/validation stay held out for fitting and cascade band
    selection.
    """
    from .data import load_benchmark, split_dataset
    from .utils import child_rng
    data = load_benchmark("dblp-acm", seed=seed, scale=0.05)
    splits = split_dataset(data, child_rng(seed, "split", "bench-perf"))
    base = [(p.record_a, p.record_b) for p in splits.test.pairs]
    if not base:
        raise RuntimeError("dblp-acm produced no test pairs")
    base = base[:max(1, num_pairs // 2)]
    pairs = [base[i % len(base)] for i in range(num_pairs)]
    return splits, pairs


def fit_matcher(arch: str, splits, seed: int, zoo_dir):
    """An :class:`EntityMatcher` on the tiny zoo, fitted on ``splits``."""
    from .matching import EntityMatcher, FineTuneConfig
    matcher = EntityMatcher(
        arch, seed=seed, zoo_settings=tiny_zoo_settings(), zoo_dir=zoo_dir,
        # 3 epochs is the knee: 1 epoch leaves both models all-negative
        # (F1 0.0 — the cascade and F1 gates would pass vacuously),
        # 3 gives DistilBERT ~0.86 / RoBERTa ~1.0 on the test split so
        # band calibration has a real gap to close.
        finetune_config=FineTuneConfig(epochs=3, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(splits.train, splits.validation)
    return matcher
