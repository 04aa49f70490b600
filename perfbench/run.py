"""branchlab benchmark runner.

    python3 perfbench/run.py --workload {deep-box,wide-shallow,poly-model,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; branchlab is imported from ./src, and
nothing needs installing.  One client, closed loop: each sample is a fresh
interpreter (perfbench/sample.py), started only after the previous one has
exited.

--trace 0 takes a few setup-only samples and then whole-workload samples
until --seconds is spent (at least two), and reports medians of the
end-to-end metrics.
--trace 1 takes one untraced and one traced sample and reports the per-layer
metrics of the traced one, with the tracing overhead.  Both grade every
sample against the known answers in workloads.py and run the seeded
corruption sentinel, untimed, in this process.

The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import sentinel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Sample outputs and the spans of traced samples go here, inside the checkout.
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# Whole-workload samples per run, whatever --seconds says: with two, every
# run compares report bytes between samples.
MIN_SAMPLES = 2
SAMPLE_TIMEOUT = 170.0

UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_reuse"):
        return "ratio"
    return "count"


class Sample:
    """One child interpreter, run beside the machine-speed probe.

    Times are the child's CPU seconds scaled to reference machine speed
    (see calibrate.py); the wall_* values are raw monotonic seconds.
    ``data`` is None when the child died, timed out or printed no result."""

    def __init__(self, workload: str, mode: str, deadline: float):
        self.spawn = time.monotonic()
        with tempfile.TemporaryFile(dir=OUT_DIR) as out:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "sample.py"), workload, mode],
                cwd=str(ROOT),
                stdout=out,
            )
            self.scale = calibrate.REFERENCE_S / calibrate.probe_beside(proc, deadline)
            self.exit = time.monotonic()
            out.seek(0)
            lines = out.read().decode(errors="replace").strip().splitlines()
        self.data = None
        if proc.returncode == 0 and lines:
            try:
                self.data = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass

    def _mark(self, key):
        return None if self.data is None else self.data.get(key)

    @property
    def setup_s(self):
        ready = self._mark("ready_cpu")
        return None if ready is None else ready * self.scale

    @property
    def verdict_s(self):
        ready, end = self._mark("ready_cpu"), self._mark("end_cpu")
        return None if ready is None or end is None else (end - ready) * self.scale

    @property
    def wall_setup_s(self):
        ready = self._mark("ready")
        return None if ready is None else ready - self.spawn

    @property
    def wall_verdict_s(self):
        ready, end = self._mark("ready"), self._mark("end")
        return None if ready is None or end is None else end - ready

    @property
    def rss_mb(self):
        return None if self.data is None else self.data["rss_kb"] / 1024.0


def grade_cli(workload: str, data) -> tuple[int, int, str]:
    """(operations without a verdict, verdicts differing from the known answer,
    sha256 of the report bytes)."""
    expected = workloads.THETA_BOX[workload]
    total = workloads.operation_count(workload)
    if data is None or data.get("error") is not None:
        return total, 0, ""
    text = data["report"]
    digest = hashlib.sha256(text.encode()).hexdigest()
    try:
        report = json.loads(text)
        got = {c["case"]: {k["name"]: k for k in c["checks"]} for c in report["cases"]}
    except (ValueError, KeyError, TypeError):
        return total, 0, digest
    missing = 0
    wrong = 0 if data["rc"] == 0 else 1
    for case, box in expected.items():
        checks = got.get(case, {})
        names = workloads.expected_checks(case)
        for name in names:
            entry = checks.get(name)
            if entry is None:
                missing += 1
            elif entry["failed"] != 0:
                wrong += 1
            elif name == "transfer" and entry["run"] != box:
                wrong += 1
        # A check added later counts only if it fails.
        wrong += sum(1 for n, e in checks.items() if n not in names and e["failed"] != 0)
    wrong += len(set(got) - set(expected))
    return missing, wrong, digest


def grade_poly(data) -> tuple[int, int, str]:
    total = workloads.operation_count("poly-model")
    if data is None or len(data.get("outcomes", ())) != total:
        return total, 0, ""
    outcomes = data["outcomes"]
    return outcomes.count("error"), outcomes.count("wrong"), data["digest"]


class Tally:
    """Operations attempted and failed, and verdict errors, over a run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.verdict_errors = 0
        self.first_digest = None

    def add(self, sample: Sample) -> None:
        if self.workload == "poly-model":
            missing, wrong, digest = grade_poly(sample.data)
        else:
            missing, wrong, digest = grade_cli(self.workload, sample.data)
        self.attempted += workloads.operation_count(self.workload)
        self.failed += missing
        self.verdict_errors += wrong
        if digest:
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                self.verdict_errors += 1  # output bytes drifted between runs

    def add_setup(self, sample: Sample) -> None:
        """A setup-only sample that dies counts as one failed operation."""
        if sample.setup_s is None:
            self.attempted += 1
            self.failed += 1


def _median(values, fallback):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else fallback


def _spread(values) -> str:
    values = sorted(v for v in values if v is not None)
    if not values:
        return "no samples"
    if len(values) < 4:
        return "n=%d, range %.4f..%.4f" % (len(values), values[0], values[-1])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "n=%d, quartiles %.4f..%.4f" % (len(values), q1, q3)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + seconds
    guard = start + SAMPLE_TIMEOUT
    calibrate.pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    found = sentinel.run(workload, seed)
    tally = Tally(workload)
    lines = []
    if trace:
        plain = Sample(workload, "run", guard)
        traced = Sample(workload, "trace", guard)
        tally.add(plain)
        tally.add(traced)
        layers = (traced.data or {}).get("trace") or {n: 0 for n in tracing.metric_names()}
        layers = {k: v * traced.scale if k.endswith("_s") else v for k, v in layers.items()}
        spans_file = OUT_DIR / ("spans-%s.json" % workload)
        spans_file.write_text(json.dumps((traced.data or {}).get("spans", [])))
        plain_verdict, traced_verdict = plain.verdict_s or 0.0, traced.verdict_s or 0.0
        overhead = traced_verdict - plain_verdict
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
        metrics["trace.verdict_s"] = {"value": traced_verdict, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name in tracing.metric_names():
            lines.append("  %-38s %14.6g %s" % (name, layers[name], per_layer_unit(name)))
        lines.append(
            "  layer self times %.4f s = traced verdict_s %.4f s; untraced verdict_s %.4f s,"
            " tracing overhead %.4f s" % (self_total, traced_verdict, plain_verdict, overhead)
        )
        lines.append(
            "  spans [name, start, end, parent], in process CPU seconds, written to %s"
            % spans_file.relative_to(ROOT)
        )
    else:
        setup_samples = [Sample(workload, "setup", guard) for _ in range(SETUP_SAMPLES)]
        for s in setup_samples:
            tally.add_setup(s)
        full = []
        while True:
            full.append(Sample(workload, "run", guard))
            tally.add(full[-1])
            typical = statistics.median(s.exit - s.spawn for s in full)
            if len(full) >= MIN_SAMPLES and time.monotonic() + typical > deadline:
                break
        everything = setup_samples + full
        setups = [s.setup_s for s in everything]
        verdicts = [s.verdict_s for s in full]
        rss = [s.rss_mb for s in full]
        # If every sample died there is no CPU time; the wall time stands in,
        # and the operations are already counted as failed.
        wall = statistics.median(s.exit - s.spawn for s in everything)
        metrics = {
            "setup_s": _median(setups, wall),
            "verdict_s": _median(verdicts, wall),
            "peak_rss_mb": _median(rss, 0.0),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        for name, values, raw in (
            ("setup_s", setups, [s.wall_setup_s for s in everything]),
            ("verdict_s", verdicts, [s.wall_verdict_s for s in full]),
        ):
            lines.append(
                "  %-14s %10.4f s   median, %s; raw wall median %.4f s"
                % (name, metrics[name]["value"], _spread(values), _median(raw, 0.0))
            )
        lines.append("  peak_rss_mb    %10.4f MB  median, %s" % (metrics["peak_rss_mb"]["value"], _spread(rss)))
        lines.append(
            "  machine speed  %10.4f     scale to reference speed, %s"
            % (_median([s.scale for s in everything], 0.0), _spread([s.scale for s in everything]))
        )
    error_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(
        "  error_ratio    %10.4f ratio %d of %d operations failed" % (error_ratio, tally.failed, tally.attempted)
    )
    lines.append("  verdict_errors %10d count verdicts differing from the known answers" % tally.verdict_errors)
    lines.append(
        "  sentinel: %d corruptions, %d escaped, %d raised%s"
        % (
            found["attempted"],
            found["escapes"],
            found["errors"],
            "".join("\n    escaped: %s" % e for e in found["escaped"]),
        )
    )
    lines.append("  output sha256 %s" % (tally.first_digest or "none"))
    print("workload %s, seed %d, %s, %.1f s" % (workload, seed, "traced" if trace else "untraced", time.monotonic() - start))
    print("\n".join(lines))
    return {
        "correct": tally.verdict_errors == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "branchlab" / "__init__.py").is_file():
        print("error: no branchlab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
