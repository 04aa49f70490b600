"""Spans and counters around the public calls into each branchlab module.

The wrappers are installed from the benchmark's side, on the binding each
caller actually looks up (``verify.casimir_eigenvalue`` as well as
``reps.casimir_eigenvalue``, the ``ParamSpace.enumerate`` class attribute),
so the program itself is not changed.  Spans stay in memory and are reduced
to per-layer numbers when the traced sample ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time

# Spans whose inclusive time is reported as "<name>_s".
TIMED_SPANS = (
    "catalog.load",
    "catalog.enumerate",
    "verify.relations",
    "verify.transfer",
    "verify.smf",
    "verify.dimension",
    "verify.pi_side",
    "verify.compile",
    "verify.independence",
    "verify.parity_gap",
    "reps.casimir",
    "weights.rho",
    "linalg.rank",
    "hilbert.degrees",
    "dgx.membership",
    "dgx.decompose",
    "dgx.witness",
    "dgx.cross_eval",
)
# Spans whose call count is reported as "<name>_calls".
COUNTED_SPANS = (
    "catalog.enumerate",
    "reps.casimir",
    "weights.rho",
    "weights.dominant_representative",
    "weights.weyl_dimension",
    "linalg.rank",
    "hilbert.degrees",
    "dgx.membership",
    "dgx.decompose",
)
# Counters filled from the wrapped calls' results.
RESULT_COUNTS = (
    "catalog.records",
    "catalog.enumerate_points",
    "verify.relations_run",
    "verify.transfer_run",
    "verify.smf_run",
    "verify.dimension_run",
    "verify.pi_side_run",
    "verify.independence_rows",
)
# Layers whose self time inside the verdict window is reported as
# "<layer>.self_s".  "bench" is time inside the window that no span covers:
# the benchmark's own loop between calls.
LAYERS = ("catalog", "verify", "reps", "weights", "linalg", "hilbert", "dgx", "cli", "bench")


def metric_names() -> list[str]:
    """Every per-layer metric a traced sample reports, in a stable order."""
    names = [n + "_s" for n in TIMED_SPANS]
    names += [n + "_calls" for n in COUNTED_SPANS]
    names += list(RESULT_COUNTS)
    names += ["catalog.enumerate_reuse"]
    names += [layer + ".self_s" for layer in LAYERS]
    return names


class Tracer:
    """Records spans (name, start, end, parent) and result counters.  Span
    times are process CPU seconds, the clock the runner scales to reference
    machine speed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._enumerated: set = set()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(args, result) runs once the
        span has closed, so its own work is not charged to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self, compile_filter=None) -> None:
        """Patch the public functions of every module.  With compile_filter,
        each record load_default returns for which it is true has its symbols
        compiled at once, under a verify.compile span, instead of lazily
        inside the first check."""
        from branchlab import catalog, dgx, hilbert, linalg, reps, verify, weights

        self._enumerate = catalog.ParamSpace.enumerate

        def loaded(args, records):
            self.counts["catalog.records"] += len(records)
            if compile_filter is not None:
                self.compile(r for r in records if compile_filter(r))

        catalog.load_default = self.wrap("catalog.load", catalog.load_default, loaded)

        def enumerated(args, points):
            self.counts["catalog.enumerate_points"] += len(points)
            self._enumerated.add((args[0], args[1]))

        catalog.ParamSpace.enumerate = self.wrap(
            "catalog.enumerate", catalog.ParamSpace.enumerate, enumerated
        )

        def checks_run(key):
            def after(args, report):
                self.counts[key] += report.checks_run

            return after

        for attr, name in (
            ("check_relations", "verify.relations"),
            ("check_transfer", "verify.transfer"),
            ("check_strong_multiplicity_freeness", "verify.smf"),
            ("check_dimension_conservation", "verify.dimension"),
            ("check_pi_side_consistency", "verify.pi_side"),
        ):
            setattr(verify, attr, self.wrap(name, getattr(verify, attr), checks_run(name + "_run")))

        def rows(args, result):
            self.counts["verify.independence_rows"] += len(result[1])

        verify.independence_certificate = self.wrap(
            "verify.independence", verify.independence_certificate, rows
        )
        verify.check_ix_parity_gap = self.wrap("verify.parity_gap", verify.check_ix_parity_gap)

        casimir = self.wrap("reps.casimir", reps.casimir_eigenvalue)
        reps.casimir_eigenvalue = casimir
        verify.casimir_eigenvalue = casimir
        weights.rho = self.wrap("weights.rho", weights.rho)
        weights.dominant_representative = self.wrap(
            "weights.dominant_representative", weights.dominant_representative
        )
        weights.weyl_dimension = self.wrap("weights.weyl_dimension", weights.weyl_dimension)
        linalg.rank = self.wrap("linalg.rank", linalg.rank)
        hilbert.check_generator_degrees = self.wrap(
            "hilbert.degrees", hilbert.check_generator_degrees
        )
        dgx.membership = self.wrap("dgx.membership", dgx.membership)
        dgx.decompose_R_plus_Rx = self.wrap("dgx.decompose", dgx.decompose_R_plus_Rx)
        dgx.x_not_in_R_witness = self.wrap("dgx.witness", dgx.x_not_in_R_witness)

    def compile(self, records) -> None:
        """Compile every symbol of each record through verify.evaluate_generator,
        which caches the compiled form on the record."""
        from branchlab import verify

        for record in records:
            with self.span("verify.compile"):
                theta = self._first_theta(record)
                for name in record.symbols:
                    verify.evaluate_generator(record, name, theta)

    def _first_theta(self, record):
        # The unwrapped enumerate: this lookup is the tracer's, not the program's.
        for bound in range(9):
            points = self._enumerate(record.theta, bound)
            if points:
                return points[0]
        raise ValueError("case %s has no theta with coordinates up to 8" % record.id)

    # -- reduction -------------------------------------------------------

    def metrics(self, ready: float, end: float) -> dict[str, float]:
        """Per-layer metrics.  Inclusive span times cover the whole sample;
        self times are clipped to the verdict window [ready, end], so that
        the layers' self times add up to the traced verdict_s."""
        out = {name: 0.0 if name.endswith("_s") else 0 for name in metric_names()}
        children_clipped = [0.0] * len(self.spans)
        clipped = []
        for name, start, stop, parent in self.spans:
            c = max(0.0, min(stop, end) - max(start, ready))
            clipped.append(c)
            if parent >= 0:
                children_clipped[parent] += c
        covered = 0.0
        for i, (name, start, stop, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer + ".self_s"] += clipped[i] - children_clipped[i]
            if parent < 0:
                covered += clipped[i]
            if name + "_s" in out and not self._inside_same_name(i):
                out[name + "_s"] += stop - start
            if name + "_calls" in out:
                out[name + "_calls"] += 1
        out["bench.self_s"] += (end - ready) - covered
        for key in RESULT_COUNTS:
            out[key] = self.counts[key]
        calls = out["catalog.enumerate_calls"]
        out["catalog.enumerate_reuse"] = len(self._enumerated) / calls if calls else 0.0
        return out

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
