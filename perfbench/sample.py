"""One timed sample of a workload, run in a fresh interpreter.

    python3 perfbench/sample.py WORKLOAD MODE

MODE is "setup" (import and load only), "run" (the whole workload) or
"trace" (the whole workload with spans around every public call).  Prints
one JSON object: the monotonic times at which the records were ready and
the verdict was done, the peak resident set, and the outputs the parent
grades.  Each sample is a fresh interpreter because branchlab keeps three
caches for the life of a process (dgx._SPAN_CACHE, hilbert's lru_caches and
the per-record _symbol_cache in verify) that a CLI user pays for on every
invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import time
import traceback
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (the benchmark's own module, beside this file)

# Rational points at which each decomposition g + h·x = f is re-evaluated
# term by term, independently of the Poly arithmetic under test.
CHECK_POINTS = (
    (Fraction(2, 3), Fraction(-5, 7), Fraction(11, 5)),
    (Fraction(-3), Fraction(4), Fraction(1, 2)),
)


def _eval_terms(terms: dict, point) -> Fraction:
    x, y, z = point
    return sum((c * x ** a * y ** b * z ** e for (a, b, e), c in terms.items()), Fraction(0))


def _poly_digest(decomposed) -> str:
    digest = hashlib.sha256()
    for pair in decomposed:
        for poly in pair:
            digest.update(repr(sorted(poly.terms.items())).encode())
    return digest.hexdigest()


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter.  ru_maxrss is not used: Linux
    carries it over from the process that forked and exec'd this one, so it
    would report the runner's peak whenever that is the larger."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_cli(workload: str, mode: str, marks: dict) -> dict:
    from branchlab import catalog, cli

    if mode == "setup":
        catalog.load_default(max_n=workloads.MAX_N[workload])
        return {}
    tracer = None
    main = cli.main
    if mode == "trace":
        from tracing import Tracer

        cases = set(workloads.THETA_BOX[workload])
        tracer = Tracer()
        tracer.install(compile_filter=lambda r: str(r.id) in cases)
        main = tracer.wrap("cli.main", cli.main)
    out = io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(out):
            rc = main(workloads.CLI_ARGV[workload])
    except (Exception, SystemExit):
        error = traceback.format_exc()
    marks["end"] = time.monotonic()
    marks["end_cpu"] = time.process_time()
    result = {"rc": rc, "error": error, "report": out.getvalue()}
    if tracer is not None and "ready" in marks:
        result["trace"] = tracer.metrics(marks["ready_cpu"], marks["end_cpu"])
        result["spans"] = tracer.spans
    return result


def run_poly(mode: str, marks: dict) -> dict:
    from branchlab import catalog, dgx, verify

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    star = next(r for r in catalog.load_default(max_n=workloads.MAX_N["poly-model"]) if r.id.tag == "star")
    gens = dgx.subalgebra_generators()
    table = dgx.dgx_generators()
    marks["ready"] = time.monotonic()
    marks["ready_cpu"] = time.process_time()
    if mode == "setup":
        return {}
    if tracer is not None:
        tracer.compile([star])

    X, Y, Z = dgx.X, dgx.Y, dgx.Z
    members = {"z": Z, "x+y": X + Y, "xz+y": X * Z + Y, "xy": X * Y}
    outcomes: list[str] = []  # "ok", "wrong" (verdict differs) or "error" (no verdict)

    def item(fn):
        try:
            outcomes.append("ok" if fn() else "wrong")
        except Exception:
            outcomes.append("error")

    for name in workloads.MEMBERS:
        item(lambda: dgx.membership(members[name], gens, 4) is not None)
    item(lambda: dgx.membership(X, gens, 4) is None)
    item(lambda: dgx.x_not_in_R_witness().passed)
    decomposed = []
    monomials = workloads.decompose_monomials()
    for a, b, c in monomials:
        def decompose():
            f = X ** a * Y ** b * Z ** c
            g, h = dgx.decompose_R_plus_Rx(f, workloads.DECOMPOSE_DEGREE)
            decomposed.append((g, h))
            return g + h * X == f

        item(decompose)
    thetas = star.theta.enumerate(workloads.BOUND["poly-model"])
    cross = tracer.span("dgx.cross_eval") if tracer is not None else contextlib.nullcontext()
    with cross:
        for g_name, symbol in workloads.CROSS_PAIRS:
            item(
                lambda: all(
                    table[g_name].evaluate((t[0] + 3) ** 2, (t[1] + 3) ** 2, (t[2] + 3) ** 2)
                    == verify.evaluate_generator(star, symbol, t)
                    for t in thetas
                )
            )
    marks["end"] = time.monotonic()
    marks["end_cpu"] = time.process_time()

    # Untimed: re-check each decomposition without the Poly arithmetic.
    first = len(workloads.MEMBERS) + 2  # outcomes index of the first decomposition
    if len(decomposed) == len(monomials):
        for i, ((a, b, c), (g, h)) in enumerate(zip(monomials, decomposed)):
            for point in CHECK_POINTS:
                x, y, z = point
                exact = _eval_terms(g.terms, point) + _eval_terms(h.terms, point) * x
                if exact != x ** a * y ** b * z ** c and outcomes[first + i] == "ok":
                    outcomes[first + i] = "wrong"
    result = {"outcomes": outcomes, "digest": _poly_digest(decomposed)}
    if tracer is not None:
        result["trace"] = tracer.metrics(marks["ready_cpu"], marks["end_cpu"])
        result["spans"] = tracer.spans
    return result


def main(argv) -> int:
    workload, mode = argv
    if workload not in workloads.WORKLOADS or mode not in ("setup", "run", "trace"):
        print("usage: sample.py {%s} {setup,run,trace}" % ",".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    marks: dict = {}
    if workload == "poly-model":
        result = run_poly(mode, marks)
    else:
        from branchlab import catalog

        load = catalog.load_default

        def marked_load(*args, **kwargs):
            records = load(*args, **kwargs)
            marks["ready"] = time.monotonic()
            marks["ready_cpu"] = time.process_time()
            return records

        catalog.load_default = marked_load
        result = run_cli(workload, mode, marks)
    result.update(marks)
    result["rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
