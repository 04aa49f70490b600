"""Compiled loop nests: the one writer of the box pass's per-point walks.

``source`` writes a kernel as Python source, one ``for`` per coordinate with
the bounds of its limits, the values of stacked integer rows and of sums and
folds carried down the depth, and the lines a caller writes at each depth;
``kernel`` compiles it once per source under a name a profile shows.
``verify`` writes two kernels per case with it: the theta kernel, and the pi
kernel over the pi box and each pi's fiber polytope; the per-point kernels
of ``weights``, ``catalog`` and ``affine_kernel`` are ``def _c0`` sources
that ``kernel``, the package's one compiler, compiles too.  The helpers on
integer rows (((index, coefficient), ...), offset) compose and reduce the
rows a kernel reads.

``always`` is the rule by which a writer leaves a per-point test out of a
kernel's source: a test that holds at every point the loops reach,
whatever the bound.  It decides a congruence whose modulus divides the
row, and a sign or box test that the loops' own ranges prove; it is sound
because every point a kernel reaches lies within every loop's range.  A
test it cannot prove stays as it is.  A row value that no line of a source
reads is not written.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
import zlib
from fractions import Fraction

from .linalg import int_affine_source


# Coordinates per generated function of a kernel: CPython compiles at most
# 20 statically nested blocks, so a deeper loop nest is split into a chain of
# functions, each called from the innermost loop of the one before.
CHUNK = 16


def tuple_source(items) -> str:
    return "(%s,)" % ", ".join(items) if items else "()"


def depth(row) -> int:
    """The depth at which a row is final: one past its last column."""
    return max((i + 1 for i, c in row[0] if c), default=0)


def source(coords, conds, args: str, accs, rows, sums, folds, at) -> str:
    """The source of a kernel, ``_c0(args)``: one ``for`` per coordinate of
    ``coords``, in order, returning the tuple of the locals ``accs``, each
    0 at the start.  The one writer of the box pass's compiled walks.

    coords[t] is (lo, hi, limits): coordinate t, the local vt, runs from the
    maximum of lo·bound and the lower bounds of ``limits`` to the minimum of
    hi·bound and their upper bounds, ``bound`` being an argument of the
    kernel; limits has the format of ``ParamSpace.limits``, and lo or hi is
    None where only the limits bound it.  Fresh locals follow the
    coordinates.  At depth d, once d coordinates are placed, the body
    tests the sources conds[d], then runs the lines ``at`` writes for d: some
    before the loops below d, some after them.

    Each distinct row of ``rows``, the stacked integer matrix [(((index,
    coefficient), ...), offset)], has its value carried down the depth,
    updated where each of its columns is placed.  Each sum term (row index,
    memo), the memo passed in the argument ``memos`` and mapping a row value
    to one addend per slot of its ``polys`` (``verify._RowSums``), is added
    where its row is final, so a point pays only for the rows it makes
    final.  A term adds
    into the slots whose polynomial is not empty only, so the K totals are
    final where their last term is.  Each fold (op, terms) of ``folds``, op
    "*" or "and" and terms [(row, template)], is carried the same way: where
    a term's row, (((index, coefficient), ...), offset) like a stacked one,
    is final, the fold takes op with the template filled with the row's
    expression in the coordinates.  A fold's rows are not stacked: each is
    written once, where it is final.

    ``at(d, value, totals, folds)`` gets the sources of the value of the
    stacked row of each index, of the K totals ("0" for a total no term
    reaches) and of each fold ("1" or "True" for one no term reaches) at
    depth d, and returns (before, after, names): two lists of lines, and the
    locals the lines before assign that the lines below read or assign.
    After every ``CHUNK`` coordinates the loop body calls the next function
    of the chain with each local still live, and takes back ``accs`` and
    those named locals."""
    n = len(coords)
    memos = [memo for _, memo in sums]
    final: list[list] = [[] for _ in range(n + 1)]
    for j, (r, _) in enumerate(sums):
        final[depth(rows[r])].append((r, j))
    fold_final: list[list] = [[] for _ in range(n + 1)]
    for f, (_, terms) in enumerate(folds):
        for row, template in terms:
            fold_final[depth(row)].append((f, template % int_affine_source("v%d", *row)))
    fresh = itertools.count(n)
    # per distinct row: the index of the local holding its value, or None
    # and its offset while none of its columns is placed
    current = {row: (None, row[1]) for row in rows}
    cols: list[list] = [[] for _ in range(n)]
    for row in current:
        for i, c in row[0]:
            cols[i].append((row, c))
    totals: list = [None] * (len(memos[0].polys) if memos else 0)
    carried: list = [None] * len(folds)
    named: list = []
    functions: list = []

    # the locals of row values that a line reads, and per line that updates
    # a row's value, its local: (the line, the local it updates or None)
    read: set = set()
    updates: dict = {}

    def value(row) -> str:
        at_, off = current[row]
        if at_ is None:
            return "%d" % off
        read.add(at_)
        return "v%d" % at_

    def place(d) -> list:
        # the lines once d coordinates are placed: the rows with a column at
        # d - 1, then the sum terms and the fold terms final at d
        out = []
        for row, c in cols[d - 1] if d else ():
            at_, off = current[row]
            if at_ is None and off == 0 and c == 1:
                current[row] = (d - 1, 0)  # the coordinate itself
                continue
            terms = ((d - 1, c),) if at_ is None else ((at_, 1), (d - 1, c))
            current[row] = (next(fresh), 0)
            out.append("v%d = %s" % (current[row][0], int_affine_source("v%d", terms, off)))
            updates[current[row][0]] = (out[-1], at_)
        for r, j in final[d]:
            got = "m%d[%s]" % (j, value(rows[r]))
            slots = [k for k, poly in enumerate(memos[j].polys) if poly]
            if len(slots) > 1:
                q = "v%d" % next(fresh)
                out.append("%s = %s" % (q, got))
                got = q
            for k in slots:
                new = "v%d" % next(fresh)
                out.append("%s = %s%s[%d]" % (new, totals[k] + " + " if totals[k] else "", got, k))
                totals[k] = new
        written: dict = {}  # a fold's expression at d, and its local
        for f, (op, _) in enumerate(folds):
            parts = [term for g, term in fold_final[d] if g == f]
            if not parts:
                continue
            if carried[f]:
                parts.insert(0, carried[f])
            expr = (" %s " % op).join(parts)
            if expr not in written:
                written[expr] = "v%d" % next(fresh)
                out.append("%s = %s" % (written[expr], expr))
            carried[f] = written[expr]
        return out

    def head(k) -> tuple:
        # the first lines of the function for the coordinates from k, the
        # locals it takes from the function before, and those it gives back
        live = {"v%d" % i for i in range(k)}
        read.update(at_ for at_, _ in current.values() if at_ is not None)
        live |= {"v%d" % at_ for at_, _ in current.values() if at_ is not None}
        live |= {t for t in totals + carried if t}
        live = sorted(live, key=lambda v: int(v[1:]))
        threaded = list(accs) + named
        params = ", ".join([args] + live + threaded if k else [args])
        if k + CHUNK < n:
            params += ", _next=_c%d" % (k // CHUNK + 1)
        lines = ["def _c%d(%s):" % (k // CHUNK, params)]
        if memos:
            lines.append("    %s, = memos" % ", ".join("m%d" % j for j in range(len(memos))))
        return lines, live, threaded

    def for_line(d) -> str:
        lo, hi, limits = coords[d]
        los = [] if lo is None else [_times_bound(lo)]
        his = [] if hi is None else [_times_bound(hi)]
        for a, prefix, const in limits:
            rest = int_affine_source("v%d", prefix, const)
            if a > 0:
                los.append("-" + rest if a == 1 else "-(%s // %d)" % (rest, a))
            else:
                his.append(rest if a == -1 else "%s // %d" % (rest, -a))
        if not los or not his:
            raise ValueError("coordinate %d of a kernel is unbounded" % d)
        lo = los[0] if len(los) == 1 else "max(%s)" % ", ".join(los)
        hi = his[0] if len(his) == 1 else "min(%s)" % ", ".join(his)
        return "for v%d in range(%s, %s + 1):" % (d, lo, hi)

    def emit(d, out, pad) -> None:
        out += [pad + line for line in place(d)]
        if conds[d]:
            out.append(pad + "if %s:" % " and ".join(conds[d]))
            pad += "    "
        fold_values = [c or ("1" if op == "*" else "True") for c, (op, _) in zip(carried, folds)]
        before, after, names = at(
            d, lambda r: value(rows[r]), [t or "0" for t in totals], fold_values
        )
        out += [pad + line for line in before]
        named.extend(names)
        if d < n:
            saved = dict(current), list(totals), list(carried)
            if d and d % CHUNK == 0:
                lines, live, threaded = head(d)
                call = "%s, = _next(%s)" % (", ".join(threaded), ", ".join([args] + live + threaded))
                out.append(pad + call)
                lines.append("    " + for_line(d))
                emit(d + 1, lines, "        ")
                functions.append(lines + ["    return %s" % tuple_source(threaded)])
            else:
                out.append(pad + for_line(d))
                emit(d + 1, out, pad + "    ")
            current.clear()
            current.update(saved[0])
            totals[:], carried[:] = saved[1], saved[2]
        out += [pad + line for line in after]
        del named[len(named) - len(names) :]

    out, _, _ = head(0)
    out.insert(1, "    %s = 0" % " = ".join(accs))
    emit(0, out, "    ")
    emit = None  # the recursive closure refers to itself: drop that cycle
    functions.append(out + ["    return %s" % tuple_source(accs)])
    # a row value that no line reads, nor an update that is read, is dropped
    for local in sorted(updates, reverse=True):
        if local in read and updates[local][1] is not None:
            read.add(updates[local][1])
    dead = {line for local, (line, _) in updates.items() if local not in read}
    return "".join(line + "\n" for f in functions for line in f if line.lstrip() not in dead)


def _times_bound(k: int) -> str:
    return {0: "0", 1: "bound", -1: "-bound"}.get(k, "%d * bound" % k)


def always(coords):
    """The rule by which a kernel's writer leaves a per-point test out of
    the source: the function (row, mod=0, k=0) ↦ whether the test on the
    integer row (((index, coefficient), ...), offset) holds at every point
    that a loop nest over ``coords`` (``source``'s) reaches, whatever the
    bound >= 0: row % mod == 0 when mod > 0, else row + k·bound >= 0.
    Where it cannot tell, it says False and the test stays.

    A congruence holds where mod divides every coefficient and the offset.
    An inequality holds where its least value on the coordinates' intervals
    (``_intervals``) is α·bound + β with α, β >= 0, either as it is or after
    one step that eliminates its last coordinate t, whose coefficient is c:
    for a bound a·vt + rest >= 0 of t (a limit, lo or hi) with a of c's
    sign, |a|·row - |c|·(a·vt + rest) has no vt, and where it is >= 0, so
    is |a|·row, since the bound is.  Every point the nest reaches lies
    within every loop's range, so a test proved so cannot fail there."""
    intervals = _intervals(coords)

    def nonnegative(coeffs, kb, off) -> bool:
        least = _least(coeffs, kb, off, intervals)
        return least is not None and least[0] >= 0 and least[1] >= 0

    def holds(row, mod: int = 0, k: int = 0) -> bool:
        coeffs, off = row
        if mod:
            return off % mod == 0 and all(c % mod == 0 for _, c in coeffs)
        coeffs = {i: c for i, c in coeffs if c}
        if nonnegative(coeffs, k, off):
            return True
        if not coeffs:
            return False
        t = max(coeffs)
        c = coeffs[t]
        for a, prefix, kb, const in _bounds(coords[t]):
            if (a > 0) == (c > 0):
                rest = {i: abs(a) * x for i, x in coeffs.items() if i != t}
                for i, x in prefix:
                    rest[i] = rest.get(i, 0) - abs(c) * x
                if nonnegative(rest, abs(a) * k - abs(c) * kb, abs(a) * off - abs(c) * const):
                    return True
        return False

    return holds


def _bounds(coord) -> list:
    """The bounds a·vt + (row of prefix) + kb·bound + const >= 0 of a
    coordinate of ``source``'s coords, as (a, prefix, kb, const): lo and
    hi, then the limits."""
    lo, hi, limits = coord
    out = [] if lo is None else [(1, (), -lo, 0)]
    out += [] if hi is None else [(-1, (), hi, 0)]
    return out + [(a, prefix, 0, const) for a, prefix, const in limits]


def _least(coeffs: dict, kb, off, intervals):
    """The least value of sum(c·vi) + kb·bound + off on the intervals, as
    (α, β) for α·bound + β, or None where it reads an open end."""
    alpha, beta = kb, off
    for i, c in coeffs.items():
        end = intervals[i][0 if c > 0 else 1]
        if end is None:
            return None
        alpha += c * end[0]
        beta += c * end[1]
    return alpha, beta


def _intervals(coords) -> list:
    """Per coordinate, (low, high): ends α·bound + β, as (α, β), within
    which it lies at every point the nest reaches, or None for an open end.
    A bound a·vt + rest >= 0 bounds vt by (least of -rest) / a, below when
    a > 0 and above otherwise; of several ends one keeps the first unless a
    later one is tighter for every bound >= 0."""
    out: list = []
    for coord in coords:
        ends = [None, None]
        for a, prefix, kb, const in _bounds(coord):
            least = _least({i: -x for i, x in prefix}, -kb, -const, out)
            if least is None:
                continue
            # a is ±1 but where a limit's last coefficient is larger
            end = tuple(x * a if abs(a) == 1 else Fraction(x) / a for x in least)
            side, sign = (0, 1) if a > 0 else (1, -1)
            old = ends[side]
            if old is None or (sign * end[0] >= sign * old[0] and sign * end[1] >= sign * old[1]):
                ends[side] = end
        out.append(tuple(ends))
    return out


def returning(arg: str, expr: str, lines=()) -> str:
    """The source of a one-function kernel ``_c0(arg)`` that runs ``lines``
    and returns ``expr``."""
    body = ["    " + line for line in (*lines, "return " + expr)]
    return "".join(line + "\n" for line in ["def _c0(%s):" % arg] + body)


# The globals dict of each ``names``, and the first kernel compiled from
# each (source text, names).
_GLOBALS: dict = {}
_FIRST: dict = {}


@functools.cache
def kernel(text: str, name: str, names: tuple = ()):
    """The function ``_c0`` that the source ``text`` defines, under the
    file name ``<NAME>``, such as ``<theta kernel iv[n=3]>``, so that a
    profile lists each kernel on its own: the package's one compiler.  A
    kernel reads the builtins and the functions of ``names``, each under its
    ``__name__``, from one globals dict per ``names``.  A text is compiled
    once: another name for it, such as an alias case's, gets a copy of the
    first kernel's functions under its own file name.  Each function of a
    chain holds the next as a default argument, so the kernel makes no
    reference cycle."""
    filename = "<%s>" % name
    first = _FIRST.get((text, names))
    if first is not None:
        return _renamed(first, filename)
    namespace = _GLOBALS.setdefault(names, {f.__name__: f for f in names})  # exec adds the builtins
    functions: dict = {}
    exec(compile(text, filename, "exec"), namespace, functions)
    first = _FIRST[text, names] = functions["_c0"]
    return first


def _renamed(fn, filename: str):
    """A copy of a kernel function and of the chain after it, whose code
    carries the file name ``filename``."""
    defaults = fn.__defaults__
    if defaults:  # the next function of the chain
        defaults = (_renamed(defaults[0], filename),)
    code = fn.__code__.replace(co_filename=filename)
    return types.FunctionType(code, fn.__globals__, fn.__name__, defaults)


def digest(text: str) -> str:
    """A short digest of a source text: the key under which a kernel shared
    by content, such as one per row tuple, is named."""
    return "%08x" % zlib.crc32(text.encode())


@functools.cache
def affine_kernel(rows: tuple):
    """params ↦ the tuple of the values at params of the integer rows
    (((index, coefficient), ...), offset), compiled once per row tuple
    under ``<affine kernel DIGEST>``."""
    text = returning("p", tuple_source([int_affine_source("p[%d]", *row) for row in rows]))
    return kernel(text, "affine kernel " + digest(text))


def reduced(row, g: int = 0):
    """The row divided by the gcd of its entries and g, and that divisor,
    which is positive (1 for a zero row)."""
    coeffs, off = row
    d = math.gcd(g, off, *(c for _, c in coeffs)) or 1
    return (tuple((i, c // d) for i, c in coeffs), off // d), d


def compose(outer, inner) -> list:
    """The integer rows of outer ∘ inner: outer's rows index inner's."""
    out = []
    for coeffs, off in outer:
        acc: dict = {}
        for k, a in coeffs:
            row, inner_off = inner[k]
            off += a * inner_off
            for j, b in row:
                acc[j] = acc.get(j, 0) + a * b
        out.append((tuple(sorted((j, x) for j, x in acc.items() if x)), off))
    return out
