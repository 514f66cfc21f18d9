"""Outside-in layer tracing for dsumm, installed from the benchmark's side.

The tracer replaces the layer-boundary functions of the package with timing
wrappers, and puts the originals back when it is closed.  Nothing under
`src/` knows about it.  A function imported by name into other modules has
one binding per module, and each module looks the name up in its own
globals, so every binding in every `dsumm` module is replaced.  Methods are
wrapped once, on their class.

Two kinds of boundary:

* span boundaries record one span each: name, start, end, parent span and
  job id;
* aggregate boundaries fire once per element or per row (scalar sequence
  and kernel entries, scalar expression evaluation, window tables, kernel
  rows).  The battery alone makes about half a million of them, so they are
  only counted and timed, in total and on their nearest enclosing span.

Every boundary keeps self time: its duration minus the time of the traced
calls made inside it.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import json
import sys
import weakref
from time import perf_counter

# (module, qualified name, boundary, span?)  A boundary groups functions
# whose calls and self time are summed into one per-layer figure.
BOUNDARIES = (
    ("dsumm.cli", "main", "cli.main", True),
    ("dsumm.battery", "run_all", "battery.run_all", True),
    ("dsumm.seqcore", "DoubleSequence.__call__", "seqcore.scalar", False),
    ("dsumm.seqcore", "window_mean", "seqcore.window_mean", False),
    ("dsumm.seqcore", "DoubleSequence.grid", "seqcore.grid", True),
    ("dsumm.seqcore", "padded_prefix", "seqcore.window_table", False),
    ("dsumm.seqcore", "window_sum_table", "seqcore.window_table", False),
    ("dsumm.seqcore", "sup_abs", "seqcore.norm", True),
    ("dsumm.seqcore", "norm_Cf", "seqcore.norm", True),
    ("dsumm.seqcore", "norm_strong", "seqcore.norm", True),
    ("dsumm.seqcore", "lq_norm", "seqcore.norm", True),
    ("dsumm.convergence", "p_limit", "convergence.verdict", True),
    ("dsumm.convergence", "bounded", "convergence.verdict", True),
    ("dsumm.convergence", "bp_limit", "convergence.verdict", True),
    ("dsumm.convergence", "r_limit", "convergence.verdict", True),
    ("dsumm.convergence", "almost_limit", "convergence.verdict", True),
    ("dsumm.convergence", "strong_almost_limit", "convergence.verdict", True),
    ("dsumm.convergence", "almost_cauchy", "convergence.verdict", True),
    ("dsumm.convergence", "membership", "convergence.verdict", True),
    ("dsumm.matrix4d", "FourDimMatrix.__call__", "matrix4d.entry", False),
    ("dsumm.matrix4d", "FourDimMatrix.block4", "matrix4d.block4", True),
    ("dsumm.matrix4d", "FourDimMatrix.row_block", "matrix4d.row_block", False),
    ("dsumm.matrix4d", "apply", "matrix4d.apply", True),
    ("dsumm.classcheck", "check_cbp_conservative", "classcheck.suite", True),
    ("dsumm.classcheck", "check_cbp_regular", "classcheck.suite", True),
    ("dsumm.classcheck", "check_strong_to_bp", "classcheck.suite", True),
    ("dsumm.classcheck", "check_almost_conservative", "classcheck.suite", True),
    ("dsumm.classcheck", "check_almost_regular", "classcheck.suite", True),
    ("dsumm.classcheck", "check_strongly_regular", "classcheck.suite", True),
    ("dsumm.classcheck", "check_strong_almost_to_almost", "classcheck.suite", True),
    ("dsumm.classcheck", "check_Cf_to_Mu", "classcheck.suite", True),
    ("dsumm.classcheck", "check_B_domain_class", "classcheck.suite", True),
    ("dsumm.classcheck", "dual_membership", "classcheck.dual", True),
    ("dsumm.classcheck", "beta_dual_report", "classcheck.dual", True),
    ("dsumm.classcheck", "gamma_dual_report", "classcheck.dual", True),
    ("dsumm.expr", "eval_expr", "expr.eval", False),
)

_MARK = "__perfbench_original__"


def is_wrapper(obj) -> bool:
    return hasattr(obj, _MARK)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dsumm" or name.startswith("dsumm."))]


def resolve(module: str, qualname: str):
    """The class (or module) that owns the boundary, and its attribute name."""
    owner = sys.modules[module]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def bindings_of(func) -> list:
    """Every (module, name) in the package whose global is `func`."""
    return [(m, name) for m in _package_modules()
            for name, value in list(vars(m).items()) if value is func]


def installed_wrappers() -> list:
    """Names of wrappers found anywhere in the package; empty when untraced."""
    found = []
    for m in _package_modules():
        for name, value in vars(m).items():
            if is_wrapper(value):
                found.append(f"{m.__name__}.{name}")
            elif isinstance(value, type):
                found += [f"{m.__name__}.{name}.{attr}"
                          for attr, member in vars(value).items() if is_wrapper(member)]
    return sorted(set(found))


class Span:
    __slots__ = ("sid", "name", "job", "parent", "start", "end", "agg")

    def __init__(self, sid, name, job, parent):
        self.sid, self.name, self.job, self.parent = sid, name, job, parent
        self.start = self.end = 0.0
        self.agg = {}

    def record(self) -> dict:
        return {"id": self.sid, "name": self.name, "job": self.job, "parent": self.parent,
                "start": self.start, "end": self.end,
                "agg": {k: {"calls": c, "seconds": s} for k, (c, s) in self.agg.items()}}


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self):
        self.job = None
        self.spans = []
        self.calls = {}        # boundary -> count
        self.self_s = {}       # boundary -> self seconds
        self.grid_cells = 0
        self.grid_hits = 0
        self.window_table_cells = 0
        self.block4_bytes = 0
        self.block4_max_bytes = 0
        self._frames = []      # open calls: [child seconds]
        self._open_spans = []
        self._in_eval = False
        self._grid_extent = weakref.WeakKeyDictionary()
        self._block_extent = weakref.WeakKeyDictionary()
        self._restore = []

    # -- bookkeeping -------------------------------------------------------

    def _enter(self):
        self._frames.append([0.0])
        return perf_counter()

    def _leave(self, boundary, t0):
        t1 = perf_counter()
        child = self._frames.pop()[0]
        dur = t1 - t0
        if self._frames:
            self._frames[-1][0] += dur
        self.calls[boundary] = self.calls.get(boundary, 0) + 1
        self.self_s[boundary] = self.self_s.get(boundary, 0.0) + dur - child
        return t1, dur

    def _span_wrapper(self, boundary, fn, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            note = before(*args, **kwargs) if before is not None else None
            parent = tracer._open_spans[-1].sid if tracer._open_spans else None
            span = Span(len(tracer.spans), boundary, tracer.job, parent)
            tracer.spans.append(span)
            tracer._open_spans.append(span)
            t0 = tracer._enter()
            span.start = t0
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                span.end, _ = tracer._leave(boundary, t0)
                tracer._open_spans.pop()
                if ok and note is not None:
                    note()

        return wrapper

    def _aggregate_wrapper(self, boundary, fn):
        tracer = self
        count_cells = boundary == "seqcore.window_table"

        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
                if count_cells:
                    tracer.window_table_cells += out.size
                return out
            finally:
                _, dur = tracer._leave(boundary, t0)
                if tracer._open_spans:
                    agg = tracer._open_spans[-1].agg
                    count, seconds = agg.get(boundary, (0, 0.0))
                    agg[boundary] = (count + 1, seconds + dur)

        return wrapper

    def _eval_wrapper(self, boundary, fn):
        # eval_expr recurses through its own module global, which is this
        # wrapper; only the outermost call is a boundary.
        timed = self._aggregate_wrapper(boundary, fn)
        tracer = self

        def wrapper(node, env):
            if tracer._in_eval:
                return fn(node, env)
            tracer._in_eval = True
            try:
                return timed(node, env)
            finally:
                tracer._in_eval = False

        return wrapper

    # -- cache and memory notes, tracked here instead of read from _cache --

    def _grid_note(self, seq, M, N):
        old = self._grid_extent.get(seq)
        if old is not None and M <= old[0] and N <= old[1]:
            self.grid_hits += 1
            return None
        bm = max(M, old[0]) if old else M
        bn = max(N, old[1]) if old else N

        def done():
            self._grid_extent[seq] = (bm, bn)
            self.grid_cells += (bm + 1) * (bn + 1)

        return done

    def _block_note(self, mat, K, L, I, J):
        want = (K, L, I, J)
        old = self._block_extent.get(mat)
        if old is not None and all(w <= o for w, o in zip(want, old)):
            return None
        dims = tuple(max(w, o) for w, o in zip(want, old)) if old else want

        def done():
            self._block_extent[mat] = dims
            cells = 1
            for d in dims:
                cells *= d + 1
            self.block4_bytes += 8 * cells
            self.block4_max_bytes = max(self.block4_max_bytes, 8 * cells)

        return done

    # -- install / restore -------------------------------------------------

    def _make(self, boundary, fn, span):
        if boundary == "expr.eval":
            return self._eval_wrapper(boundary, fn)
        if not span:
            return self._aggregate_wrapper(boundary, fn)
        before = {"seqcore.grid": self._grid_note, "matrix4d.block4": self._block_note}.get(boundary)
        return self._span_wrapper(boundary, fn, before)

    def __enter__(self):
        if installed_wrappers():
            raise RuntimeError("a tracer is already installed")
        try:
            for module, qualname, boundary, span in BOUNDARIES:
                owner, attr = resolve(module, qualname)
                original = vars(owner)[attr]
                wrapper = self._make(boundary, original, span)
                setattr(wrapper, _MARK, original)
                if isinstance(owner, type):
                    targets = [(owner, attr)]
                else:
                    targets = bindings_of(original)
                for target, name in targets:
                    setattr(target, name, wrapper)
                    self._restore.append((target, name, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()
        return False

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")
