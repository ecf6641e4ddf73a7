"""Per-layer tracing by wrapping the library's public functions.

The tracer replaces each function in the table below with a wrapper at
every module attribute that refers to it, which is where ``indexing``,
``sampling`` and ``bruteforce`` look their callees up.  Nothing under
``src/`` changes and nothing is wrapped outside a traced pass.

Every call becomes a span (name, start, end, parent, op id), kept in
flat arrays and written out at the end.  Self time is a span's duration
minus the durations of its direct children.  Builtin ``pow`` calls made
by ``numbertheory`` are counted by shadowing that module's global name;
each span records how many happened inside it.
"""

from __future__ import annotations

import builtins
import functools
import gzip
import statistics
import time
from array import array

# (module, function, has wrapped callees).  The callee flag is static so
# every workload reports the same metric names.
LAYERS = (
    ("indexing", "parse_factorization", True),
    ("indexing", "FactoredModulus", True),
    ("indexing", "index_to_profile", True),
    ("indexing", "profile_to_residue", True),
    ("indexing", "residue_to_profile", True),
    ("indexing", "profile_to_index", True),
    ("indexing", "decode_index", True),
    ("indexing", "encode_residue", True),
    ("mixedradix", "pack", False),
    ("mixedradix", "unpack", False),
    ("numbertheory", "is_prime", False),
    ("numbertheory", "crt_combine", False),
    ("numbertheory", "sqrt_mod_prime", False),
    ("numbertheory", "hensel_lift_sqrt", False),
    ("numbertheory", "sqrt_mod_2k", False),
    ("sampling", "sample_residue_by_index", True),
    ("sampling", "draw_uniform", False),
    ("bruteforce", "factor_trial_division", True),
    ("bruteforce", "enumerate_qr", False),
    ("bruteforce", "certify_bijection", True),
)

OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {"import.qrindex.ms": "ms"}
    for module, name, has_callees in LAYERS:
        units[f"{module}.{name}.calls"] = "count"
        units[f"{module}.{name}.us"] = "us"
        if has_callees:
            units[f"{module}.{name}.self_us"] = "us"
    units.update({
        "numbertheory.pow.calls": "count",
        "numbertheory.pow.calls_per_encode": "count",
        "numbertheory.pow.calls_per_decode": "count",
        "sampling.draw_uniform.bits_per_call": "bits",
        "sampling.draw_uniform.accept_ratio": "1",
        "trace.spans": "count",
        "trace.ops_per_s": "1/s",
        "trace.untraced_ops_per_s": "1/s",
        "trace.overhead_ratio": "1",
        "trace.library_share": "1",
    })
    return units


class Tracer:
    def __init__(self, qr):
        self.qr = qr
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_pow = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.pow_calls = 0
        self.draw_bits = 0
        self.draw_attempts = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_pow.append(self.pow_calls)
        self.span_end.append(0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int):
        self.span_end[i] = time.perf_counter_ns()
        self.span_pow[i] = self.pow_calls - self.span_pow[i]
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def run_op(self, op_id: int, call, *args, root: str = OP_SPAN):
        """Run ``call(*args)`` as op ``op_id`` under one root span."""
        self.op_id = op_id
        i = self._open(self._name_id(root))
        try:
            return call(*args)
        finally:
            self._close(i)
            self.op_id = -1

    # -- installing --------------------------------------------------------

    def install(self):
        qr = self.qr
        sites = [qr.package, qr.indexing, qr.mixedradix, qr.numbertheory, qr.sampling, qr.bruteforce]
        for module, name, _ in LAYERS:
            if name == "FactoredModulus":
                cls = qr.indexing.FactoredModulus
                self._patch(cls, "__init__", self._wrap("indexing.FactoredModulus", cls.__init__))
                continue
            original = getattr(getattr(qr, module), name)
            fn = self._count_bits(original) if name == "draw_uniform" else original
            wrapper = self._wrap(f"{module}.{name}", fn)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, attr, wrapper)
        self._patch(qr.numbertheory, "pow", self._count_pow())

    def uninstall(self):
        while self._undo:
            obj, attr, had, old = self._undo.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    def _patch(self, obj, attr, value):
        had = attr in vars(obj)
        self._undo.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def _count_pow(self):
        real_pow = builtins.pow

        def counted_pow(*args):
            self.pow_calls += 1
            return real_pow(*args)

        return counted_pow

    def _count_bits(self, draw_uniform):
        @functools.wraps(draw_uniform)
        def counted(n, source, ledger):
            bits, attempts = ledger.bits_consumed, ledger.attempts
            try:
                return draw_uniform(n, source, ledger)
            finally:
                self.draw_bits += ledger.bits_consumed - bits
                self.draw_attempts += ledger.attempts - attempts

        return counted

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[int]:
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        selfs = list(duration)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                selfs[parent] -= duration[i]
        return selfs

    def unaccounted_ns(self, selfs) -> int:
        """Total gap between each op's root duration and the self times of
        the spans inside it; zero when every span nests in its parent."""
        op_root = self._ids.get(OP_SPAN)
        totals: dict[int, int] = {}
        roots: dict[int, int] = {}
        for i, op in enumerate(self.span_op):
            if op < 0:
                continue
            totals[op] = totals.get(op, 0) + selfs[i]
            if self.span_name[i] == op_root:
                roots[op] = self.span_end[i] - self.span_start[i]
        return sum(abs(totals[op] - roots.get(op, 0)) for op in totals)

    def layer_metrics(self, selfs) -> dict[str, float]:
        durations: dict[int, list[int]] = {}
        self_by: dict[int, list[int]] = {}
        pow_by: dict[int, int] = {}
        for i, nid in enumerate(self.span_name):
            durations.setdefault(nid, []).append(self.span_end[i] - self.span_start[i])
            self_by.setdefault(nid, []).append(selfs[i])
            pow_by[nid] = pow_by.get(nid, 0) + self.span_pow[i]

        def median_us(values):
            return statistics.median(values) / 1e3 if values else 0

        metrics: dict[str, float] = {}
        for module, name, has_callees in LAYERS:
            nid = self._ids.get(f"{module}.{name}", -1)
            metrics[f"{module}.{name}.calls"] = len(durations.get(nid, ()))
            metrics[f"{module}.{name}.us"] = median_us(durations.get(nid, ()))
            if has_callees:
                metrics[f"{module}.{name}.self_us"] = median_us(self_by.get(nid, ()))

        def per_call(layer):
            nid = self._ids.get(layer, -1)
            calls = len(durations.get(nid, ()))
            return pow_by.get(nid, 0) / calls if calls else 0

        draws = metrics["sampling.draw_uniform.calls"]
        metrics.update({
            "numbertheory.pow.calls": self.pow_calls,
            "numbertheory.pow.calls_per_encode": per_call("indexing.encode_residue"),
            "numbertheory.pow.calls_per_decode": per_call("indexing.decode_index"),
            "sampling.draw_uniform.bits_per_call": self.draw_bits / draws if draws else 0,
            "sampling.draw_uniform.accept_ratio": draws / self.draw_attempts if draws else 0,
            "trace.spans": len(self.span_name),
        })
        op_root = self._ids.get(OP_SPAN, -1)
        op_time = sum(durations.get(op_root, ()))
        glue = sum(self_by.get(op_root, ()))
        metrics["trace.library_share"] = (op_time - glue) / op_time if op_time else 0
        return metrics

    def write(self, path):
        """Write every span as gzipped CSV, one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,op,pow_calls\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]},"
                    f"{self.span_end[i]},{self.span_parent[i]},{self.span_op[i]},{self.span_pow[i]}\n"
                )
