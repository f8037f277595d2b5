"""Spans and counters for the traced mode of the benchmark.

Each layer is traced from outside the program: ``Tracer.install`` replaces a
curvelift function at every module attribute (and class attribute) through
which callers reach it with a wrapper that records one span per call, and
``Tracer.restore`` puts the originals back.  Counts are taken in the same
wrappers, so every ratio is measured at the layer boundary.

A span is (name, start, end, parent span, operation id).  Spans are kept in
memory, in flat arrays, and written out when the run ends.  Self time is a
span's length minus the time its child spans cover, accumulated as the calls
return, so the per-layer figures do not depend on the span cap.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute path, quantity taken from each call besides calls and s)
LAYERS = (
    ("moves", "equivalent_bounded", "certificate_moves"),
    ("moves", "applicable_moves", "moves_out"),
    ("moves", "apply_move", "inapplicable"),
    ("moves", "canonical_key", "distinct"),
    ("moves", "canonical_transform", None),
    ("moves", "invert_move", None),
    ("lifting", "lift_class", None),
    ("words", "conjugacy_class_key", None),
    ("diagrams", "shadow_word", None),
    ("diagrams", "parse", None),
    ("diagrams", "validate", None),
    ("snf", "smith_normal_form", "max_bits"),
    ("snf", "AbelianGroup.from_relation_matrix", None),
    ("homology", "bundle_h1", None),
    ("words", "dehn_reduce", "letters_in"),
    ("words", "cyclic_dehn_reduce", None),
    ("words", "conjugate_classes_equal", None),
    ("hnn", "britton_reduce", "t_letters_in"),
)

MAX_SPANS = 400_000
OP_SPAN = "op"


def _max_bits(result):
    return max((abs(x).bit_length() for mat in result for row in mat for x in row), default=0)


class LayerStats:
    __slots__ = ("calls", "self_s", "total_s", "quantity", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.quantity = 0
        self.keys = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.dropped = 0
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = -1

    # ------------------------------------------------------------------
    # spans

    def _name_id(self, name: str) -> int:
        if name not in self.stats:
            self.stats[name] = LayerStats()
            self.names.append(name)
        return self.names.index(name)

    def _enter(self, name_id: int):
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.span_start) < MAX_SPANS:
            span_id = len(self.span_start)
            self.span_name.append(name_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
        else:
            span_id = -1
            self.dropped += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, stats, t0, t1):
        self._stack.pop()
        duration = t1 - t0
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if frame[0] >= 0:
            self.span_start[frame[0]] = t0
            self.span_end[frame[0]] = t1

    def run_op(self, op_id: int, call):
        """Run one benchmark operation as the root span of its call tree."""
        self.op_id = op_id
        name_id = self._name_id(OP_SPAN)
        stats = self.stats[OP_SPAN]
        frame = self._enter(name_id)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self._exit(frame, stats, t0, time.perf_counter())

    # ------------------------------------------------------------------
    # wrapping

    def _wrapper(self, name, fn, quantity):
        name_id = self._name_id(name)
        stats = self.stats[name]
        if quantity == "distinct":
            stats.keys = set()
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, stats, t0, time.perf_counter())
                if quantity == "inapplicable" and type(exc).__name__ == "InapplicableMove":
                    stats.quantity += 1
                raise
            tracer._exit(frame, stats, t0, time.perf_counter())
            if quantity == "distinct":
                stats.keys.add(hash(result))
            elif quantity == "moves_out":
                stats.quantity += len(result)
            elif quantity == "max_bits":
                stats.quantity = max(stats.quantity, _max_bits(result))
            elif quantity == "letters_in":
                stats.quantity += len(args[0])
            elif quantity == "t_letters_in":
                stats.quantity += args[0].t_length
            elif quantity == "certificate_moves":
                stats.quantity += len(result.certificate or ())
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever a loaded curvelift module (or
        the package itself) holds a reference to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "curvelift" or n.startswith("curvelift.")]
        for module_name, path, quantity in LAYERS:
            name = f"{module_name}.{path}"
            owner = sys.modules[f"curvelift.{module_name}"]
            if "." in path:  # a classmethod on a class of the module
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrapper(name, original.__func__, quantity)
                self._patch(cls, attr, classmethod(wrapped), original)
                continue
            original = getattr(owner, path)
            wrapped = self._wrapper(name, original, quantity)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped, original)

    def _patch(self, holder, attr, new, original):
        setattr(holder, attr, new)
        self._patched.append((holder, attr, original))

    def restore(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # ------------------------------------------------------------------
    # output

    def dump(self, path: str) -> None:
        """Write the span records as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans={len(self.span_start)} dropped={self.dropped}\n")
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
