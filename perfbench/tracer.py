"""Outside-in tracer for the enumerlab package.

Wraps every public name of each module (its ``__all__``, or its public
callables where it has none) and rebinds the wrapper wherever the package
bound the original, including ``from ... import`` copies such as
``listmatrix.prefix`` or ``check_budget`` in every module.  Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

Each wrapped call records a span: name, start, end, parent span and request
id, kept in flat in-memory arrays and written once by ``write``.  A call
that returns a generator (``paths_at_depth``, ``zigzag_walk``) also gets one
``.next`` span per item, so iteration is timed, not just the call.

A wrapped function that is already running calls the original directly, and
while it runs its own module name points at the original: recursion through
module globals (``dsl.eval_seq``) then costs no extra stack frame, so deep
programs hit ``RecursionError`` at the same nesting traced and untraced.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from array import array

LAYERS = (
    "pairing", "tree", "bitseq", "listmatrix", "diagonal",
    "dsl", "audit", "figures", "cli", "budget",
)

# span name -> counter it feeds, and the amount taken from (args, result)
COUNTERS = {
    "bitseq.prefix": ("bitseq.bits_requested", lambda a, r: a[1]),
    "bitseq.dyadic_bounds": ("bitseq.bits_requested", lambda a, r: a[1]),
    "bitseq.eq_prefix": ("bitseq.bits_requested", lambda a, r: 2 * a[2]),
    "bitseq.bit_at": ("bitseq.bits_requested", lambda a, r: 1),
    "diagonal.certificates": ("diagonal.certificates", lambda a, r: len(r)),
    "figures.render_figure": ("figures.svg_bytes", lambda a, r: len(r.encode())),
}
# span names whose results are kept so AST sizes can be counted afterwards
PARSERS = ("dsl.parse", "dsl.parse_seq", "dsl.parse_enum")


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n for n, v in vars(module).items()
            if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__
        ]
    return list(names)


def _wrappable(obj) -> bool:
    if isinstance(obj, type):
        return not issubclass(obj, BaseException)
    return isinstance(obj, types.FunctionType)


class Tracer:
    def __init__(self, package: str = "enumerlab"):
        self.modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        self.package = importlib.import_module(package)
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.fid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self.claim_spans: list[tuple[int, str]] = []
        self.asts: list = []
        self.req = 0
        self._stack = [-1]
        self._rebound: list[tuple[dict, str, object]] = []

    # -------------------------------------------------------------- install

    def install(self) -> None:
        wrappers = {}
        for layer, module in self.modules.items():
            for key in _public_names(module):
                obj = getattr(module, key)
                if _wrappable(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer, key, vars(module))
        for namespace in [vars(m) for m in self.modules.values()] + [vars(self.package)]:
            for key, obj in list(namespace.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((namespace, key, obj))
                    namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, obj in reversed(self._rebound):
            namespace[key] = obj
        self._rebound.clear()

    def _new_name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, layer: str, key: str, home: dict):
        name = f"{layer}.{key}"
        fid = self._new_name(name, layer)
        step_fid = self._new_name(f"{name}.next", layer)
        fids, starts, ends, parents, requests = (
            self.fid, self.start, self.end, self.parent, self.request)
        stack = self._stack
        now = time.perf_counter_ns
        counter = COUNTERS.get(name)
        keep_ast = name in PARSERS
        per_claim = name == "audit.run_claim"
        tracer = self
        running = [False]

        def wrapper(*args, **kwargs):
            if running[0]:
                return fn(*args, **kwargs)
            running[0] = True
            home[key] = fn
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            requests.append(tracer.req)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
                home[key] = wrapper
                running[0] = False
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, result)
            elif keep_ast:
                tracer.asts.append(result)
            elif per_claim:
                tracer.claim_spans.append((idx, args[0]))
            if type(result) is types.GeneratorType:
                return tracer._steps(result, step_fid)
            return result

        return wrapper

    def _steps(self, gen, fid: int):
        fids, starts, ends, parents, requests = (
            self.fid, self.start, self.end, self.parent, self.request)
        stack = self._stack
        now = time.perf_counter_ns
        while True:
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            requests.append(self.req)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                ends[idx] = now()
                stack.pop()
            yield item

    # -------------------------------------------------------------- results

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the time its child spans cover."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        covered = [0] * len(own)
        for idx, p in enumerate(parent):
            if p >= 0:
                covered[p] += own[idx]
        return [d - c for d, c in zip(own, covered)]

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_ms per layer, plus the named per-layer extras."""
        out: dict[str, float] = {f"{layer}.calls": 0 for layer in LAYERS}
        steps = {i for i, n in enumerate(self.names) if n.endswith(".next")}
        self_ns = self.self_times_ns()
        layer_ns = dict.fromkeys(LAYERS, 0)
        for idx, f in enumerate(self.fid):
            layer = self.layer_of[f]
            layer_ns[layer] += self_ns[idx]
            if f not in steps:
                out[f"{layer}.calls"] += 1
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_ns[layer] / 1e6
        out.update(self.counters)
        out["dsl.parse_ms"] = self._outermost_ms(PARSERS)
        out["dsl.eval_ms"] = self._outermost_ms(("dsl.eval_seq", "dsl.eval_enum"))
        out["dsl.ast_nodes"] = sum(_ast_nodes(a) for a in self.asts)
        out["figures.render_ms"] = self._outermost_ms(("figures.render_figure",))
        for claim in (f"C{i}" for i in range(1, 11)):
            out[f"audit.{claim}_ms"] = 0.0
        for idx, claim in self.claim_spans:
            out[f"audit.{claim}_ms"] += (self.end[idx] - self.start[idx]) / 1e6
        return out

    def _outermost_ms(self, names) -> float:
        """Time inside spans of `names`, not counting such spans nested in
        one another."""
        group = {i for i, n in enumerate(self.names) if n in names}
        total = 0
        for idx, f in enumerate(self.fid):
            p = self.parent[idx]
            if f in group and (p < 0 or self.fid[p] not in group):
                total += self.end[idx] - self.start[idx]
        return total / 1e6

    def write(self, path) -> None:
        """One JSON header line (span names, layers, count), then the five
        span arrays as raw native-endian 64-bit integers."""
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.start),
            "arrays": ["name", "start_ns", "end_ns", "parent", "request"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            array("q", self.fid).tofile(fh)
            for arr in (self.start, self.end, self.parent, self.request):
                arr.tofile(fh)


def _ast_nodes(ast) -> int:
    count, todo = 0, [ast]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.children)
    return count
