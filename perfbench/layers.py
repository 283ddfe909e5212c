"""Per-layer attribution of a profiled run.

A layer is named by its module path under ``repro``.  Every module of
``src/repro`` belongs to exactly one layer (:data:`LAYER_MODULES`);
the benchmark's own files are the ``client`` layer, because the code
they run inside the measurement window is the client side of the
traffic.  Code outside both (the standard library and builtins such as
``struct``, ``heapq`` or ``list.append``) is charged to the layer that
called it.

The profile comes from :mod:`cProfile`, which records for every
function its call count, self time and cumulative time, split by
caller.  From that:

- a layer's **self time** is the self time of its functions, plus the
  self time of foreign functions they called;
- a layer's **calls** are the calls into its functions whose caller is
  in another layer.
"""

import os

#: layer -> the modules that make it up (``repro`` is the package root).
LAYER_MODULES = {
    "sim": ["repro.sim", "repro.sim.context", "repro.sim.cpu",
            "repro.sim.engine", "repro.sim.units"],
    "net.tcp": ["repro.net.tcp"],
    "net.homa": ["repro.net.homa"],
    "net.http": ["repro.net.http"],
    "net.stack": ["repro.net", "repro.net.stack"],
    "net.nic": ["repro.net.nic"],
    "net.fabric": ["repro.net.fabric"],
    "net.headers": ["repro.net.headers"],
    "net.checksum": ["repro.net.checksum"],
    "net.pool": ["repro.net.pool"],
    "net.pktbuf": ["repro.net.pktbuf"],
    "net.rbtree": ["repro.net.rbtree"],
    "pm.device": ["repro.pm", "repro.pm.device", "repro.pm.constants"],
    "pm.cache": ["repro.pm.cache"],
    "pm.alloc": ["repro.pm.alloc"],
    "pm.namespace": ["repro.pm.namespace"],
    "storage.skiplist": ["repro.storage.skiplist"],
    "storage.lsm": ["repro.storage.lsm", "repro.storage.sstable",
                    "repro.storage.bloom", "repro.storage.wal",
                    "repro.storage.blockdev"],
    "storage.engines": ["repro.storage.engines"],
    "storage.kvserver": ["repro.storage", "repro.storage.kvserver",
                         "repro.storage.server"],
    "core.pktstore": ["repro.core", "repro.core.pktstore",
                      "repro.core.recovery", "repro.core.api",
                      "repro.core.pktfs"],
    "core.ppktbuf": ["repro.core.ppktbuf"],
    "core.overload": ["repro.core.overload"],
    "cluster.replication": ["repro.cluster", "repro.cluster.replication",
                            "repro.cluster.backoff"],
    "cluster.topology": ["repro.cluster.topology"],
    "cluster.hashring": ["repro.cluster.hashring"],
    "obs": ["repro.obs", "repro.obs.cli", "repro.obs.registry",
            "repro.obs.stages", "repro.obs.tdigest", "repro.obs.trace"],
    "bench.costmodel": ["repro.bench.costmodel"],
    "client": ["repro.bench.wrk", "repro.bench.openloop",
               "repro.bench.workloads"],
    # Harnesses and offline tools: never on a measured path, mapped so
    # that any of their work inside a window still shows up.
    "tools": ["repro", "repro.bench", "repro.bench.testbed",
              "repro.bench.soak", "repro.bench.speed", "repro.bench.table1",
              "repro.bench.figure2", "repro.bench.report",
              "repro.analysis", "repro.analysis.autofix",
              "repro.analysis.cli", "repro.analysis.findings",
              "repro.analysis.interproc", "repro.analysis.pmlint",
              "repro.analysis.pmsan", "repro.analysis.rules",
              "repro.analysis.rules_interproc", "repro.analysis.sarif",
              "repro.capture", "repro.capture.cli", "repro.capture.format",
              "repro.capture.replay", "repro.capture.tap",
              "repro.testing", "repro.testing.chaos",
              "repro.testing.chaos_cluster", "repro.testing.cli",
              "repro.testing.events", "repro.testing.harness",
              "repro.testing.journal", "repro.testing.oracle",
              "repro.testing.record", "repro.testing.replay",
              "repro.testing.workloads"],
}

LAYERS = tuple(LAYER_MODULES)

MODULE_LAYER = {module: layer for layer, modules in LAYER_MODULES.items()
                for module in modules}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def module_of(path, src_root):
    """Dotted module name of a file under ``src_root``, else None."""
    rel = os.path.relpath(os.path.abspath(path), src_root)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def source_modules(src_root):
    """{module: path} for every ``.py`` file of the ``repro`` package."""
    found = {}
    for dirpath, _dirs, files in os.walk(os.path.join(src_root, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                found[module_of(path, src_root)] = path
    return found


def check_map(src_root):
    """Problems with :data:`LAYER_MODULES` against the source tree."""
    problems = []
    listed = [m for modules in LAYER_MODULES.values() for m in modules]
    for module in sorted({m for m in listed if listed.count(m) > 1}):
        problems.append(f"{module} is mapped to more than one layer")
    present = source_modules(src_root)
    for module in sorted(set(present) - set(MODULE_LAYER)):
        problems.append(f"{module} is not mapped to a layer")
    for module in sorted(set(MODULE_LAYER) - set(present)):
        problems.append(f"{module} is mapped but does not exist")
    return problems


def line_counts(src_root):
    """{layer: source lines} over the layer's modules."""
    present = source_modules(src_root)
    counts = dict.fromkeys(LAYERS, 0)
    for module, path in present.items():
        layer = MODULE_LAYER.get(module)
        if layer is not None:
            with open(path, encoding="utf-8") as handle:
                counts[layer] += sum(1 for _ in handle)
    return counts


class Attribution:
    """Layer totals of one :class:`pstats.Stats` profile."""

    def __init__(self, stats, src_root):
        self._stats = stats.stats
        self._src_root = src_root
        self._layer = {}
        self._weights = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls_in = dict.fromkeys(LAYERS, 0.0)
        for func, (_cc, _nc, tt, _ct, callers) in self._stats.items():
            layer = self.layer_of(func)
            if layer is None:
                charged = 0.0
                for caller, edge in callers.items():
                    self._charge(caller, edge[2])
                    charged += edge[2]
                if tt > charged:
                    self._charge(func, tt - charged)
                continue
            self.self_s[layer] += tt
            for caller, edge in callers.items():
                for other, share in self.weights(caller).items():
                    if other != layer:
                        self.calls_in[layer] += edge[1] * share

    def layer_of(self, func):
        """The layer of a profiled function; None for foreign code."""
        if func not in self._layer:
            path = func[0]
            layer = None
            if os.path.dirname(os.path.abspath(path)) == BENCH_DIR:
                layer = "client"
            elif path.endswith(".py"):
                module = module_of(path, self._src_root)
                if module is not None:
                    layer = MODULE_LAYER.get(module, "tools")
            self._layer[func] = layer
        return self._layer[func]

    def weights(self, func, _active=None):
        """{layer: share} the work of ``func`` is charged to.

        A foreign function inherits the layers of its callers, weighted
        by the cumulative time each caller spent in it.  One without a
        profiled caller was called by the benchmark frame that switched
        the profiler on, so it is charged to ``client``.
        """
        layer = self.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._weights:
            return self._weights[func]
        active = _active if _active is not None else set()
        if func in active or func not in self._stats:
            return {}
        active.add(func)
        totals = {}
        callers = self._stats[func][4]
        use_time = any(edge[3] > 0 for edge in callers.values())
        for caller, edge in callers.items():
            amount = edge[3] if use_time else edge[1]
            for other, share in self.weights(caller, active).items():
                totals[other] = totals.get(other, 0.0) + amount * share
        active.discard(func)
        whole = sum(totals.values())
        result = {k: v / whole for k, v in totals.items()} if whole \
            else {"client": 1.0}
        self._weights[func] = result
        return result

    def _charge(self, func, amount):
        for layer, share in self.weights(func).items():
            self.self_s[layer] += amount * share

    def calls(self, path_suffix, name):
        """Calls of the function ``name`` defined in a file ending with
        ``path_suffix`` (0 if it never ran)."""
        return sum(entry[1] for func, entry in self._stats.items()
                   if func[2] == name and func[0].endswith(path_suffix))

    def cumulative_s(self, path_suffix, name):
        """Cumulative time in that function, callees included."""
        return sum(entry[3] for func, entry in self._stats.items()
                   if func[2] == name and func[0].endswith(path_suffix))
