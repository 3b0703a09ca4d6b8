"""Spans around the public entry points of each layer, from outside ``src/``.

The program has no tracing of its own yet, so the traced run patches
the public methods it measures with thin wrappers (and restores them
afterwards).  Each span adds its duration to the call count and total
time kept per span name.

Span names are ``<layer>.<module>.<call>``; the layer is the package
under ``repro`` (``core``, ``cluster``, ``service``, ``continuous``,
``reliability``, ``datasets``).
"""

import contextlib
import threading
import time
from collections import defaultdict

#: The layers (and modules) traced runs record spans or counts for, as
#: span-name prefixes; the self-test asserts that the three workloads
#: together cover them.  ``core.collective`` is left out: its spans
#: appear only when concurrent requests happen to coalesce, which a
#: tiny run cannot promise.
LAYERS = (
    "datasets",
    "core.tar_tree",
    "core.knnta",
    "core.frames",
    "cluster.coordinator",
    "cluster.remote",
    "cluster.workers",
    "cluster.resilience",
    "service.service",
    "continuous.registry",
    "reliability.recovery",
)


class Tracer:
    """Span and counter recorder; inert until :meth:`enable`."""

    def __init__(self):
        self.enabled = False
        #: ``name -> [count, seconds]`` over every finished span.
        self.totals = defaultdict(lambda: [0, 0.0])
        #: ``name -> number`` for counts recorded at the same boundaries.
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._patches = []

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                total = self.totals[name]
                total[0] += 1
                total[1] += elapsed

    def count(self, name, amount=1):
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def seconds(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def mean_ms(self, name):
        calls = self.calls(name)
        return 1000.0 * self.seconds(name) / calls if calls else 0.0

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` by ``make_wrapper(original)`` until
        :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, make_wrapper(original))

    def timed(self, owner, attr, name):
        """Patch ``owner.attr`` to run inside a span called ``name``."""
        tracer = self

        def make_wrapper(original):
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                with tracer.span(name):
                    return original(*args, **kwargs)

            return traced

        self.patch(owner, attr, make_wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def layers(self):
        """``{layer/module prefix: spans + counts}`` recorded under it."""
        seen = defaultdict(int)
        recorded = [(name, calls) for name, (calls, _s) in self.totals.items()]
        for name, amount in recorded + list(self.counts.items()):
            parts = name.split(".")
            seen[parts[0]] += amount
            seen[".".join(parts[:2])] += amount
        return dict(seen)
