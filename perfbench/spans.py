"""Span tracing for the benchmark's traced runs.

The tracer replaces the public functions of each gancomm layer module, and
the public methods of the classes defined there, with wrappers that record
a span: name, start, end, parent span and thread. The package's modules
call each other through module and class attributes (``nn.forward``,
``gan.generate``, ``Trainer.train_gan_step``), so patching those
attributes sees every call between layers without changing any file under
``src/``. ``uninstall`` puts the original attributes back.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

LAYERS = ("nn", "gan", "train", "channel", "transceiver", "baseline",
          "evaluate", "checkpoint")

# nn entry points whose spans are named per network role, e.g. nn.forward.gen
_ROLE_FUNCTIONS = ("forward", "backward", "adam_step")


def net_dims(net) -> tuple[int, ...]:
    """Layer widths of a DenseNet, input first."""
    return (net.input_dim, *(layer.w.shape[1] for layer in net.layers))


class Tracer:
    """Records spans around every call into the gancomm layer modules.

    ``roles`` maps a net's layer widths (see ``net_dims``) to the role name
    used in its nn span names: tx, rx, gen or disc.
    """

    def __init__(self, roles: dict[tuple[int, ...], str]):
        self.roles = roles
        # (span id, parent id or -1, name, start, end, thread ident)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        # matmul flops of traced nn.forward and nn.backward calls
        self.matmul_flops = 0
        # (label, stop-rule point?, trials merged, trials drawn) per point
        self.points: list[tuple[str, bool, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._main_thread = threading.get_ident()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"gancomm.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(module, name, self._wrap_function(layer, name, obj))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        evaluate = importlib.import_module("gancomm.evaluate")
        self._patch(evaluate, "_run_point", self._wrap_run_point(evaluate._run_point))

    def _install_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._patch(cls, name, self.wrap(span, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._patch(cls, name, type(attr)(self.wrap(span, attr.__func__)))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block on this thread record no spans."""
        previous = getattr(self._local, "paused", False)
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = previous

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn):
        """Wrap fn so each call records a span. ``name`` is a string or a
        function of the call's positional arguments returning one."""
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(local, "paused", False):
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            label = name if isinstance(name, str) else name(args)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, label, start, end,
                              threading.get_ident()))

        return traced

    def _wrap_function(self, layer: str, name: str, fn):
        if layer != "nn" or name not in _ROLE_FUNCTIONS:
            return self.wrap(f"{layer}.{name}", fn)
        # forward costs one matmul per layer; backward two (weight and
        # input gradients); the flop count of each is 2 * batch * fan_in * fan_out
        matmuls = {"forward": 1, "backward": 2, "adam_step": 0}[name]

        def label(args):
            net = args[0]
            if matmuls:
                batch = args[1].shape[0] if name == "forward" else args[1].batch_size
                fans = sum(l.w.shape[0] * l.w.shape[1] for l in net.layers)
                self.matmul_flops += 2 * matmuls * batch * fans
            return f"nn.{name}.{self.roles.get(net_dims(net), 'other')}"

        return self.wrap(label, fn)

    def _wrap_run_point(self, run_point):
        """evaluate._run_point is private, but it is where a sweep point's
        shards are drawn: wrap its trial function so each shard is a span
        and the trials drawn can be set against the trials merged."""

        def traced_run_point(trial_fn, ebn0_db, spec, seed, label, point_index, workers):
            drawn = []

            def counted(n_trials, rng):
                drawn.append(n_trials)
                return trial_fn(n_trials, rng)

            shard = self.wrap(f"evaluate.shard.{label}.w{int(workers)}", counted)
            point = run_point(shard, ebn0_db, spec, seed, label, point_index, workers)
            stop_rule = spec.min_trials != spec.max_trials
            self.points.append((label, stop_rule, point.trials, sum(drawn)))
            return point

        return self.wrap("evaluate.run_point", traced_run_point)

    # -- summaries --------------------------------------------------------

    def call_ms(self) -> dict[str, np.ndarray]:
        """Call durations in ms by span name, from the thread that created
        the tracer.

        Pool threads that run sweep shards at workers=2 contend for the
        interpreter lock, so their spans are left out of call times.
        """
        out: dict[str, list[float]] = {}
        for _, _, name, start, end, thread in self.spans:
            if thread == self._main_thread:
                out.setdefault(name, []).append((end - start) * 1e3)
        return {name: np.array(values) for name, values in out.items()}

    def span_seconds(self, name: str, window: tuple[float, float]) -> float:
        """Total duration of spans with this name that start in window."""
        return sum(end - start for _, _, n, start, end, _ in self.spans
                   if n == name and window[0] <= start <= window[1])

    def layer_self_seconds(self, window: tuple[float, float]) -> dict[str, float]:
        """Self time per layer over the spans that start in window, summed
        over threads."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {layer: 0.0 for layer in LAYERS}
        for span_id, _, name, start, end, _ in self.spans:
            if window[0] <= start <= window[1]:
                layer = name.split(".", 1)[0]
                out[layer] += (end - start) - child_time.get(span_id, 0.0)
        return out
