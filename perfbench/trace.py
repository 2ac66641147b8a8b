"""Span tracing of mrfrecon from outside the package.

``Tracer.install`` wraps every public function and public method of each
``mrfrecon`` module (plus the ``scipy.fft`` calls that ``nufft`` makes) and
rebinds every module-level reference to the wrapped objects; nothing under
``src/`` is edited. While the tracer is on, each wrapped call records a span:
name, start, end, parent span and the id of the benchmark operation it ran in.
Spans are kept in typed arrays and written out once, when the run ends.

A span's self time is its duration minus the durations of its direct children
(calls are single-threaded, so children never overlap). Every benchmark
operation opens a root span ``op.<kind>``; that span's self time is the
``other`` remainder, so for each operation the self times of all spans inside
it plus ``other`` sum to its wall time.

Computed counts (``epg.state_updates``, ``nufft.interp.taps``, ...) are derived
from argument and result shapes, never from timers, so two runs on the same
inputs give identical values.
"""

import functools
import gzip
import importlib
import inspect
import math
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

MODULES = (
    "acquisition",
    "autodiff",
    "cli",
    "dictionary",
    "epg",
    "maps",
    "neuralprox",
    "nufft",
    "phantom",
    "recon",
    "tensorfile",
)

# classes whose spans are named after their layer, not the class; their
# constructors are traced too, because plan and operator set-up is real work
CLASS_LAYER = {
    "acquisition.AcquisitionOperator": "acquisition",
    "nufft.GriddingPlan": "nufft.plan",
    "nufft.CartesianExactPlan": "nufft.plan",
}

# transforms on complex data; every other scipy.fft transform has real input
# or real output and is counted at half the flops
COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")


# ---------------------------------------------------------------------------
# computed counts, one hook per traced name: hook(tracer, args, kwargs, result)
# returns the result the caller sees


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _epg_counts(fn):
    def hook(tracer, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        n_atoms, n_frames = result.shape
        tracer.count("epg.state_updates", n_atoms * n_frames * int(a["k_max"]))
        return result

    return hook


def _plan_counts():
    def hook(tracer, args, kwargs, result):
        plan, data = args[0], args[1]
        frames, batch = data.shape[:2]
        samples = frames * batch * plan.d
        if hasattr(plan, "weights"):  # gridding: width^2 taps per sample
            taps = samples * plan.width**2
            tables = plan.flat_index[:frames].nbytes + plan.weights[:frames].nbytes
        else:  # exact Cartesian: one gathered/scattered bin per sample
            taps = samples
            tables = plan.flat_index[:frames].nbytes + plan.sign[:frames].nbytes
        tracer.count("nufft.interp.taps", taps)
        tracer.count("nufft.bytes_computed", data.nbytes + result.nbytes + tables)
        return result

    return hook


def _is_transform(obj):
    """True for the scipy.fft transforms: public functions of `x` with `workers`."""
    try:
        params = list(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return False
    return params[:1] == ["x"] and "workers" in params


def _fft_counts(fn):
    sig = inspect.signature(fn)
    share = 1.0 if fn.__name__ in COMPLEX_FFTS else 0.5

    def hook(tracer, args, kwargs, result):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        x = a["x"]
        full = x if x.size >= result.size else result  # the longer side of the transform
        if "axis" in a:
            axes = (a["axis"],)
        elif a["axes"] is not None:
            axes = a["axes"]
        else:
            axes = range(-len(a["s"]), 0) if a.get("s") is not None else range(full.ndim)
        length = math.prod(full.shape[ax] for ax in axes)
        transforms = full.size // length
        # nominal radix-2 count, 5 n log2 n real flops per complex transform
        tracer.count("nufft.fft.flops", share * 5 * length * math.log2(length) * transforms)
        return result

    return hook


def _power_iters(fn):
    def hook(tracer, args, kwargs, result):
        tracer.count("acquisition.estimate_operator_norm.iters", int(_bound(fn, args, kwargs)["iters"]))
        return result

    return hook


def _match_counts(tracer, args, kwargs, result):
    tsmi, grid = args[0], args[1]
    mask = kwargs.get("mask", args[3] if len(args) > 3 else None)
    voxels = tsmi[0].size if mask is None else int(mask.sum())
    tracer.count("dictionary.match.voxel_atom_products", voxels * grid.n_atoms)
    return result


def _tensor_bytes(name):
    def hook(tracer, args, kwargs, result):
        tracer.count(f"{name}.bytes", os.path.getsize(args[0]))
        return result

    return hook


def _tape_node(tracer, args, kwargs, result):
    tracer.count("autodiff.tape.nodes", 1)
    tracer.count("autodiff.tape.bytes", result.value.nbytes)
    return result


def _wrap_prox(n_atoms):
    """The prox closures are traced as ``recon.prox`` where they are created."""

    def hook(tracer, args, kwargs, prox):
        def traced_prox(g):
            if not tracer.on:
                return prox(g)
            i = tracer.open("recon.prox")
            try:
                return prox(g)
            finally:
                tracer.close(i)
                if n_atoms is not None:
                    atoms = n_atoms(args)
                    tracer.count("dictionary.match.voxel_atom_products", g[0].size * atoms)

        return traced_prox

    return hook


def _hooks(mods):
    hooks = {
        "epg.simulate_epg_batch": _epg_counts(mods["epg"].simulate_epg_batch),
        "nufft.plan.forward": _plan_counts(),
        "nufft.plan.adjoint": _plan_counts(),
        "acquisition.estimate_operator_norm": _power_iters(
            mods["acquisition"].AcquisitionOperator.estimate_operator_norm
        ),
        "dictionary.dictionary_match": _match_counts,
        "tensorfile.write_tensor": _tensor_bytes("tensorfile.write_tensor"),
        "tensorfile.read_tensor": _tensor_bytes("tensorfile.read_tensor"),
        "recon.make_dictionary_prox": _wrap_prox(lambda args: args[0].n_atoms),
        "neuralprox.UnrolledModel.make_prox": _wrap_prox(None),
    }
    for name, fn in vars(mods["autodiff"].Tape).items():
        if inspect.isfunction(fn) and not name.startswith("_") and name != "backward":
            hooks[f"autodiff.Tape.{name}"] = _tape_node
    return hooks


# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.enabled = False  # the traced window; ops open spans only inside it
        self.on = False  # true while a traced op runs
        self.names = []
        self._name_id = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self._stack = []
        self.ops = []  # (op id, kind, span index)
        self._op = -1
        self.counts = defaultdict(int)  # (counter, op id) -> value
        self.hook_errors = set()  # traced names whose count could not be computed
        self._restore = []

    # ---- recording -----------------------------------------------------------

    def open(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value):
        self.counts[(name, self._op)] += value

    @contextmanager
    def op(self, kind):
        """Root span of one benchmark operation; a no-op outside the window."""
        if not self.enabled:
            yield
            return
        self._op = len(self.ops)
        i = self.open(f"op.{kind}")
        self.ops.append((self._op, kind, i))
        self.on = True
        try:
            yield
        finally:
            self.on = False
            self.close(i)
            self._op = -1

    # ---- installation ----------------------------------------------------------

    def _wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if hook is None:
                return result
            try:
                return hook(tracer, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError, ArithmeticError):
                # the program changed under a count; report it, keep the run
                tracer.hook_errors.add(name)
                return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package's public functions and methods; undo with uninstall."""
        mods = {m: importlib.import_module(f"mrfrecon.{m}") for m in MODULES}
        hooks = _hooks(mods)
        replaced = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{mname}.{attr}"
                    replaced[id(obj)] = self._wrapper(obj, name, hooks.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(mname, obj, hooks)
        # rebind every module-level reference, including `from .x import f`
        for mod in [importlib.import_module("mrfrecon"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
        self._install_fft(mods["nufft"])

    def _install_fft(self, nufft):
        """Trace the scipy.fft transforms that nufft calls, under any module alias.

        Without that alias the FFT time would show up as interpolation time,
        so its absence is recorded as a hook error.
        """
        import scipy.fft

        aliases = [attr for attr, obj in vars(nufft).items() if obj is scipy.fft]
        for attr in aliases:
            self._set(nufft, attr, _FftProxy(scipy.fft, self))
        if not aliases:
            self.hook_errors.add("nufft.fft")

    def _install_class(self, mname, cls, hooks):
        qual = f"{mname}.{cls.__name__}"
        layer = CLASS_LAYER.get(qual, qual)
        for attr, obj in list(vars(cls).items()):
            traced_init = attr == "__init__" and qual in CLASS_LAYER
            if attr.startswith("_") and not traced_init:
                continue
            name = f"{layer}.{'init' if traced_init else attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrapper(obj, name, hooks.get(f"{qual}.{attr}", hooks.get(name))))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrapper(obj.__func__, name, None)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrapper(obj.__func__, name, None)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ---- analysis --------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def summarize(self):
        """Aggregate spans by name and, per operation, by layer.

        Returns (by_name, per_op): by_name maps (span name, op kind) to the
        span's busy time (outermost calls only), self time and call count
        inside operations of that kind; per_op lists, for each traced
        operation, its kind, wall time and the self time of each layer
        (module) inside it, with the op span's own self time as `other`.
        """
        kinds = {op_id: kind for op_id, kind, _ in self.ops}
        dur, self_t = self.self_times()
        by_name = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        per_op = [
            {"op": op_id, "kind": kind, "wall_s": dur[i], "layers": defaultdict(float)}
            for op_id, kind, i in self.ops
        ]
        open_names = []  # span names on the current ancestor path
        for i in range(len(dur)):
            p = self.parent[i]
            while open_names and open_names[-1][0] != p:
                open_names.pop()
            name = self.names[self.name_id[i]]
            op = self.op_of[i]
            entry = by_name[(name, kinds[op])]
            if all(n != name for _, n in open_names):
                entry["busy_s"] += dur[i]
            entry["self_s"] += self_t[i]
            entry["calls"] += 1
            layer = "other" if name.startswith("op.") else name.split(".", 1)[0]
            per_op[op]["layers"][layer] += self_t[i]
            open_names.append((i, name))
        return dict(by_name), per_op

    def write(self, path):
        """Write spans as gzip CSV: name,start_s,end_s,parent,op,op_kind."""
        kinds = {op_id: kind for op_id, kind, _ in self.ops}
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,op,op_kind\n")
            for i in range(len(self.start)):
                op = self.op_of[i]
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{op},{kinds.get(op, '')}\n"
                )


class _FftProxy:
    """Stands in for ``scipy.fft`` inside ``nufft``.

    Every transform is timed as a ``nufft.fft`` span and counted in
    ``nufft.fft.flops``; helpers such as ``fftshift`` or ``next_fast_len`` do
    no transform work and pass through untraced.
    """

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        obj = getattr(self._real, name)
        if not name.startswith("_") and _is_transform(obj):
            obj = self._tracer._wrapper(obj, "nufft.fft", _fft_counts(obj))
        setattr(self, name, obj)  # later lookups find it without __getattr__
        return obj
