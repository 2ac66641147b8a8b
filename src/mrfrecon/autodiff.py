"""Compact reverse-mode automatic differentiation over float64 arrays.

Every operation executed through a Tape returns a Node to the caller, and
backward() replays the tape's records in exact reverse order (recording order
is topological), so gradients accumulate additively at fan-out and parameters
reached through several leaves (weight sharing across unrolled iterations) sum
up naturally.

What the tape keeps and what callers hold: a Node carries the forward value and
a link to its record. The tape keeps a record only for a node that needs a
gradient, i.e. the leaf of a Param trainable when the leaf is recorded, or a
node with a parent that needs one. A record holds its parents' records (None
for a parent that needs no gradient), its Param and its vector-Jacobian closure,
and the closure captures flags, shapes and only the arrays it reads: matmul
keeps its input only if the weight gradient is taken and the weights only if the
input gradient is, conv2d likewise its zero-padded input and its kernel, and
leaky_relu a boolean mask. No record or closure holds a Node, so a forward value
that no VJP reads is freed as soon as the caller drops its Node, and a step's
graph is freed with its Tape. Tape(grad=False) is the inference tape: it keeps no
records and no VJPs at all.

backward() sends gradients only into nodes that need one, and the VJPs skip the
operand gradients no such node takes, so constants and frozen weights cost no
reverse work. What remains runs the same operations in the same order:
bit-identical.

The acquisition enters the graph only as its normal operator N = H^H H
(apply_normal): complex-linear and self-adjoint, so its vector-Jacobian product
is N again. Everything else stays real; complex channels are carried as
stacked real/imaginary planes. conv2d builds no column matrix: it sums one small
matmul per kernel tap over one zero-filled padded buffer per operand. Its VJP
pads g once, for dx (with the flipped kernel) and dw (an interior run, each row of
g followed by kw - 1 zeros); that buffer lives only inside the VJP, never on the tape.
"""

import numpy as np

from .errors import TrainingFailure


class Param:
    """A named, optionally trainable array of weights."""

    __slots__ = ("name", "value", "trainable")

    def __init__(self, name, value, trainable=True):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.trainable = trainable

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape}, trainable={self.trainable})"


class Node:
    """What a caller holds: the forward value and the node's record on the tape,
    None when the node needs no gradient."""

    __slots__ = ("value", "record")

    def __init__(self, value, record):
        self.value = value
        self.record = record

    @property
    def needs_grad(self):
        return self.record is not None


class _Record:
    """What the tape keeps of a node that needs a gradient."""

    __slots__ = ("parents", "vjp", "param")

    def __init__(self, parents, vjp, param):
        self.parents = parents
        self.vjp = vjp
        self.param = param


def _grad_shape(node):
    """The shape of the gradient into node; None if it takes none."""
    return node.value.shape if node.record is not None else None


def _unbroadcast(grad, shape):
    """Reduce a gradient to `shape` after numpy broadcasting; None if shape is None."""
    if shape is None:
        return None
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def c2r_channels(z):
    """Complex (s, ...) -> real (2s, ...): real planes then imaginary planes."""
    return np.concatenate([z.real, z.imag], axis=0)


def r2c_channels(x):
    s = x.shape[0] // 2
    return x[:s] + 1j * x[s:]


def _tap_runs(xp, kh, kw, h, wd):
    """Yield (i, j, run): tap (i, j) of a same convolution reads H * (W + kw - 1) contiguous
    values of each flat zero-padded channel, from offset i * (W + kw - 1) + j."""
    row = wd + kw - 1
    for i in range(kh):
        for j in range(kw):
            yield i, j, xp[:, i * row + j : i * row + j + h * row]


def _padded(x, kh, kw):
    """x (C, H, W) inside one zero-filled (C, H + kh, W + kw - 1) buffer, flat, spare row last."""
    c, h, wd = x.shape
    xp = np.zeros((c, h + kh, wd + kw - 1))
    xp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + wd] = x
    return xp.reshape(c, -1)


def _conv_same(xp, wv, h, wd):
    """Same convolution without bias of the flat padded operand xp (from _padded), the sum
    over taps of w[:, :, i, j] @ run with the kw - 1 wrapped columns of each row cropped once."""
    cout, _, kh, kw = wv.shape
    taps = np.ascontiguousarray(wv.transpose(2, 3, 0, 1))
    acc = np.zeros((cout, h * (wd + kw - 1)))
    prod = np.empty_like(acc)
    for i, j, run in _tap_runs(xp, kh, kw, h, wd):
        acc += np.matmul(taps[i, j], run, out=prod)
    return acc.reshape(cout, h, -1)[:, :, :wd]


class Tape:
    """Operation recorder for one forward pass; with grad=False it records
    nothing, for inference."""

    def __init__(self, grad=True):
        self.grad = grad
        self._records = []

    def _record(self, value, parents=(), vjp=None, param=None):
        value = np.asarray(value, dtype=np.float64)
        if param is not None:
            if not (self.grad and param.trainable):
                return Node(value, None)
            record = _Record((), None, param)
        else:
            records = tuple([p.record for p in parents])
            if not any(records):
                return Node(value, None)
            record = _Record(records, vjp, None)
        self._records.append(record)
        return Node(value, record)

    # ---- leaves ------------------------------------------------------------

    def constant(self, value):
        return self._record(value)

    def leaf(self, param):
        return self._record(param.value, param=param)

    # ---- arithmetic --------------------------------------------------------

    def add(self, a, b):
        sa, sb = _grad_shape(a), _grad_shape(b)

        def vjp(g):
            return _unbroadcast(g, sa), _unbroadcast(g, sb)

        return self._record(a.value + b.value, (a, b), vjp)

    def sub(self, a, b):
        sa, sb = _grad_shape(a), _grad_shape(b)

        def vjp(g):
            return _unbroadcast(g, sa), -_unbroadcast(g, sb) if sb is not None else None

        return self._record(a.value - b.value, (a, b), vjp)

    def mul(self, a, b):
        av, bv = a.value, b.value
        sa, sb = _grad_shape(a), _grad_shape(b)
        # each operand's gradient reads the other operand
        for_a = bv if sa is not None else None
        for_b = av if sb is not None else None

        def vjp(g):
            return (
                _unbroadcast(g * for_a, sa) if sa is not None else None,
                _unbroadcast(g * for_b, sb) if sb is not None else None,
            )

        return self._record(av * bv, (a, b), vjp)

    def scale(self, a, c):
        c = float(c)

        def vjp(g):
            return (g * c,)

        return self._record(a.value * c, (a,), vjp)

    # ---- elementwise nonlinearities ----------------------------------------

    def exp(self, a):
        out = np.exp(a.value)

        def vjp(g):
            return (g * out,)

        return self._record(out, (a,), vjp)

    def log(self, a):
        av = a.value

        def vjp(g):
            return (g / av,)

        return self._record(np.log(av), (a,), vjp)

    def tanh(self, a):
        out = np.tanh(a.value)

        def vjp(g):
            return (g * (1.0 - out * out),)

        return self._record(out, (a,), vjp)

    def sigmoid(self, a):
        av = a.value
        out = np.empty_like(av)
        pos = av >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
        ez = np.exp(av[~pos])
        out[~pos] = ez / (1.0 + ez)

        def vjp(g):
            return (g * out * (1.0 - out),)

        return self._record(out, (a,), vjp)

    def scaled_sigmoid(self, a, lo, hi):
        """lo + (hi - lo) * sigmoid(a); lo/hi broadcastable constants."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        s = self.sigmoid(a)
        span = hi - lo

        def vjp(g):
            return (g * span,)

        return self._record(s.value * span + lo, (s,), vjp)

    def leaky_relu(self, a, slope=0.01):
        av = a.value
        mask = av >= 0.0
        gains = np.array([slope, 1.0])  # gains.take(mask): the local slope (faster than np.where)

        def vjp(g):
            return (g * gains.take(mask),)

        return self._record(av * gains.take(mask), (a,), vjp)

    # ---- linear algebra ----------------------------------------------------

    def matmul(self, a, b):
        av, bv = a.value, b.value
        # dx = g @ b^T reads the weights, dW = a^T @ g the input
        for_a = bv if a.needs_grad else None
        for_b = av if b.needs_grad else None

        def vjp(g):
            return (
                g @ for_a.T if for_a is not None else None,
                for_b.T @ g if for_b is not None else None,
            )

        return self._record(av @ bv, (a, b), vjp)

    def conv2d(self, x, w, b):
        """'Same' 2-D convolution: x (Cin,H,W), w (Cout,Cin,kh,kw), odd kh and kw, b (Cout,)."""
        xv, wv = x.value, w.value
        cout, cin, kh, kw = wv.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"conv2d needs an odd kernel for 'same' padding; w is {wv.shape}")
        if xv.ndim != 3 or xv.shape[0] != cin:
            raise ValueError(
                f"conv2d needs x (Cin, H, W) with Cin = w.shape[1]; x is {xv.shape}, w {wv.shape}"
            )
        h, wd = xv.shape[1:]
        xp = _padded(xv, kh, kw)
        out = _conv_same(xp, wv, h, wd) + b.value[:, None, None]
        # dw reads the padded input, dx the kernel
        xp = xp if w.needs_grad else None
        flipped = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) if x.needs_grad else None
        b_grad = b.needs_grad
        row = wd + kw - 1
        start = (kh // 2) * row + kw // 2  # g padded like x: g's rows from here, kw - 1 zeros apart

        def vjp(g):
            dx = dw = None
            gp = _padded(g, kh, kw) if xp is not None or flipped is not None else None
            if xp is not None:
                gext = gp[:, start : start + h * row]
                dw = np.empty((cout, cin, kh, kw))
                for i, j, run in _tap_runs(xp, kh, kw, h, wd):
                    dw[:, :, i, j] = gext @ run.T
            if flipped is not None:  # the same convolution of g, kernel flipped and in/out swapped
                dx = _conv_same(gp, flipped, h, wd)
            return dx, dw, g.sum(axis=(1, 2)) if b_grad else None

        return self._record(out, (x, w, b), vjp)

    # ---- shape plumbing ------------------------------------------------------

    def reshape(self, a, shape):
        old = a.value.shape

        def vjp(g):
            return (g.reshape(old),)

        return self._record(a.value.reshape(shape), (a,), vjp)

    def transpose2d(self, a):
        def vjp(g):
            return (g.T.copy(),)

        return self._record(a.value.T.copy(), (a,), vjp)

    def concat(self, nodes, axis=0):
        sizes = [n.value.shape[axis] for n in nodes]
        splits = np.cumsum(sizes)[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=axis))

        return self._record(np.concatenate([n.value for n in nodes], axis=axis), nodes, vjp)

    def slice_axis0(self, a, start, stop):
        shape = a.value.shape

        def vjp(g):
            out = np.zeros(shape)
            out[start:stop] = g
            return (out,)

        return self._record(a.value[start:stop].copy(), (a,), vjp)

    def spatial_mean(self, a):
        """(C, H, W) -> (C,) global average pool."""
        c, h, w = a.value.shape

        def vjp(g):
            return (np.broadcast_to(g[:, None, None] / (h * w), (c, h, w)).copy(),)

        return self._record(a.value.mean(axis=(1, 2)), (a,), vjp)

    # ---- losses ----------------------------------------------------------

    def mse(self, pred, target):
        """Mean squared error against a constant target array."""
        tv = np.asarray(target, dtype=np.float64)
        diff = pred.value - tv
        n = diff.size

        def vjp(g):
            return (g * 2.0 * diff / n,)

        return self._record(np.array(np.mean(diff * diff)), (pred,), vjp)

    def weighted_sum(self, nodes, weights):
        weights = [float(w) for w in weights]
        total = sum(w * n.value for w, n in zip(weights, nodes))

        def vjp(g):
            return tuple(g * w for w in weights)

        return self._record(np.array(total), tuple(nodes), vjp)

    def vdot(self, a, b):
        """Real inner product sum(a * b) of two equal-shape nodes."""
        av, bv = a.value, b.value
        for_a = bv if a.needs_grad else None
        for_b = av if b.needs_grad else None

        def vjp(g):
            return (
                g * for_a if for_a is not None else None,
                g * for_b if for_b is not None else None,
            )

        return self._record(np.array(np.vdot(av, bv)), (a, b), vjp)

    # ---- complex normal operator -------------------------------------------

    def apply_normal(self, x, op):
        """H^H H on real (2s, N, N) planes; self-adjoint, so it is its own VJP."""

        def vjp(g):
            return (c2r_channels(op.normal(r2c_channels(g))),)

        return self._record(vjp(x.value)[0], (x,), vjp)

    # ---- reverse pass ------------------------------------------------------

    def backward(self, root, seed=1.0):
        """Accumulate gradients of `root` w.r.t. every Param leaf that was
        trainable when it was recorded.

        Returns {Param: grad}. Does not mutate the tape: repeated calls give
        identical results.
        """
        if root.record is None:
            return {}
        seed = np.broadcast_to(np.asarray(seed, dtype=np.float64), root.value.shape).copy()
        grads = {root.record: seed}
        param_grads = {}
        for record in reversed(self._records):
            g = grads.pop(record, None)
            if g is None:
                continue
            if record.param is not None:
                acc = param_grads.get(record.param)
                param_grads[record.param] = g.copy() if acc is None else acc + g
            if record.vjp is None:
                continue
            for parent, pg in zip(record.parents, record.vjp(g)):
                if pg is None or parent is None:
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = pg
        return param_grads


class Adam:
    """Adaptive-moment optimizer over Param objects, with the usual moment
    decay rates and epsilon. The moments are one flat vector each, so a step
    costs a few array operations; no views of p.value are kept, so callers may
    reassign it between steps."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.t = 0
        ends = np.cumsum([0] + [p.value.size for p in self.params])
        self._slices = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]  # into _m and _v
        self._m = np.zeros(ends[-1])
        self._v = np.zeros(ends[-1])

    def step(self, grads):
        """Update each parameter that has a gradient in `grads`; the others keep
        their values and moments. A non-finite gradient raises TrainingFailure,
        naming the first such parameter, before any state changes."""
        live = [(p, s) for p, s in zip(self.params, self._slices) if grads.get(p) is not None]
        if not live:
            self.t += 1
            return
        g = np.concatenate([grads[p].ravel() for p, _ in live])
        if not np.isfinite(g).all():
            bad = next(p for p, _ in live if not np.isfinite(grads[p]).all())
            raise TrainingFailure(f"non-finite gradient for {bad.name}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        sel = slice(None) if len(live) == len(self.params) else np.r_[tuple(s for _, s in live)]
        self._m[sel] *= b1
        self._m[sel] += (1.0 - b1) * g
        self._v[sel] *= b2
        self._v[sel] += (1.0 - b2) * g * g
        mhat = self._m / (1.0 - b1**self.t)
        vhat = self._v / (1.0 - b2**self.t)
        update = self.lr * mhat / (np.sqrt(vhat) + self.eps)
        for p, s in live:
            p.value -= update[s].reshape(p.value.shape)
