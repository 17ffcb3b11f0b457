"""Reverse-mode autodiff over float64 numpy arrays.

A Tensor wraps an ndarray and, when gradients are required, a graph Node:
the parent nodes plus a closure that maps the output gradient to gradients
for its parents. The op set is exactly what the network needs: broadcast
arithmetic, batched matmul, a temporal (k_t x 1) convolution with
stride/dilation/padding, batch and layer normalization, pointwise
nonlinearities, reductions, shape moves, concatenation and inverted dropout.
``backward`` walks the nodes in reverse topological order and returns the
leaf gradients keyed by each leaf's node (``leaf.node``); ``grad_check``
compares analytic gradients against central differences. ``no_grad`` turns
graph building off in the current context (``grad_enabled`` reports it);
training and scoring run their pool threads in copies of that context.

Graph memory follows two rules. A node never holds a Tensor or its data,
and a closure captures only the arrays and shapes that the formulas for the
gradients actually needed read. An activation is therefore freed as soon as
its Tensor and the last closure that reads it are gone, not when the graph
is. Where an operand can be rebuilt from arrays the graph keeps anyway, it
is not kept at all: an op output that carries a ``replay``, a zero-argument
function returning its data bit for bit, is read through that function in
backward, and no op keeps an operand that has one. One rule makes every
rebuilt array, a replay or a norm's x̂: it is computed once per graph
(``_once``), on its first call, and every call returns that same array,
read-only, so a reader that tried to write it would raise. The array lives
in the closure that computes it and is freed with the last closure that can
call it. ``_replayed`` sets every replay: an op's replay reruns the op's own
kernel, the one that made its output, on its input's replay or on the input
it keeps. A conv reruns on either, relu and transpose only on an input's
replay. A batch norm or layer norm reruns its affine step on its normalised
input x̂: on an input with a replay it keeps only the mean and scale and
rebuilds x̂ as ``(x - mean) * ivar`` from that replay, and on any other input
it keeps x̂. So a conv after a batch norm, a norm after a conv and an
attention product of two conv outputs keep nothing of those inputs, and a
product of an array with itself reads its replay once for both operands.
The graph is also one-shot: ``backward`` drops each closure once it has
run, so saved arrays free as the walk proceeds, and a second walk over a
spent graph raises RuntimeError.

Closures read parameter arrays live, never copies, so a parameter must not
change between a forward pass and its backward.

Flows (the gradients travelling back along graph edges) follow one in-place
rule: ``backward`` adds a node's second and later incoming flows in place
only into a sum buffer it allocated itself. An array a closure returns may
be a view of its upstream gradient, a read-only broadcast, or shared by two
parents, so it is never written to. Kernels may reuse their own temporaries
in place when that keeps every operation and its order unchanged.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NondeterminismError


class Tensor:
    """An ndarray plus, when gradients are required, its graph node."""

    __slots__ = ("data", "node", "replay")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        # a leaf's node exists from the start: shard threads share parameters
        self.node = Node((), None) if requires_grad else None
        # rebuilds ``data`` bit for bit from arrays the graph keeps, or None
        self.replay = None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def _backward(self):
        """The node's closure, g -> parent grads; writable so it can be wrapped."""
        return None if self.node is None else self.node.backward

    @_backward.setter
    def _backward(self, fn):
        self.node.backward = fn

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Node:
    """A graph vertex; it never holds a Tensor or its data.

    ``parents`` holds one entry per op input: that input's node, or None for a
    constant. ``backward`` maps the output gradient to a tuple aligned with
    ``parents`` (None where no gradient is needed). A leaf has no parents and
    no closure; the module's ``backward`` keys the leaf's gradient by it.
    """

    __slots__ = ("parents", "backward")

    def __init__(self, parents, backward):
        self.parents = parents
        self.backward = backward


def as_tensor(x) -> Tensor:
    """Wrap arrays and scalars as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = contextvars.ContextVar("hagcn_grad_enabled", default=True)


class no_grad:
    """Context that skips graph construction; use for pure inference.

    Keeps eval-time memory flat: without it every closure that saves an
    activation stays alive through the output's node because parameters
    require grad. The mode belongs to the current context: other threads
    keep theirs, and a thread started inside the block builds graphs unless
    it runs in a copy of this context (as ``_map_in_threads`` runs its calls).
    """

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def grad_enabled() -> bool:
    """Whether ops build graph nodes in the current context (see no_grad)."""
    return _grad_enabled.get()


def _map_in_threads(fn, count: int, threads: int) -> list:
    """``[fn(i) for i in range(count)]``, on up to ``threads`` pool threads.

    Each pooled call runs in its own copy of the caller's context, so it
    keeps the caller's grad mode and numpy ``errstate`` (a ContextVar in
    numpy 2); a context cannot be entered by two threads at once. Results
    come back in index order whichever thread finished first, and the first
    exception in that order is raised. One thread, or one call, runs inline.
    Private, so that a tracer wrapping the package's public functions puts
    no span of its own between a caller and the calls it runs here.
    """
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    contexts = [contextvars.copy_context() for _ in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(lambda i: contexts[i].run(fn, i), range(count)))


def _needs_grad(parents) -> bool:
    return _grad_enabled.get() and any(p.node is not None for p in parents)


def _make(data, parents, backward_fn) -> Tensor:
    """Build an op output, pruning graph edges when no parent needs grad."""
    out = Tensor(data)
    if _needs_grad(parents):
        out.node = Node(tuple(p.node for p in parents), backward_fn)
    return out


def _once(kernel, source):
    """A function returning ``kernel(source())``: its first call computes
    the array and marks it read-only, and every call returns that one array,
    which is freed with the function."""
    data = None

    def get():
        nonlocal data
        if data is None:
            data = kernel(source())
            data.flags.writeable = False
        return data

    return get


def _replayed(out: Tensor, kernel, source) -> Tensor:
    """``out``, whose data ``kernel`` made from its input, given the replay
    ``_once(kernel, source)`` when it has a graph node and ``source`` is not
    None: without a node no closure reads it, so nothing needs rebuilding."""
    if out.node is not None and source is not None:
        out.replay = _once(kernel, source)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the axes numpy broadcast to reach it, back down to shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def back(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    sa, sb = a.data.shape, b.data.shape

    def back(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _make(data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    sa, sb = a.data.shape, b.data.shape
    # each factor is read only for the other's gradient
    get_a = _reader(a, b.requires_grad)
    get_b = _reader(b, a.requires_grad)

    def back(g):
        return (None if get_b is None else _unbroadcast(g * get_b(), sa),
                None if get_a is None else _unbroadcast(g * get_a(), sb))

    return _make(data, (a, b), back)


def _reader(x: Tensor, needed: bool = True):
    """What backward reads of operand ``x``: None when no gradient needs it,
    else ``x.replay`` when it has one, so that nothing of x is kept, else a
    function returning the kept data."""
    if not needed:
        return None
    if x.replay is not None:
        return x.replay
    data = x.data
    return lambda: data


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting; both operands rank >= 2."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    sa, sb = a.data.shape, b.data.shape
    if sa[-1] != sb[-2]:
        raise ValueError(f"matmul inner dimensions differ: {sa} @ {sb}")
    data = np.matmul(a.data, b.data)
    # a is read only for b's gradient, b only for a's
    get_a = _reader(a, b.requires_grad)
    get_b = _reader(b, a.requires_grad)

    def back(g):
        ga = gb = None
        if get_b is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(get_b(), -1, -2)), sa)
        if get_a is not None:
            gb = _unbroadcast(np.matmul(np.swapaxes(get_a(), -1, -2), g), sb)
        return ga, gb

    return _make(data, (a, b), back)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x, w, b, stride: int = 1, dilation: int = 1, pad: int = 0) -> Tensor:
    """Temporal convolution over (N, C, T, V) input.

    The kernel is (C_out, C_in, k_t, 1) and the bias (C_out,); stride,
    dilation and zero padding apply to the temporal axis. Each tap is one
    matmul of its weights with the shifted input seen as (N, C_in, T_out*V),
    a free view for 1x1 stride-1 convs. The output replays by rerunning
    this conv's kernel on its input's replay or on the input it keeps.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    n, c_in, t, v = x.data.shape
    c_out, c_in_w, k_t, k_v = w.data.shape
    if k_v != 1:
        raise ValueError(f"conv2d kernel must be (C_out, C_in, k_t, 1), "
                         f"got {w.data.shape}")
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in}, kernel {c_in_w}")
    if b.data.shape != (c_out,):
        raise ValueError("conv2d bias must be (C_out,)")
    if stride < 1 or dilation < 1 or pad < 0:
        raise ValueError("conv2d stride/dilation must be >= 1 and pad >= 0")
    t_pad = t + 2 * pad
    if t_pad < dilation * (k_t - 1) + 1 or v < 1:
        raise ValueError("conv2d kernel larger than padded input")
    t_out = (t_pad - dilation * (k_t - 1) - 1) // stride + 1
    span = (t_out - 1) * stride + 1
    # (k_t, C_out, C_in), contiguous: a strided weight slice misses BLAS
    wk = w.data[:, :, :, 0].transpose(2, 0, 1).copy()
    bias = b.data.reshape(1, c_out, 1, 1)

    def padded(xd):
        if not pad:
            return xd
        xp = np.zeros((n, c_in, t_pad, v), dtype=np.float64)
        xp[:, :, pad:pad + t, :] = xd
        return xp

    def tap(src, it):
        t0 = it * dilation
        return src[:, :, t0:t0 + span:stride].reshape(n, c_in, t_out * v)

    def run(xd):
        xp = padded(xd)
        data = np.matmul(wk[0], tap(xp, 0))
        for it in range(1, k_t):
            data += np.matmul(wk[it], tap(xp, it))
        data = data.reshape(n, c_out, t_out, v)
        data += bias
        return data

    # the input is read only for dW and the replay, the weights only for dx
    get_x = _reader(x)
    dw_x = get_x if w.requires_grad else None
    ws = wk if x.requires_grad else None
    w_shape = w.data.shape

    def back(g):
        dx = dw = None
        if dw_x is not None:
            xs = padded(dw_x())
            # dW is one GEMM over all N*T_out*V per tap: per-sample products
            # summed over N round differently, enough to change what desk
            # training learns
            gm = g.transpose(1, 0, 2, 3).reshape(c_out, -1)
            dw = np.empty(w_shape)
            for it in range(k_t):
                dw[:, :, it, 0] = gm @ tap(xs, it).transpose(0, 2, 1).reshape(-1, c_in)
        if ws is not None:
            g3 = g.reshape(n, c_out, t_out * v)
            if k_t == 1 and stride == 1 and not pad:
                # the input gradient is the one product itself
                dx = np.matmul(ws[0].T, g3).reshape(n, c_in, t, v)
            else:
                dxp = np.zeros((n, c_in, t_pad, v))
                for it in range(k_t):
                    t0 = it * dilation
                    dxp[:, :, t0:t0 + span:stride] += np.matmul(
                        ws[it].T, g3).reshape(n, c_in, t_out, v)
                dx = dxp[:, :, pad:pad + t, :] if pad else dxp
        return dx, dw, g.sum(axis=(0, 2, 3))

    return _replayed(_make(run(x.data), (x, w, b), back), run, get_x)


# ---------------------------------------------------------------------------
# normalization


def _moments(xd: np.ndarray, axes: tuple, count: int):
    """Mean, centred input, its square and biased variance over ``axes``.

    ``sum / count`` on one centred array is exactly what ``np.mean`` and
    ``np.var`` compute, so the statistics match theirs bit for bit. The
    centred and squared arrays are fresh, for the caller to reuse.
    """
    mean = xd.sum(axis=axes, keepdims=True) / count
    xc = xd - mean
    sq = np.square(xc)
    var = sq.sum(axis=axes, keepdims=True) / count
    return mean, xc, sq, var


def _affine_args(op: str, x, gamma, beta):
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4:
        raise ValueError(f"{op} expects 4-D input")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"{op} affine params must be (C,)")
    return x, gamma, beta, gamma.data.reshape(1, c, 1, 1)


def _affine(xhat, gamma_r, beta_r, out=None):
    """``xhat * gamma + beta``, written into ``out`` when given."""
    data = np.multiply(xhat, gamma_r, out=out)
    data += beta_r
    return data


def _affine_back(g, xhat, gamma_r):
    """Scratch ``g * xhat``, dgamma, dbeta and a fresh dxhat to reuse."""
    t = g * xhat
    dgamma = t.sum(axis=(0, 2, 3))
    dbeta = g.sum(axis=(0, 2, 3))
    return t, dgamma, dbeta, g * gamma_r


def _normalised(x: Tensor, xhat: np.ndarray, mean, ivar):
    """A function returning a norm's x̂ for its backward and its output's
    replay. On an input with a replay it keeps nothing of x̂ or x: only
    ``mean`` and ``ivar`` stay, and x̂ is rebuilt once (``_once``) as
    ``(x - mean) * ivar`` from that replay, the ops that made ``xhat``.
    Otherwise it keeps x̂."""
    if x.replay is None:
        return lambda: xhat

    def rebuild(xd):
        xh = xd - mean
        xh *= ivar
        return xh

    return _once(rebuild, x.replay)


def batch_norm(x, gamma, beta, mean=None, var=None, *, eps: float = 1e-5,
               stats_out=None) -> Tensor:
    """Per-channel normalization over axes (N, T, V) of a 4-D input.

    Without ``mean``/``var`` the batch statistics of ``x`` over (N, T, V)
    (biased variance) are computed here and the backward pass differentiates
    through them; ``stats_out``, a list, then receives them as a
    ``(mean, var)`` pair of (C,) arrays. With ``mean``/``var`` given, those
    plain (C,) arrays are treated as constants (running statistics at eval
    time). The op never mutates them; the owning layer maintains running
    state. The backward reads the normalised input x̂, kept or rebuilt from
    the input's replay (see ``_normalised``); the output replays by
    rerunning its affine kernel on that x̂.
    """
    x, gamma, beta, gamma_r = _affine_args("batch_norm", x, gamma, beta)
    n, c, t, v = x.data.shape
    batch_stats = mean is None
    if batch_stats != (var is None):
        raise ValueError("batch_norm takes both mean and var, or neither")
    axes = (0, 2, 3)
    count = n * t * v
    if count == 0:
        raise ValueError("batch_norm over an empty batch")

    graph = _needs_grad((x, gamma, beta))
    if batch_stats:
        mean, xhat, out, var = _moments(x.data, axes, count)
        if stats_out is not None:
            stats_out.append((mean.reshape(c), var.reshape(c)))
    else:
        mean = np.asarray(mean, dtype=np.float64).reshape(gamma_r.shape)
        xhat = x.data - mean
        var = np.asarray(var, dtype=np.float64).reshape(gamma_r.shape)
        # without a graph nothing reads xhat again: the output may overwrite it
        out = np.empty_like(xhat) if graph else xhat
    ivar = 1.0 / np.sqrt(var + eps)
    xhat *= ivar
    beta_r = beta.data.reshape(gamma_r.shape)
    data = _affine(xhat, gamma_r, beta_r, out)
    get_xhat = _normalised(x, xhat, mean, ivar)

    def back(g):
        xh = get_xhat()
        t, dgamma, dbeta, dx = _affine_back(g, xh, gamma_r)
        if batch_stats:
            # (ivar / count) * (count * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
            s1 = dx.sum(axis=axes, keepdims=True)
            s2 = np.multiply(dx, xh, out=t).sum(axis=axes, keepdims=True)
            np.multiply(xh, s2, out=t)
            dx *= count
            dx -= s1
            dx -= t
            dx *= ivar / count
        else:
            dx *= ivar
        return dx, dgamma, dbeta

    return _replayed(_make(data, (x, gamma, beta), back),
                     lambda xd: _affine(xd, gamma_r, beta_r), get_xhat)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-sample normalization over (C, T, V) with per-channel affine.

    The backward reads the normalised input x̂, kept or rebuilt from the
    input's replay (see ``_normalised``); the output replays by rerunning
    its affine kernel on that x̂.
    """
    x, gamma, beta, gamma_r = _affine_args("layer_norm", x, gamma, beta)
    n, c, t, v = x.data.shape
    axes = (1, 2, 3)
    count = c * t * v
    mean, xhat, out, var = _moments(x.data, axes, count)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat *= ivar
    beta_r = beta.data.reshape(gamma_r.shape)
    data = _affine(xhat, gamma_r, beta_r, out)
    get_xhat = _normalised(x, xhat, mean, ivar)

    def back(g):
        xh = get_xhat()
        t, dgamma, dbeta, dx = _affine_back(g, xh, gamma_r)
        # ivar * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        m1 = dx.sum(axis=axes, keepdims=True) / count
        m2 = np.multiply(dx, xh, out=t).sum(axis=axes, keepdims=True) / count
        np.multiply(xh, m2, out=t)
        dx -= m1
        dx -= t
        dx *= ivar
        return dx, dgamma, dbeta

    return _replayed(_make(data, (x, gamma, beta), back),
                     lambda xh: _affine(xh, gamma_r, beta_r), get_xhat)


# ---------------------------------------------------------------------------
# pointwise


def relu(x) -> Tensor:
    """max(x, 0); the output replays, by rerunning this kernel on the
    input's replay, only when the input has one."""
    x = as_tensor(x)
    mask = x.data > 0

    def kernel(xd):
        return np.where(mask, xd, 0.0)

    def back(g):
        return (g * mask,)

    return _replayed(_make(kernel(x.data), (x,), back), kernel, x.replay)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)

    def back(g):
        return (g * (1.0 - y * y),)

    return _make(y, (x,), back)


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _make(s, (x,), back)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    ls = shifted - lse
    s = np.exp(ls)

    def back(g):
        return (g - s * g.sum(axis=axis, keepdims=True),)

    return _make(ls, (x,), back)


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout as ``mul(x, keep)``; x itself when rate is 0."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout at a positive rate needs an rng")
    return mul(x, (rng.random(x.data.shape) >= rate) / (1.0 - rate))


# ---------------------------------------------------------------------------
# reductions and shape moves


def tsum(x) -> Tensor:
    """The sum of every element, a 0-d Tensor."""
    x = as_tensor(x)
    shape = x.data.shape

    def back(g):
        return (np.broadcast_to(g, shape),)

    return _make(x.data.sum(), (x,), back)


def tmean(x, axes, keepdims: bool = False) -> Tensor:
    """Mean over ``axes``, an int or a sequence, as numpy takes them."""
    x = as_tensor(x)
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    data = x.data.mean(axis=axes, keepdims=keepdims)
    shape = x.data.shape
    count = int(np.prod([shape[a] for a in axes]))

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape) / count,)

    return _make(data, (x,), back)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)
    in_shape = x.data.shape

    def back(g):
        return (g.reshape(in_shape),)

    return _make(data, (x,), back)


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def kernel(xd):
        return xd.transpose(axes)

    def back(g):
        return (g.transpose(inv),)

    return _replayed(_make(kernel(x.data), (x,), back), kernel, x.replay)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), back)


# ---------------------------------------------------------------------------
# backward engine


def _topo(root: Node):
    """Reverse-postorder DFS over nodes; raises on cycles (graph abuse)."""
    order = []
    state = {root: 1}  # node -> 1 on stack, 2 done
    stack = [(root, iter(root.parents))]
    while stack:
        node, it = stack[-1]
        for p in it:
            if p is None:
                continue
            s = state.get(p)
            if s == 1:
                raise ValueError("cycle detected in autodiff graph")
            if s is None:
                state[p] = 1
                stack.append((p, iter(p.parents)))
                break
        else:
            stack.pop()
            state[node] = 2
            order.append(node)
    return order


def _spent(g):
    raise RuntimeError("this graph was already walked by backward; "
                       "run the forward pass again")


def backward(loss: Tensor) -> dict:
    """Backpropagate from a scalar loss; returns {leaf.node: gradient}.

    Nothing is stored on the tensors, so shards can share parameters
    race-free. The graph holds only what backward formulas read, and
    interior nodes only relay flow, which keeps peak memory at the live
    frontier instead of the whole graph. A graph is spent after one walk:
    each interior closure is dropped once its turn has come, and a second
    ``backward`` over any spent node raises RuntimeError before running
    anything. Leaves are never spent, so parameters serve every graph.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if loss.node is None:
        return {}
    order = _topo(loss.node)
    if any(node.backward is _spent for node in order):
        _spent(None)
    flows = {loss.node: np.ones_like(loss.data)}
    owned = set()  # nodes whose flow is a sum this walk allocated
    grads = {}
    for node in reversed(order):
        g = flows.pop(node, None)
        owned.discard(node)
        fn = node.backward
        if fn is None:  # a leaf
            if g is not None:
                grads[node] = g
            continue
        # drop the closure, and the arrays it saved, once it has run
        node.backward = _spent
        if g is None:
            continue
        for parent, pg in zip(node.parents, fn(g)):
            if pg is None or parent is None:
                continue
            if parent not in flows:
                flows[parent] = pg
            elif parent in owned:
                flows[parent] += pg
            else:
                flows[parent] = flows[parent] + pg
                owned.add(parent)
    return grads


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps a Tensor to a Tensor; its output is summed into the scalar
    being differentiated. The function is run twice up front and must produce
    bit-identical output, otherwise NondeterminismError is raised. The error
    metric is |a - n| / max(1, |a|, |n|) taken elementwise.
    """
    base = np.array(x.data, dtype=np.float64, copy=True)

    out1 = fn(Tensor(base.copy(), requires_grad=True))
    probe = Tensor(base.copy(), requires_grad=True)
    out2 = fn(probe)
    if (out1.data.shape != out2.data.shape
            or out1.data.tobytes() != out2.data.tobytes()):
        raise NondeterminismError("fn returned different outputs on identical input")

    analytic = backward(tsum(out2)).get(probe.node, np.zeros_like(base))

    numeric = np.empty_like(base)
    flat = base.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        xp = base.copy()
        xp.reshape(-1)[i] = orig + eps
        fp = float(fn(Tensor(xp)).data.sum())
        xm = base.copy()
        xm.reshape(-1)[i] = orig - eps
        fm = float(fn(Tensor(xm)).data.sum())
        numeric.reshape(-1)[i] = (fp - fm) / (2.0 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())
