"""Define-by-run tensors with reverse-mode differentiation.

Storage is a numpy array; every primitive records a graph node with its
parents' nodes and a vector-Jacobian-product closure, so the graph is
rebuilt on each forward pass. Reduction order is fixed (column lowering
+ a single GEMM per conv, numpy's left-to-right reductions elsewhere),
which makes forward passes bit-deterministic for fixed inputs.

A `Tensor` is an array and, when it is tracked, a `Node`. The graph is
made of nodes, not tensors: a node holds its gradient, its vjp and its
parents' nodes, never an array of its own. So an op's output lives only
while the caller or a vjp closure holds it, and backward memory is what
the vjps read. Each vjp captures only the arrays it reads, plus plain
shapes and flags computed in the forward; it never captures an input
`Tensor`, which would keep that input's array alive for a shape.
Untracked tensors, every tensor made under `no_grad` among them, carry
no node.

`backward` releases each node it passes, so after it only leaves and
cuts hold a `.grad`. A cut (see `cut`) splits one graph into pieces that
are back-propagated at different times: a caller that knows when no
further graph will read a tensor can free everything behind it then.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

from ..errors import UsageError

_DTYPES = {"f32": np.float32, "f64": np.float64}

# Modes: the compute dtype (f32 for training and inference, f64 for
# gradient checks) and whether ops record a graph. Each is a context
# variable, so `no_grad` and `precision` hold in the context that entered
# them and nowhere else: a session tracking on one thread leaves another
# thread's training step recording. A thread starts with the defaults,
# and `ops._run_shares` runs its workers in a copy of the caller's context,
# so its shares keep the caller's modes.
_DTYPE = contextvars.ContextVar("evtrack_dtype", default=np.float32)
_GRAD = contextvars.ContextVar("evtrack_grad", default=True)


def default_dtype():
    return _DTYPE.get()


def grad_enabled() -> bool:
    return _GRAD.get()


@contextlib.contextmanager
def _setting(var: contextvars.ContextVar, value):
    """Set `var` to `value` in the current context for the `with` block."""
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def precision(kind: str):
    """Temporarily switch the default dtype ("f32" or "f64")."""
    if kind not in _DTYPES:
        raise UsageError(f"unknown precision {kind!r}; expected 'f32' or 'f64'")
    return _setting(_DTYPE, _DTYPES[kind])


def no_grad():
    """Disable graph recording (inference mode)."""
    return _setting(_GRAD, False)


class Node:
    """One graph vertex: a recorded op, or a leaf that wants a gradient.

    `parents` holds one entry per op input, that input's node or None for
    an untracked input; `vjp(g)` maps the output's gradient to one
    gradient per input (None where an input gets none). A leaf has no
    parents and no vjp. `grad` is the gradient gathered so far; `cut`
    marks a boundary of the sweeps that do not start here (see `cut`).
    """

    __slots__ = ("grad", "parents", "vjp", "cut")

    def __init__(self, parents=(), vjp=None):
        self.grad = None
        self.parents = parents
        self.vjp = vjp
        self.cut = False


class Tensor:
    """Dense row-major tensor, optionally tracked for differentiation.

    `data` is always a numpy float array. `node` is None for an untracked
    tensor, and the tensor's graph node otherwise: a leaf made with
    `requires_grad=True` or an op output recorded from tracked inputs.
    `grad` reads the node's gradient: on a leaf or a cut it is the
    gradient that `backward` sweeps have added up, on any other node it
    is None once a sweep has passed.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        """Whether a backward pass can reach this tensor: it has a node."""
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        if self.node is None:
            raise UsageError("an untracked tensor holds no gradient")
        self.node.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # Operator sugar; implementations live in ops.py to keep this file small.
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    def reshape(self, *shape):
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)


def make_node(data: np.ndarray, parents, vjp) -> Tensor:
    """Wrap an op result; record a node with the parents' nodes and `vjp`
    when grads are on and some parent is tracked."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.node = None
    if grad_enabled():
        nodes = tuple(p.node for p in parents)
        if any(n is not None for n in nodes):
            out.node = Node(nodes, vjp)
    return out


def _spent(g):
    raise UsageError("backward through a graph that an earlier backward already released")


def cut(t: Tensor) -> bool:
    """Make the node of `t` a boundary of the backward passes that do not start at it.

    Such a pass adds its gradient to that node's `grad` and goes no
    further, and it leaves the graph behind it in place;
    `backward([t.node, ...])` later continues from the gradient gathered.
    Returns whether `t` became a cut: a leaf, a tensor recorded under
    `no_grad`, a released node or one that is already a cut is left as
    it is.
    """
    node = t.node
    if node is None or node.vjp is None or node.vjp is _spent or node.cut:
        return False
    node.cut = True
    return True


def _topological_order(roots: list[Node]) -> list[Node]:
    """Every node reachable from `roots` without passing a cut, each once,
    parents before children."""
    order = []
    seen = set()
    stack = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and parent not in seen and not parent.cut:
                stack.append((parent, False))
    return order


def backward(root) -> None:
    """Reverse-mode sweep that releases the graph as it goes.

    `root` is a scalar loss, which starts with gradient 1, or a list of
    cut nodes (see `cut`), which are cuts no more and continue with the
    gradient each has gathered. Gradients accumulate into the `grad` of
    the leaves reached (parameters and inputs that require gradients) and
    of the cuts passed. A parameter the sweep does not reach keeps its
    `grad`, None before the first sweep, which `adamw_step` reads as a
    zero gradient. A loss that recorded no graph has nothing to sweep.

    Every other node gives up its `grad`, its vjp and its parent links
    once its vjp has run, so the arrays its vjp held are freed as the
    sweep goes. Its vjp becomes a stub that raises `UsageError`: a second
    sweep through a released graph fails instead of leaving the
    gradients as they were.
    """
    if isinstance(root, Tensor):
        if root.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {root.shape}")
        if root.node is None:
            return
        root.node.grad = np.ones_like(root.data)
        roots = [root.node]
    else:
        roots = list(root)
        if not all(isinstance(n, Node) and n.cut for n in roots):
            raise UsageError("backward continues only from cut nodes")
        for n in roots:
            n.cut = False
    order = _topological_order(roots)
    while order:
        node = order.pop()
        vjp, parents, g = node.vjp, node.parents, node.grad
        if vjp is None:
            continue
        node.grad, node.vjp, node.parents = None, _spent, ()
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if parent is None or pg is None:
                continue
            # accumulation always allocates, so aliasing pg is safe
            parent.grad = pg if parent.grad is None else parent.grad + pg
