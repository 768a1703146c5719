"""Define-by-run tensors with reverse-mode differentiation.

Storage is a numpy array; every primitive records its parents and a
vector-Jacobian-product closure, so the graph is rebuilt on each forward
pass. Reduction order is fixed (column lowering + a single GEMM per conv,
numpy's left-to-right reductions elsewhere), which makes forward passes
bit-deterministic for fixed inputs.

`backward` releases each node it passes, so after it only leaves and
cuts hold a `.grad`. A cut (see `cut`) splits one graph into pieces that
are back-propagated at different times: a caller that knows when no
further graph will read a tensor can free everything behind it then.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import UsageError

_DTYPES = {"f32": np.float32, "f64": np.float64}

# Global modes: compute dtype (f32 for training/inference, f64 for gradient
# checks) and gradient recording.
_state = {"dtype": np.float32, "grad": True}


def default_dtype():
    return _state["dtype"]


def grad_enabled() -> bool:
    return _state["grad"]


@contextlib.contextmanager
def precision(kind: str):
    """Temporarily switch the default dtype ("f32" or "f64")."""
    if kind not in _DTYPES:
        raise UsageError(f"unknown precision {kind!r}; expected 'f32' or 'f64'")
    prev = _state["dtype"]
    _state["dtype"] = _DTYPES[kind]
    try:
        yield
    finally:
        _state["dtype"] = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference mode)."""
    prev = _state["grad"]
    _state["grad"] = False
    try:
        yield
    finally:
        _state["grad"] = prev


class Tensor:
    """Dense row-major tensor, optionally tracked for differentiation.

    `data` is always a numpy float array. `grad` has the same shape; on a
    leaf or a cut it is the gradient that `backward` sweeps have added up,
    on any other node it is None once a sweep has passed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_cut")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None
        self._cut = False

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
    """Wrap an op result, recording parents/vjp when grads are on."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._vjp = None
    out._cut = False
    out.requires_grad = False
    if grad_enabled():
        tracked = any(p.requires_grad or p._vjp is not None for p in parents)
        if tracked:
            out.requires_grad = any(p.requires_grad for p in parents)
            out._parents = tuple(parents)
            out._vjp = vjp
    return out


def _spent(g):
    raise UsageError("backward through a graph that an earlier backward already released")


def cut(t: Tensor) -> bool:
    """Make graph node `t` a boundary of the backward passes that do not start at it.

    Such a pass adds its gradient to `t.grad` and goes no further, and it
    leaves `t` and the graph behind it in place; `backward([t, ...])`
    later continues from the gradient gathered. Returns whether `t`
    became a cut: a leaf, a tensor recorded under `no_grad`, a released
    node or one that is already a cut is left as it is.
    """
    if t._vjp is None or t._vjp is _spent or t._cut:
        return False
    t._cut = True
    return True


def _topological_order(roots: list[Tensor]) -> list[Tensor]:
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
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and not parent._cut:
                stack.append((parent, False))
    return order


def backward(root) -> None:
    """Reverse-mode sweep that releases the graph as it goes.

    `root` is a scalar loss, which starts with gradient 1, or a list of
    cut tensors (see `cut`), which are cuts no more and continue with the
    gradient each has gathered. Gradients accumulate into the `.grad` of
    the leaves reached (parameters and inputs that require gradients) and
    of the cuts passed. A parameter the sweep does not reach keeps its
    `grad`, None before the first sweep, which `adamw_step` reads as a
    zero gradient.

    Every other node gives up its `.grad`, its vjp and its parent links
    once its vjp has run, so memory falls as the sweep goes. Its vjp
    becomes a stub that raises `UsageError`: a second sweep through a
    released graph fails instead of leaving the gradients as they were.
    """
    if isinstance(root, Tensor):
        if root.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {root.shape}")
        root.grad = np.ones_like(root.data)
        roots = [root]
    else:
        roots = list(root)
        if not all(t._cut for t in roots):
            raise UsageError("backward continues only from cut tensors")
        for t in roots:
            t._cut = False
    order = _topological_order(roots)
    while order:
        node = order.pop()
        vjp, parents, g = node._vjp, node._parents, node.grad
        if vjp is None:
            continue
        node.grad, node._vjp, node._parents = None, _spent, ()
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None:
                continue
            if not (parent.requires_grad or parent._vjp is not None):
                continue
            # accumulation always allocates, so aliasing pg is safe
            parent.grad = pg if parent.grad is None else parent.grad + pg
