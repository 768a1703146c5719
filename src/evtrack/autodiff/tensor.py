"""Define-by-run tensors with reverse-mode differentiation.

Storage is a numpy array; every primitive records its parents and a
vector-Jacobian-product closure, so the graph is rebuilt on each forward
pass. Reduction order is fixed (column lowering + a single GEMM per conv,
numpy's left-to-right reductions elsewhere), which makes forward passes
bit-deterministic for fixed inputs.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import UsageError

_DTYPES = {"f32": np.float32, "f64": np.float64}

# Global modes: compute dtype (f32 for training/inference, f64 for gradient
# checks), gradient recording, and debug finiteness checks.
_state = {"dtype": np.float32, "grad": True, "debug": False}


def default_dtype():
    return _state["dtype"]


def grad_enabled() -> bool:
    return _state["grad"]


def debug_checks() -> bool:
    return _state["debug"]


def set_debug(flag: bool) -> None:
    """Toggle NaN/Inf detection on every created tensor."""
    _state["debug"] = bool(flag)


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

    `data` is always a numpy float array; `grad`, when populated by
    `backward`, has the same shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        if debug_checks() and not np.all(np.isfinite(arr)):
            raise UsageError("tensor initialized with non-finite values")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

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

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import ops

        return ops.div(self, other)

    def __neg__(self):
        from . import ops

        return ops.neg(self)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from . import ops

        return ops.getitem(self, index)

    def sum(self, axis=None, keepdims=False):
        from . import ops

        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        from . import ops

        return ops.mean_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes):
        from . import ops

        return ops.transpose(self, axes)


def make_node(data: np.ndarray, parents, vjp) -> Tensor:
    """Wrap an op result, recording parents/vjp when grads are on."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._vjp = None
    out.requires_grad = False
    if debug_checks() and not np.all(np.isfinite(data)):
        raise UsageError("operation produced non-finite values")
    if grad_enabled():
        tracked = any(p.requires_grad or p._vjp is not None for p in parents)
        if tracked:
            out.requires_grad = any(p.requires_grad for p in parents)
            out._parents = tuple(parents)
            out._vjp = vjp
    return out


def _topological_order(root: Tensor) -> list[Tensor]:
    """Every node reachable from `root`, each once, parents before children."""
    order = []
    seen = set()
    stack = [(root, False)]
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
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, params=None) -> None:
    """Reverse-mode sweep from a scalar loss.

    Populates `.grad` on every reachable tensor that requires gradients;
    listed `params` that the loss does not reach get a zero gradient.
    """
    if loss.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_topological_order(loss)):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None:
                continue
            if not (parent.requires_grad or parent._vjp is not None):
                continue
            # accumulation always allocates, so aliasing g is safe
            parent.grad = g if parent.grad is None else parent.grad + g
    if params is not None:
        for p in params:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)
