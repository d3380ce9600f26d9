"""Dense float64 matrices with tape-based reverse-mode differentiation.

Everything learnable in this package is built from the primitives below.
A primitive computes its output eagerly with numpy and, when a Tape is
active, records a closure that propagates the output gradient back to its
inputs. Replaying the tape in reverse therefore visits operations in the
exact reverse order of recording. Outputs that never receive a gradient
keep grad None and their closures are skipped, so unused branches cost
nothing and contribute zero.

Every primitive checks its output and raises NumericError naming itself
when a value is not finite, with or without an active tape. linear_map
(x @ W + b) is one primitive, so an affine layer records one entry.

A Constant is a Matrix of data (inputs, targets, adjacencies) that never
holds a gradient; matmul, mul and linear_map do not even compute one for
it. A Constant built from a 2-D C-contiguous float64 array shares that
array instead of copying it, so the array must not be mutated while the
Constant is in use.

Active tapes form one module-level stack; primitives record onto the
innermost.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not agree for the requested primitive."""


class NumericError(ArithmeticError):
    """A primitive produced a non-finite value."""


_stack: list[Tape] = []  # active tapes, innermost last


class Matrix:
    """A 2-D float64 value with a lazily allocated gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"Matrix must be 2-D, got array of shape {arr.shape}")
        self.data = arr
        self.grad = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def accumulate(self, g) -> None:
        if self.grad is None:
            self.grad = g + 0.0  # own copy (add passes one g to both operands); -0.0 -> +0.0
        else:
            self.grad += g

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


class Constant(Matrix):
    """A leaf matrix of data: its grad stays None.

    A 2-D C-contiguous float64 ndarray is shared, not copied; anything else
    is converted as Matrix does.
    """

    __slots__ = ()

    def __init__(self, data):
        if type(data) is np.ndarray and data.ndim == 2 and data.dtype == np.float64 and data.flags.c_contiguous:
            self.data = data
            self.grad = None
        else:
            super().__init__(data)

    def accumulate(self, g) -> None:
        pass


def _wrap(arr: np.ndarray) -> Matrix:
    out = Matrix.__new__(Matrix)
    out.data = arr
    out.grad = None
    return out


class Tape:
    """Records primitive applications for one backward replay."""

    def __init__(self):
        self.records = []  # (op name, output Matrix, backward closure)

    def __enter__(self) -> "Tape":
        _stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _stack.pop()
        if popped is not self:
            raise RuntimeError("Tape stack corrupted: exited a tape that is not innermost")
        return False

    def backward(self, loss: Matrix) -> None:
        """Seed d(loss)/d(loss) = 1 and replay all records in reverse."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward() needs a 1x1 loss, got {loss.shape}")
        loss.grad = np.ones((1, 1))
        for _name, out, fn in reversed(self.records):
            g = out.grad
            if g is not None:
                fn(g)


def _finish(name: str, out_data: np.ndarray, backward) -> Matrix:
    if not np.isfinite(out_data).all():
        raise NumericError(f"{name} produced a non-finite value")
    out = _wrap(out_data)
    if _stack:
        _stack[-1].records.append((name, out, backward))
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if not isinstance(a, Constant):
            a.accumulate(g @ b.data.T)
        if not isinstance(b, Constant):
            b.accumulate(a.data.T @ g)

    return _finish("matmul", out_data, backward)


def transpose(a: Matrix) -> Matrix:
    out_data = np.ascontiguousarray(a.data.T)

    def backward(g):
        a.accumulate(g.T)

    return _finish("transpose", out_data, backward)


def add(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise add of equal shapes; linear_map adds a bias row."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    return _finish("add", a.data + b.data, backward)


def scale(a: Matrix, c: float) -> Matrix:
    c = float(c)

    def backward(g):
        a.accumulate(c * g)

    return _finish("scale", c * a.data, backward)


def mul(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):
        if not isinstance(a, Constant):
            a.accumulate(g * b.data)
        if not isinstance(b, Constant):
            b.accumulate(g * a.data)

    return _finish("mul", a.data * b.data, backward)


def div(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data / b.data

    def backward(g):
        a.accumulate(g / b.data)
        b.accumulate(-g * out_data / b.data)

    return _finish("div", out_data, backward)


def pow_const(a: Matrix, p: float) -> Matrix:
    p = float(p)

    def backward(g):
        a.accumulate(g * p * a.data ** (p - 1.0))

    return _finish("pow_const", a.data ** p, backward)


def relu(a: Matrix) -> Matrix:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a.accumulate(g * (a.data > 0.0))

    return _finish("relu", out_data, backward)


def leaky_relu(a: Matrix, alpha: float = 0.2) -> Matrix:
    alpha = float(alpha)
    pos = a.data > 0.0
    out_data = np.where(pos, a.data, alpha * a.data)

    def backward(g):
        a.accumulate(g * np.where(pos, 1.0, alpha))

    return _finish("leaky_relu", out_data, backward)


def softmax_rows(a: Matrix) -> Matrix:
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        a.accumulate(out_data * (g - dot))

    return _finish("softmax_rows", out_data, backward)


def masked_softmax_rows(a: Matrix, mask: np.ndarray) -> Matrix:
    """Row softmax restricted to mask==True entries; masked entries get 0."""
    m = np.asarray(mask, dtype=bool)
    if m.shape != a.shape:
        raise ShapeError(f"masked_softmax_rows: mask {m.shape} does not match {a.shape}")
    if not m.any(axis=1).all():
        raise ShapeError("masked_softmax_rows: a row has no unmasked entries")
    z = np.where(m, a.data, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.where(m, np.exp(z), 0.0)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        a.accumulate(out_data * (g - dot))

    return _finish("masked_softmax_rows", out_data, backward)


def triple_attention(q: Matrix, k: Matrix, v: Matrix) -> Matrix:
    """Softmax attention inside triples of rows; rows i, M+i and 2M+i form triple i.

    Each row weighs the three v rows of its own triple by the softmax of its
    q row dotted with their k rows (no scaling). This equals a row softmax
    of q k^T masked to the triples, at 9M dot products instead of (3M)^2.
    """
    if q.shape != k.shape or v.rows != q.rows or q.rows % 3:
        raise ShapeError(
            f"triple_attention: q {q.shape}, k {k.shape} and v {v.shape} need q and k of one shape "
            f"and the same row count, divisible by 3, on all three"
        )
    m = q.rows // 3
    qs = q.data.reshape(3, m, q.cols)
    ks = k.data.reshape(3, m, k.cols)
    vs = v.data.reshape(3, m, v.cols)
    logits = np.einsum("rid,cid->ric", qs, ks)  # [role, triple, attended role]
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    alpha = e / e.sum(axis=2, keepdims=True)
    out_data = np.einsum("ric,cid->rid", alpha, vs).reshape(v.shape)

    def backward(g):
        gs = g.reshape(3, m, v.cols)
        d_alpha = np.einsum("rid,cid->ric", gs, vs)
        d_logits = alpha * (d_alpha - (d_alpha * alpha).sum(axis=2, keepdims=True))
        q.accumulate(np.einsum("ric,cid->rid", d_logits, ks).reshape(q.shape))
        k.accumulate(np.einsum("ric,rid->cid", d_logits, qs).reshape(k.shape))
        v.accumulate(np.einsum("ric,rid->cid", alpha, gs).reshape(v.shape))

    return _finish("triple_attention", out_data, backward)


def log_softmax_rows(a: Matrix) -> Matrix:
    z = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out_data = z - lse

    def backward(g):
        soft = np.exp(out_data)
        a.accumulate(g - soft * g.sum(axis=1, keepdims=True))

    return _finish("log_softmax_rows", out_data, backward)


def sum_all(a: Matrix) -> Matrix:
    def backward(g):
        a.accumulate(np.full_like(a.data, g[0, 0]))

    return _finish("sum_all", a.data.sum().reshape(1, 1), backward)


def row_sum(a: Matrix) -> Matrix:
    """Sum across columns, one value per row (n x 1)."""

    def backward(g):
        a.accumulate(np.repeat(g, a.cols, axis=1))

    return _finish("row_sum", a.data.sum(axis=1, keepdims=True), backward)


def concat_cols(mats: list[Matrix]) -> Matrix:
    if not mats:
        raise ShapeError("concat_cols: empty input list")
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise ShapeError(f"concat_cols: row counts differ, {mats[0].shape} vs {m.shape}")
    widths = [m.cols for m in mats]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        for m, lo, hi in zip(mats, offsets[:-1], offsets[1:]):
            m.accumulate(g[:, lo:hi])

    return _finish("concat_cols", np.concatenate([m.data for m in mats], axis=1), backward)


def concat_rows(mats: list[Matrix]) -> Matrix:
    if not mats:
        raise ShapeError("concat_rows: empty input list")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise ShapeError(f"concat_rows: column counts differ, {mats[0].shape} vs {m.shape}")
    heights = [m.rows for m in mats]
    offsets = np.cumsum([0] + heights)

    def backward(g):
        for m, lo, hi in zip(mats, offsets[:-1], offsets[1:]):
            m.accumulate(g[lo:hi, :])

    return _finish("concat_rows", np.concatenate([m.data for m in mats], axis=0), backward)


def slice_rows(a: Matrix, start: int, stop: int) -> Matrix:
    if not (0 <= start <= stop <= a.rows):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[start:stop, :] = g
        a.accumulate(buf)

    return _finish("slice_rows", a.data[start:stop, :].copy(), backward)


def gather_rows(a: Matrix, indices) -> Matrix:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeError(f"gather_rows: index out of range for {a.shape}")

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        a.accumulate(buf)

    return _finish("gather_rows", a.data[idx, :].copy(), backward)


def linear_map(x: Matrix, w: Matrix, b: Matrix | None = None) -> Matrix:
    """x @ w (+ b broadcast over rows) as one primitive; without b it is matmul."""
    if x.cols != w.rows:
        raise ShapeError(f"linear_map: input {x.shape} does not match weight {w.shape}")
    if b is None:
        return matmul(x, w)
    if b.rows != 1 or b.cols != w.cols:
        raise ShapeError(f"linear_map: bias {b.shape} does not match weight {w.shape}")

    def backward(g):
        b.accumulate(g.sum(axis=0, keepdims=True))
        g = g + 0.0  # a fresh array, as add handed matmul, keeps gradients byte-identical to that pair
        if not isinstance(x, Constant):
            x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)

    return _finish("linear_map", x.data @ w.data + b.data, backward)


# ---------------------------------------------------------------------------
# initialization and checking


def uniform_init(rng: np.random.Generator, rows: int, cols: int, fan_in: int | None = None) -> Matrix:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; fan_in defaults to rows."""
    fan = rows if fan_in is None else fan_in
    if fan < 1:
        raise ShapeError(f"uniform_init: fan_in must be positive, got {fan}")
    bound = 1.0 / np.sqrt(fan)
    return Matrix(rng.uniform(-bound, bound, size=(rows, cols)))


def grad_check(f, params: list[Matrix], eps: float = 1e-5) -> float:
    """Compare tape gradients of a scalar-valued callable against central differences.

    f is called with no arguments and must return a 1x1 Matrix built from the
    primitives in this module. Returns the worst relative error
    |analytic - numeric| / max(1, |numeric|) over every entry of every param.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise ValueError(f"grad_check: eps must lie in [1e-7, 1e-4], got {eps}")
    for p in params:
        p.grad = None
    with Tape() as tape:
        out = f()
        if out.shape != (1, 1):
            raise ShapeError(f"grad_check: f must return a 1x1 matrix, got {out.shape}")
    tape.backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f().item()
            flat[i] = orig - eps
            f_minus = f().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ga.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    for p in params:
        p.grad = None
    return worst
