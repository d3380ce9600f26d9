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
(x @ W + b) is one primitive, so an affine layer records one entry, and
arranged_mlp, a shared MLP summed over arrangements of its role inputs,
is one entry for every fusion variant. lih (attention inside triples of
rows) and gih (joint node/edge message passing) are one entry each for a
whole module. These three kernels also check an intermediate where a relu
or exp could hide a non-finite value or a sum could overflow (inf * 0 is
NaN, so a product cannot hide one). They run under
np.errstate(over="ignore", invalid="ignore"), so a non-finite value inside
one raises only the NumericError naming the kernel.

A record holds one output Matrix. lih and gih return row blocks of theirs
(RowBlock): Matrices whose data is a view of the output's rows and whose
accumulate adds into the output's gradient, so Tape.backward replays the
record once, and skips it when no block received a gradient.

A Constant is a Matrix of data (inputs, targets, adjacencies) that never
holds a gradient; matmul, mul, linear_map and arranged_mlp do not even
compute one for it, and cosine_rows takes its second operand only as a
Constant. A Constant built from a 2-D C-contiguous float64 array shares
that array instead of copying it, so the array must not be mutated while
the Constant is in use.

Active tapes form one module-level stack; primitives record onto the
innermost.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

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


class RowBlock(Matrix):
    """Rows [start, stop) of a primitive's recorded output, used as a Matrix of its own.

    data is a view into the output's data. A gradient handed to the block is
    added into the output's gradient, which starts as zeros, so the record
    replays once for all its blocks, and not at all when none receives a
    gradient. A block's own grad stays None.
    """

    __slots__ = ("whole", "start", "stop")

    def __init__(self, whole: Matrix, start: int, stop: int):
        self.data, self.grad = whole.data[start:stop], None
        self.whole, self.start, self.stop = whole, start, stop

    def accumulate(self, g) -> None:
        whole = self.whole
        if whole.grad is None:
            whole.grad = np.zeros_like(whole.data)
        whole.grad[self.start : self.stop] += g


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


def _checked(name: str, data: np.ndarray) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericError(f"{name} produced a non-finite value")
    return data


def _finish(name: str, out_data: np.ndarray, backward) -> Matrix:
    out = _wrap(_checked(name, out_data))
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


@functools.cache
def _arrangement_plan(orders: tuple[tuple[int, ...], ...]):
    """arranged_mlp's products for one table: the distinct (role, block) pairs, sorted; per
    product, the orders that use it, ascending; the product indices by position, then role."""
    if not orders or any(len(order) != len(orders[0]) for order in orders):
        raise ShapeError(f"arranged_mlp: the orders must be non-empty and of one length, got {orders}")
    products = sorted({(r, j) for order in orders for j, r in enumerate(order)})
    uses = [[k for k, order in enumerate(orders) if order[j] == r] for r, j in products]
    by_position = sorted(range(len(products)), key=lambda i: products[i][1])
    return products, uses, by_position


@np.errstate(over="ignore", invalid="ignore")  # the checks below report non-finite values
def arranged_mlp(roles: tuple[Matrix, ...], orders: tuple[tuple[int, ...], ...], w0: Matrix, b0: Matrix,
                 w1: Matrix, b1: Matrix) -> Matrix:
    """The sum over orders of psi([roles in that order]), for role inputs of one shape (M, d).

    An order lists indices into roles; all orders have one length n, and w0
    has n row blocks of d rows, one per input position. psi(x) is
    relu(x @ w0 + b0) @ w1 + b1. x @ w0 sums each position's role times
    that position's block, so each distinct (role, block) product is formed
    once however many orders share it (parallel fusion's three orders share
    seven). The products are formed position by position into one reused
    (M, h) buffer, which is copied into each order that uses it at position
    0 and added at later ones. psi's second layer is linear, so it runs once
    on the summed activations, plus K b1 for K orders.

    Checked: the pre-activations, since relu turns -inf into 0; the summed
    activations, which can overflow; the output. Each role product is a
    summand of a pre-activation, so it is not checked on its own.

    Float order: an order's pre-activation is P0 + P1, then += P2, then
    + b0; a product's gradient sums the orders that use it in table order;
    a role's gradient folds its products by block, and a block of w0's by
    role. Trained models depend on that order to the last digit
    (tools/output_digests.py checks).
    """
    products, uses, by_position = _arrangement_plan(orders)
    n = len(orders[0])
    m, d = roles[0].shape
    h = w0.cols
    if (any(x.shape != (m, d) for x in roles) or w0.rows != n * d
            or b0.shape != (1, h) or w1.rows != h or b1.shape != (1, w1.cols)):
        shapes = ", ".join(str(x.shape) for x in (*roles, w0, b0, w1, b1))
        raise ShapeError(f"arranged_mlp: the roles need one shape (M, d) and the layers must chain "
                         f"from {n}d columns, got {shapes}")
    blocks = [w0.data[j * d : (j + 1) * d] for j in range(n)]
    pre = np.empty((len(orders), m, h))  # one pre-activation per order
    prod = np.empty((m, h))
    for i in by_position:
        r, j = products[i]
        np.matmul(roles[r].data, blocks[j], out=prod)
        for k in uses[i]:
            if j:
                pre[k] += prod
            else:
                pre[k] = prod
    pre += b0.data
    _checked("arranged_mlp", pre)
    n_orders = float(len(orders))
    np.maximum(pre, 0.0, out=pre)  # in place: pre > 0.0 still marks the active units
    act_sum = _checked("arranged_mlp", pre.sum(axis=0, out=prod))  # the product buffer is free
    out_data = act_sum @ w1.data
    out_data += n_orders * b1.data

    def backward(g):
        b1.accumulate(n_orders * g.sum(axis=0, keepdims=True))
        w1.accumulate(act_sum.T @ g)
        d_pre = (pre > 0.0) * (g @ w1.data.T)
        b0.accumulate(d_pre.sum(axis=(0, 1)).reshape(1, h))
        d_roles, d_blocks = {}, [None] * n
        for (r, j), (first, *rest) in zip(products, uses):  # by role, then block
            d_prod = d_pre[first]
            for k in rest:
                d_prod = d_prod + d_pre[k]
            if not isinstance(roles[r], Constant):
                term = d_prod @ blocks[j].T
                d_roles[r] = term if r not in d_roles else d_roles[r] + term
            term = roles[r].data.T @ d_prod
            d_blocks[j] = term if d_blocks[j] is None else d_blocks[j] + term
        for r, d_role in d_roles.items():
            roles[r].accumulate(d_role)
        w0.accumulate(np.concatenate(d_blocks))

    return _finish("arranged_mlp", out_data, backward)


@np.errstate(over="ignore", invalid="ignore")  # the checks below report non-finite values
def lih(s: Matrix, o: Matrix, u: Matrix, w_q: Matrix, w_k: Matrix, w_v: Matrix,
        w_f: Matrix) -> tuple[RowBlock, RowBlock, RowBlock]:
    """Attention inside triples of rows: the refined s, o and u, as row blocks of one (3M, D) output.

    Row i of s, o and u (M x D each) forms triple i. With x = [s; o; u],
    q, k and v are x @ w_q, x @ w_k and x @ w_v (D x D_att each). Each row
    weighs the three v rows of its own triple by the softmax of its q row
    dotted with their k rows (no scaling), so 9M dot products stand in for
    a (3M)^2 masked softmax. The output is that attended value mapped back by
    w_f (D_att x D), plus x, so a zero w_f makes lih an exact identity.

    Checked: the logits, since exp turns a -inf logit into a weight of 0,
    and the output. q and k reach the logits, and v, the attended values
    and the output map reach the output, only through products or a sum
    with x, so they are not checked on their own.

    Each attention product is one np.matmul batched over triples, on
    [triple, role, d] views of the (3M, d) arrays, written through out=
    views. Logits and weights are stored [role, attended role, triple], so
    the softmax reduces over a middle axis, not over three strided floats.

    Float order: that of the record-per-operation chain (concat, three
    matmuls, the batched attention matmuls, matmul, add) kept as the test
    oracle, down to x's gradient, which is g + 0.0, then += dv @ w_v.T,
    += dk @ w_k.T and += dq @ w_q.T. Trained models depend on that order to
    the last digit (tools/output_digests.py checks); the tests keep the
    replaced einsums as a 1e-12 reference.
    """
    if (not s.shape == o.shape == u.shape or w_q.shape != w_k.shape or w_v.rows != s.cols or w_q.rows != s.cols
            or w_f.shape != (w_v.cols, s.cols)):
        shapes = ", ".join(str(a.shape) for a in (s, o, u, w_q, w_k, w_v, w_f))
        raise ShapeError(f"lih: s, o and u need one shape (M, D), w_q and w_k one shape (D, D_att), "
                         f"w_v D rows and w_f shape (w_v columns, D), got {shapes}")
    m = s.rows
    x = np.concatenate([s.data, o.data, u.data])
    q, k, v = (x @ w.data for w in (w_q, w_k, w_v))

    def by_triple(a):  # a (3M, d) array as a [triple, role, d] view
        return a.reshape(3, m, a.shape[1]).transpose(1, 0, 2)

    qt, kt, vt = by_triple(q), by_triple(k), by_triple(v)
    logits = np.empty((3, 3, m))  # [role, attended role, triple]
    _checked("lih", np.matmul(qt, kt.transpose(0, 2, 1), out=logits.transpose(2, 0, 1)))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    alpha_t = alpha.transpose(2, 0, 1)  # [triple, role, attended role]
    att = np.empty(v.shape)
    np.matmul(alpha_t, vt, out=by_triple(att))

    def backward(g):
        w_f.accumulate(att.T @ g)
        gt = by_triple(g @ w_f.data.T)
        d_alpha = np.empty((3, 3, m))
        np.matmul(gt, vt.transpose(0, 2, 1), out=d_alpha.transpose(2, 0, 1))
        d_logits = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
        d_logits_t = d_logits.transpose(2, 0, 1)
        dq, dk, dv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
        np.matmul(d_logits_t, kt, out=by_triple(dq))
        np.matmul(d_logits_t.transpose(0, 2, 1), qt, out=by_triple(dk))
        np.matmul(alpha_t.transpose(0, 2, 1), gt, out=by_triple(dv))
        dx = g + 0.0
        for d, w in ((dv, w_v), (dk, w_k), (dq, w_q)):
            w.accumulate(x.T @ d)
            dx += d @ w.data.T
        for i, part in enumerate((s, o, u)):
            part.accumulate(dx[i * m : (i + 1) * m])

    out = _finish("lih", att @ w_f.data + x, backward)
    return RowBlock(out, 0, m), RowBlock(out, m, 2 * m), RowBlock(out, 2 * m, 3 * m)


@np.errstate(over="ignore", invalid="ignore")  # the checks below report non-finite values
def gih(nodes: Matrix, edges: Matrix, mix: Callable[[np.ndarray], np.ndarray], ws) -> tuple[RowBlock, RowBlock]:
    """Joint node/edge message passing: the node and edge rows of G(L), as row blocks of one output.

    G(0) is [nodes; edges] and, with w = ws[l - 1] (D x D), layer l gives
    G(l) = relu(mix(G(l-1)) @ w), plus G(l-2) at even l. mix is the graph's
    mixing operator: it maps an (n+m) x D array g to A~ g, a fresh array of
    g's shape, for an (n+m) x (n+m) matrix A~ that takes no gradient and is
    never handed over. A~ must be symmetric, since the backward applies mix
    for A~^T too.

    Checked: each mix(G) @ w, since relu turns -inf into 0; each residual
    sum, which can overflow and which a zero column of A~ would drop; the
    output. mix(G) reaches the output only through mix(G) @ w, so it is not
    checked on its own.

    Float order: that of the record-per-operation chain (concat, a mix and
    a matmul and a relu per layer, an add per even layer) kept as the test
    oracle. The backward runs layer by layer from the last: the residual's
    gradient goes to G(l-2) first, then the relu mask is applied, then
    w += mix(G(l-1)).T @ d, then G(l-1) += mix(d @ w.T). Trained models
    depend on that order to the last digit (tools/output_digests.py checks).
    """
    n, d = nodes.shape
    if edges.cols != d or any(w.shape != (d, d) for w in ws):
        shapes = ", ".join(str(a.shape) for a in (nodes, edges, *ws))
        raise ShapeError(f"gih: nodes and edges need one width D and every w shape (D, D), got {shapes}")
    mixed, pre = [], []  # mix(G(l-1)) and its product with w, per layer
    before, last = None, np.concatenate([nodes.data, edges.data])  # G(l-2), G(l-1)
    for l, w in enumerate(ws, start=1):
        mixed.append(mix(last))
        if mixed[-1].shape != last.shape:
            raise ShapeError(f"gih: mix must keep the shape {last.shape} of G, got {mixed[-1].shape}")
        pre.append(_checked("gih", mixed[-1] @ w.data))
        h = np.maximum(pre[-1], 0.0)
        if l % 2 == 0:
            h += before
            if l < len(ws):  # _finish checks the output
                _checked("gih", h)
        before, last = last, h

    def backward(g):
        grads = {len(ws): g}  # the gradient of each G(l) still to be replayed
        for l in range(len(ws), 0, -1):
            d = grads.pop(l)
            if l % 2 == 0:
                grads[l - 2] = d + 0.0
            d = d * (pre[l - 1] > 0.0)
            w = ws[l - 1]
            w.accumulate(mixed[l - 1].T @ d)
            back = mix(d @ w.data.T)
            grads[l - 1] = grads[l - 1] + back if l - 1 in grads else back
        nodes.accumulate(grads[0][:n])
        edges.accumulate(grads[0][n:])

    out = _finish("gih", last, backward)
    return RowBlock(out, 0, n), RowBlock(out, n, len(last))


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


def cosine_rows(a: Matrix, r: Constant) -> Matrix:
    """The cosine of each row of a with the same row of the constant r, as an (n, 1) column.

    cos = (a*r).sum(1) / den, with den = (a*a).sum(1) ** 0.5 * sqrt((r**2).sum(1)).
    a's gradient is t + t + (g / den) * r, with t the squared-norm term times
    a. Trained models depend on these float operations and their order to
    the last digit, so keep them as written (tools/output_digests.py checks).
    """
    if not isinstance(r, Constant):
        raise TypeError(f"cosine_rows: r must be a Constant, got {type(r).__name__}")
    if a.shape != r.shape:
        raise ShapeError(f"cosine_rows: incompatible shapes {a.shape} and {r.shape}")
    sq = (a.data * a.data).sum(axis=1, keepdims=True)
    r_norm = np.sqrt((r.data ** 2).sum(axis=1, keepdims=True))
    den = _checked("cosine_rows", sq ** 0.5 * r_norm)
    if not den.all():
        raise NumericError("cosine_rows: the norm product of a row pair is 0, so its cosine is undefined")
    out_data = (a.data * r.data).sum(axis=1, keepdims=True) / den

    def backward(g):
        t = -g * out_data / den * r_norm * 0.5 * sq ** -0.5 * a.data
        a.accumulate(t + t + g / den * r.data)

    return _finish("cosine_rows", out_data, backward)


def gather_rows(a: Matrix, indices) -> Matrix:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeError(f"gather_rows: index out of range for {a.shape}")

    def backward(g):  # each row's sum starts at 0.0 and adds in index order, as np.add.at does
        rows, cols = a.shape
        bins = (idx[:, None] * cols + np.arange(cols)).ravel()
        a.accumulate(np.bincount(bins, weights=g.ravel(), minlength=rows * cols).reshape(rows, cols))

    return _finish("gather_rows", a.data[idx, :], backward)  # fancy indexing copies


def linear_map(x: Matrix, w: Matrix, b: Matrix) -> Matrix:
    """x @ w + b, with b broadcast over rows, as one primitive."""
    if x.cols != w.rows:
        raise ShapeError(f"linear_map: input {x.shape} does not match weight {w.shape}")
    if b.rows != 1 or b.cols != w.cols:
        raise ShapeError(f"linear_map: bias {b.shape} does not match weight {w.shape}")

    def backward(g):
        b.accumulate(g.sum(axis=0, keepdims=True))
        g = g + 0.0  # a fresh array, as add handed matmul, keeps gradients byte-identical to that pair
        if not isinstance(x, Constant):
            x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)

    out_data = x.data @ w.data
    out_data += b.data
    return _finish("linear_map", out_data, backward)


# ---------------------------------------------------------------------------
# initialization


def uniform_init(rng: np.random.Generator, rows: int, cols: int, fan_in: int | None = None) -> Matrix:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; fan_in defaults to rows."""
    fan = rows if fan_in is None else fan_in
    if fan < 1:
        raise ShapeError(f"uniform_init: fan_in must be positive, got {fan}")
    bound = 1.0 / np.sqrt(fan)
    return Matrix(rng.uniform(-bound, bound, size=(rows, cols)))


# param(name, rows, cols, fan_in=None) -> Matrix: a component init's source of the matrix named `name`
Param = Callable[..., Matrix]
