"""Shared test utilities: random instances, brute-force oracles, dense views.

The oracles deliberately use plain loops and explicit set scans so they
stay independent of the library's vectorized or dict-based shortcuts.
"""

import numpy as np

from sggkit.autodiff import ShapeError, Tape, _finish, add, linear_map, matmul, relu, uniform_init
from sggkit.data import _STREAM_APPEAR, _STREAM_LOGITS
from sggkit.fusion import ORDERS
from sggkit.metrics import GroundTruthGraph, rank_triplets
from sggkit.propagation import a_tilde_product, build_adjacency


def drawn(rng):
    """A param callable for the component inits that draws each matrix from rng, as Model does."""
    return lambda name, rows, cols, fan_in=None: uniform_init(rng, rows, cols, fan_in)


def grad_check(f, params, eps=1e-5):
    """Compare tape gradients of a scalar-valued callable against central differences.

    f is called with no arguments and must return a 1x1 Matrix built from the
    primitives in sggkit.autodiff. Returns the worst relative error
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


# ---------------------------------------------------------------------------
# record-per-operation oracles: the tape ops and chains that autodiff.lih and
# autodiff.gih fuse, recorded as the library recorded them before


def concat_rows(mats):
    """The rows of mats stacked, as one record whose backward hands each its row block."""
    if not mats:
        raise ShapeError("concat_rows: empty input list")
    for m in mats:
        if m.cols != mats[0].cols:
            raise ShapeError(f"concat_rows: column counts differ, {mats[0].shape} vs {m.shape}")
    offsets = np.cumsum([0] + [m.rows for m in mats])

    def backward(g):
        for m, lo, hi in zip(mats, offsets[:-1], offsets[1:]):
            m.accumulate(g[lo:hi, :])

    return _finish("concat_rows", np.concatenate([m.data for m in mats], axis=0), backward)


def slice_rows(a, start, stop):
    """Rows [start, stop) of a copied out, as one record whose backward pads g with zeros."""
    if not (0 <= start <= stop <= a.rows):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[start:stop, :] = g
        a.accumulate(buf)

    return _finish("slice_rows", a.data[start:stop, :].copy(), backward)


def _triple_rows(name, q, k, v):
    """M for q, k and v whose rows i, M+i and 2M+i form triple i, or a ShapeError naming name."""
    if q.shape != k.shape or v.rows != q.rows or q.rows % 3:
        raise ShapeError(
            f"{name}: q {q.shape}, k {k.shape} and v {v.shape} need q and k of one shape "
            f"and the same row count, divisible by 3, on all three"
        )
    return q.rows // 3


def triple_attention(q, k, v):
    """Softmax attention inside triples of rows (rows i, M+i and 2M+i form triple i), one record.

    Batched matmuls over [triple, role, d] views, in autodiff.lih's float order.
    """
    m = _triple_rows("triple_attention", q, k, v)
    qt, kt, vt = (a.data.reshape(3, m, a.cols).transpose(1, 0, 2) for a in (q, k, v))
    logits = np.matmul(qt, kt.transpose(0, 2, 1)).transpose(1, 2, 0)  # [role, attended role, triple]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    alpha_t = alpha.transpose(2, 0, 1)  # [triple, role, attended role]
    out_data = np.matmul(alpha_t, vt).transpose(1, 0, 2).reshape(v.shape)

    def backward(g):
        gt = g.reshape(3, m, v.cols).transpose(1, 0, 2)
        d_alpha = np.matmul(gt, vt.transpose(0, 2, 1)).transpose(1, 2, 0)
        d_logits = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
        d_logits_t = d_logits.transpose(2, 0, 1)
        q.accumulate(np.matmul(d_logits_t, kt).transpose(1, 0, 2).reshape(q.shape))
        k.accumulate(np.matmul(d_logits_t.transpose(0, 2, 1), qt).transpose(1, 0, 2).reshape(k.shape))
        v.accumulate(np.matmul(alpha_t.transpose(0, 2, 1), gt).transpose(1, 0, 2).reshape(v.shape))

    return _finish("triple_attention", out_data, backward)


def einsum_triple_attention(q, k, v):
    """triple_attention as einsums over [role, triple, d] views: the attention autodiff.lih ran
    before its batched matmuls, kept as the reference they must match within 1e-12."""
    m = _triple_rows("einsum_triple_attention", q, k, v)
    qs, ks, vs = (a.data.reshape(3, m, a.cols) for a in (q, k, v))
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

    return _finish("einsum_triple_attention", out_data, backward)


def chain_lih(s, o, u, w_q, w_k, w_v, w_f, attention=triple_attention):
    """autodiff.lih as 10 records: concat_rows, the q, k and v matmuls, attention
    (triple_attention, or its einsum reference), the output-map matmul, the residual add and
    three slice_rows."""
    m = s.rows
    x = concat_rows([s, o, u])
    q = matmul(x, w_q)
    k = matmul(x, w_k)
    v = matmul(x, w_v)
    z = add(matmul(attention(q, k, v), w_f), x)
    return slice_rows(z, 0, m), slice_rows(z, m, 2 * m), slice_rows(z, 2 * m, 3 * m)


def mix_rows(g, mix):
    """mix(g.data) as one record, for a symmetric mixing operator: its backward hands g mix(grad)."""

    def backward(grad):
        g.accumulate(mix(grad))

    return _finish("mix_rows", mix(g.data), backward)


def chain_gih(nodes, edges, params):
    """propagation.gih_forward as separate records: concat_rows, per layer mix_rows by the block
    product A~ G, matmul(., w) and relu, an add per even layer, and two slice_rows."""
    n = nodes.rows
    mix = a_tilde_product(n)
    prev = {0: concat_rows([nodes, edges])}
    for l, (w,) in enumerate(params.layers, start=1):
        h = relu(matmul(mix_rows(prev[l - 1], mix), w))
        prev[l] = h if l % 2 == 1 else add(prev[l - 2], h)
    out = prev[len(params.layers)]
    return slice_rows(out, 0, n), slice_rows(out, n, n * n)


def chain_cosine_rows(e, r, g):
    """autodiff.cosine_rows as separate mul, row_sum, pow_const and div records: the
    cosines of the row pairs of e and r, and the gradient handed to e for output gradient g.

    Each line is one record's forward or backward numpy expression; `+ 0.0` is the copy an
    accumulate makes.
    """
    d = e.shape[1]
    dots = (e * r).sum(axis=1, keepdims=True)  # row_sum(mul(e, r))
    sq = (e * e).sum(axis=1, keepdims=True)  # row_sum(mul(e, e))
    e_norm = sq ** 0.5  # pow_const(sq, 0.5)
    r_norm = np.sqrt((r ** 2).sum(axis=1, keepdims=True))  # a Constant
    den = e_norm * r_norm  # mul(e_norm, r_norm)
    cos = dots / den  # div(dots, den)
    g_dots = g / den + 0.0  # div backward
    g_den = -g * cos / den + 0.0
    g_e_norm = g_den * r_norm + 0.0  # mul backward; r_norm takes no gradient
    g_sq = g_e_norm * 0.5 * sq ** (0.5 - 1.0) + 0.0  # pow_const backward
    g_ee = np.repeat(g_sq, d, axis=1) + 0.0  # row_sum backward
    g_er = np.repeat(g_dots, d, axis=1) + 0.0
    grad = g_ee * e + 0.0  # mul(e, e) backward sends g_ee * e to e twice
    grad += g_ee * e
    grad += g_er * r  # mul(e, r) backward
    return cos, grad


def loop_psi(parts, w0, b0, w1, b1):
    """psi on [parts[0]||parts[1]||...] as separate records: the first layer is a sum of
    part @ (its row block of w0, cut with slice_rows) plus b0, never one shared product."""
    d = parts[0].cols
    pre = None
    for j, part in enumerate(parts):
        block = slice_rows(w0, j * d, (j + 1) * d)
        pre = linear_map(part, block, b0) if pre is None else add(pre, matmul(part, block))
    return linear_map(relu(pre), w1, b1)


def loop_encode_edges(z_s, z_o, z_u, params):
    """fusion.encode_edges with psi run once per arrangement and the outputs summed in order,
    each variant written out as the fusion module docstring states it."""
    psi = params.psi
    if params.variant == "union":
        return loop_psi([z_u], *psi)
    if params.variant == "concat":
        return loop_psi([z_s, z_o, z_u], *psi)
    if params.variant == "sequential":
        return loop_psi([loop_psi([z_s, z_o], *params.pre), z_u], *psi)
    roles = (z_s, z_o, z_u)
    total = None
    for order in ORDERS["parallel"]:
        term = loop_psi([roles[r] for r in order], *psi)
        total = term if total is None else add(total, term)
    return total


def brute_top_k(pred, k):
    best = {}
    for s, o, p, score in pred:
        if (s, o, p) not in best or score > best[(s, o, p)]:
            best[(s, o, p)] = score
    order = sorted(best.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1], kv[0][2]))
    return [trip for trip, _ in order[:k]]


def loop_ranked_from_scores(edge_index, edge_probs, graph_constraint=True):
    """ranked_from_scores one edge at a time: a tuple per edge (or per edge
    and predicate), ranked by rank_triplets."""
    probs = np.asarray(edge_probs, dtype=float)
    scored = []
    for row, (s, o) in enumerate(edge_index):
        if graph_constraint:
            p = int(np.argmax(probs[row, 1:])) + 1
            scored.append((s, o, p, float(probs[row, p])))
        else:
            for p in range(1, probs.shape[1]):
                scored.append((s, o, p, float(probs[row, p])))
    return rank_triplets(scored)


def brute_recall(pred, gt, k):
    top = brute_top_k(pred, k)
    hits = 0
    for trip in gt.triplets:
        if trip in top:
            hits += 1
    return hits / len(gt.triplets)


def brute_mean_recall(preds, gts, k):
    cats = set()
    for gt in gts:
        for _, _, p in gt.triplets:
            cats.add(p)
    recalls = []
    for cat in cats:
        hits = total = 0
        for pred, gt in zip(preds, gts):
            top = brute_top_k(pred, k)
            for trip in gt.triplets:
                if trip[2] == cat:
                    total += 1
                    if trip in top:
                        hits += 1
        recalls.append(hits / total)
    return sum(recalls) / len(recalls)


def brute_pairwise_recall(pred, gt, k):
    top = brute_top_k(pred, k)
    matched = total = 0
    for i, j in gt.bidirectional_pairs:
        total += 1
        if (i, j, gt.edges[(i, j)]) in top and (j, i, gt.edges[(j, i)]) in top:
            matched += 1
    return matched / total


def brute_symmetry_split(gt):
    asym, sym = [], []
    for i, j in gt.bidirectional_pairs:
        (sym if gt.edges[(i, j)] == gt.edges[(j, i)] else asym).append((i, j))
    return asym, sym


def make_random_instance(rng, n_predicates=6, max_triplets=16, max_pairs=6):
    """A random ground truth (with some bidirectional pairs) plus predictions.

    Predictions mix true triplets, corrupted ones, and pure noise, with
    scores drawn so ties occur. Ground truth stays within the advertised
    triplet and pair budgets.
    """
    n_nodes = int(rng.integers(3, 8))
    edges = {}
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    rng.shuffle(pairs)
    n_bidir = int(rng.integers(1, max_pairs + 1))
    budget = max_triplets
    for idx, (i, j) in enumerate(pairs):
        if budget <= 0:
            break
        if idx < n_bidir and budget >= 2:
            edges[(i, j)] = int(rng.integers(1, n_predicates + 1))
            edges[(j, i)] = int(rng.integers(1, n_predicates + 1))
            budget -= 2
        elif rng.random() < 0.4:
            s, o = (i, j) if rng.random() < 0.5 else (j, i)
            edges[(s, o)] = int(rng.integers(1, n_predicates + 1))
            budget -= 1
    gt = GroundTruthGraph(edges, sorted({(min(s, o), max(s, o)) for s, o in edges if (o, s) in edges}))
    pred = []
    for (s, o), p in edges.items():
        if rng.random() < 0.7:
            pred.append((s, o, p, float(rng.integers(0, 8))))
        if rng.random() < 0.5:
            pred.append((s, o, int(rng.integers(1, n_predicates + 1)), float(rng.integers(0, 8))))
    for _ in range(int(rng.integers(0, 12))):
        s, o = rng.choice(n_nodes, size=2, replace=False)
        pred.append((int(s), int(o), int(rng.integers(1, n_predicates + 1)), float(rng.integers(0, 8))))
    rng.shuffle(pred)
    return pred, gt


def split_pairs_by_symmetry(gt):
    """Partition bidirectional pairs into (asymmetric, symmetric).

    A pair is symmetric when both directions carry the same predicate label.
    """
    asym, sym = [], []
    for i, j in gt.bidirectional_pairs:
        if gt.edges[(i, j)] == gt.edges[(j, i)]:
            sym.append((i, j))
        else:
            asym.append((i, j))
    return asym, sym


def cluster_stats(embeddings, labels):
    """Mean cosine over same-label pairs and over different-label pairs."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] != emb.shape[0]:
        raise ValueError(f"labels shape {labels.shape} does not match {emb.shape[0]} embeddings")
    if len(set(labels.tolist())) < 2:
        raise ValueError("cluster_stats needs at least two categories")
    norms = np.sqrt((emb ** 2).sum(axis=1, keepdims=True))
    if (norms == 0.0).any():
        raise ValueError("cluster_stats: zero-norm embedding has no cosine")
    unit = emb / norms
    cos = unit @ unit.T
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones_like(cos, dtype=bool), k=1)
    intra_mask = same & upper
    inter_mask = ~same & upper
    if not intra_mask.any():
        raise ValueError("cluster_stats: no same-category pair present")
    return float(cos[intra_mask].mean()), float(cos[inter_mask].mean())


# ---------------------------------------------------------------------------
# block adjacency: the complete graph's A + I and the per-edge loop oracle


def complete_a_tilde(n):
    """A + I of every ordered pair of n nodes, assembled from its blocks [[J, B], [B^T, I + P]] with
    build_adjacency's subjects, objects and opposites: the dense oracle of propagation.a_tilde_product."""
    subjects, objects, opposite = build_adjacency(n)
    m = subjects.size
    incidence = np.zeros((n, m))
    incidence[subjects, np.arange(m)] = 1.0
    incidence[objects, np.arange(m)] = 1.0
    return np.block([[np.ones((n, n)), incidence], [incidence.T, np.eye(m) + np.eye(m)[opposite]]])


def loop_a_tilde(n_nodes, edges):
    """A + I of any directed edge list, filled one edge at a time; each edge links to
    every opposite copy. The oracle for complete_a_tilde, and the adjacency of the
    sparse-graph tests of autodiff.gih."""
    m = len(edges)
    a = np.zeros((n_nodes + m, n_nodes + m))
    reverse = {}
    for mi, (s, o) in enumerate(edges):
        a[s, o] = a[o, s] = 1.0
        a[s, n_nodes + mi] = a[o, n_nodes + mi] = 1.0
        a[n_nodes + mi, s] = a[n_nodes + mi, o] = 1.0
        reverse.setdefault((s, o), []).append(mi)
    for mi, (s, o) in enumerate(edges):
        for mj in reverse.get((o, s), ()):
            a[n_nodes + mi, n_nodes + mj] = 1.0
    np.fill_diagonal(a, 1.0)
    return a


# ---------------------------------------------------------------------------
# feature synthesis: the per-node oracle, one default_rng per node and stream


def appearance(fp, node):
    """A node's appearance without the scene offset: prototype plus sigma times its own noise."""
    rng = np.random.default_rng([_STREAM_APPEAR, fp.seed, node.appearance_seed])
    return fp.prototype(node.label) + fp.appearance_sigma * rng.standard_normal(fp.d_appearance)


def observed_label(fp, node):
    """The label a noisy upstream classifier would report for this node."""
    rng = np.random.default_rng([_STREAM_LOGITS, fp.seed, node.appearance_seed])
    if fp.logit_flip_rate > 0.0 and rng.random() < fp.logit_flip_rate:
        wrong = int(rng.integers(1, fp.n_entity_categories - 1))
        if wrong >= node.label:
            wrong += 1
        return wrong
    return node.label


def class_logits(fp, node):
    logits = np.zeros(fp.n_entity_categories)
    logits[observed_label(fp, node)] = fp.logit_scale
    return logits


# ---------------------------------------------------------------------------
# scene preparation: the per-edge loop oracle


def loop_prepare_scene(record, fp):
    """prepare_scene's arrays built node by node and edge by edge.

    Returns a dict keyed like the PreparedScene fields it covers, plus the
    dense "a_tilde" of the scene's candidate graph.
    """
    offset = fp.scene_offset(record.scene_id)
    props = [(appearance(fp, node) + offset, np.asarray(node.box, dtype=float), class_logits(fp, node))
             for node in record.nodes]
    n = len(props)
    node_inputs = np.stack([np.concatenate(p) for p in props])
    ids = [node.id for node in record.nodes]
    row_of = {node_id: row for row, node_id in enumerate(ids)}
    edge_index = [(ids[i], ids[j]) for i in range(n) for j in range(n) if i != j]
    annotated = {(e.subject, e.object): e.predicate for e in record.edges}
    union_rows = []
    for s, o in edge_index:
        (app_a, box_a, _), (app_b, box_b, _) = props[row_of[s]], props[row_of[o]]
        if o < s:
            (app_a, box_a), (app_b, box_b) = (app_b, box_b), (app_a, box_a)
        cover = np.array([
            min(box_a[0], box_b[0]), min(box_a[1], box_b[1]),
            max(box_a[2], box_b[2]), max(box_a[3], box_b[3]),
        ])
        union_rows.append(np.concatenate([app_a, app_b, cover]))
    union_inputs = np.stack(union_rows) if union_rows else np.zeros((0, 2 * fp.d_appearance + 4))
    node_labels = np.array([node.label for node in record.nodes], dtype=np.int64)
    edge_labels = np.array([annotated.get(pair, 0) for pair in edge_index], dtype=np.int64)
    rows = [(row_of[s], row_of[o]) for s, o in edge_index]
    return {
        "node_inputs": node_inputs,
        "union_inputs": union_inputs,
        "edge_index": np.array(edge_index, dtype=np.int64).reshape(-1, 2),
        "subjects": np.array([s for s, _ in rows], dtype=np.int64),
        "objects": np.array([o for _, o in rows], dtype=np.int64),
        "node_labels": node_labels,
        "edge_labels": edge_labels,
        "a_tilde": loop_a_tilde(n, rows),
    }
