"""End-to-end relation-graph model over detected entity proposals.

Pipeline per scene: proposal features are mapped to node vectors, every
ordered node pair becomes a candidate edge whose representation is built
from the (subject, object, union) instance triple by local attention
(LIH, one autodiff.lih record over all M triples) and a direction-aware
fusion, nodes and edges then exchange messages over the complete
candidate graph, and two linear heads read off entity and predicate
distributions.

Losses: per-node cross-entropy, a per-edge cross-entropy that gives
relation and no-relation edges equal total weight, plus the reference-bank
cosine term on post-propagation edge embeddings. Training is plain SGD
with momentum and weight decay, one scene per step, deterministic given
the config seed. A checkpoint loads only when its config validates and each
parameter holds finite numbers in the shape that config gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import (
    Constant,
    Matrix,
    NumericError,
    Param,
    Tape,
    add,
    gather_rows,
    lih,
    linear_map,
    log_softmax_rows,
    mul,
    scale,
    softmax_rows,
    sum_all,
    uniform_init,
)
from .attract_repel import (
    Negatives,
    ReferenceBank,
    attract_repel_loss,
    sample_negatives,
    update_references,
)
from .data import (MAX_SCENE_NODES, PREDICATE_NO_RELATION, ConfigSchema, GeneratorSpec, SceneRecord, Seed,
                   _write_json_lines, parse_json, shown)
from .fusion import VARIANTS as FUSION_VARIANTS
from .fusion import encode_edges, init_fusion_params
from .metrics import (
    GroundTruthGraph,
    corpus_pairwise_recall_at_k,
    corpus_recall_at_k,
    count_hits,
    mean_recall_at_k,
    ranked_from_scores,
)
from .propagation import build_adjacency, check_settings, init_propagation, propagate

# rng stream tags
_STREAM_PARAMS = 23
_STREAM_BANK = 29

lih_forward_batch = lih  # Model.forward calls LIH through this name, which perfbench/tracer.py wraps

LOSS_COLUMNS = ("L_ent", "L_pred", "L_ar")  # total_loss's parts and the epoch log's loss columns, in this order


@dataclass
class ModelConfig(ConfigSchema):
    d_appearance: int = 12
    d_node: int = 32
    d_edge: int = 32
    n_entity_categories: int = 33
    n_predicate_categories: int = 7
    fusion: str = "parallel"
    use_lih: bool = True
    gih_variant: str = "gih"
    gih_layers: int = 4
    w_ar: float = 1.0
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 30
    seed: Seed = 0

    _label, _field_label = "model config", "config"

    def validate(self) -> None:
        self.check_types()
        if min(self.d_appearance, self.d_node, self.d_edge) < 1:
            raise ValueError("widths must be positive")
        if self.n_entity_categories < 2 or self.n_predicate_categories < 2:
            raise ValueError("need at least two categories on both vocabularies")
        if self.fusion not in FUSION_VARIANTS:
            raise ValueError(f"unknown fusion variant {shown(self.fusion)}, expected one of {FUSION_VARIANTS}")
        check_settings(self.gih_variant, self.gih_layers, self.d_node, self.d_edge)
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.learning_rate < 0 or self.weight_decay < 0 or self.epochs < 0:
            raise ValueError("learning_rate, weight_decay and epochs must be nonnegative")
        if self.w_ar < 0:
            raise ValueError("loss weights must be nonnegative")


@dataclass
class PreparedScene:
    """A scene lowered to the model's inputs, its integer labels and its edges' node rows.

    Candidate edges are all ordered node pairs, in the order of
    propagation.build_adjacency; annotated pairs carry their predicate label
    and everything else the no-relation label 0. Union inputs concatenate
    the two appearances in node-index order with the covering box, so both
    directions of a pair share one union row. subjects and objects, each
    edge's node rows, are shared read-only by every scene of its node count.
    """

    scene_id: str
    record: SceneRecord
    node_inputs: np.ndarray  # [N, d_appearance + 4 + n_entity_categories]
    union_inputs: np.ndarray  # [M, 2 * d_appearance + 4]
    edge_index: np.ndarray  # [M, 2] int64 (subject id, object id)
    node_labels: np.ndarray
    edge_labels: np.ndarray
    subjects: np.ndarray  # [M] int64 node rows
    objects: np.ndarray  # [M] int64 node rows

    @property
    def n_edges(self) -> int:
        return len(self.edge_index)


def prepare_scene(record: SceneRecord, spec: GeneratorSpec) -> PreparedScene:
    """A validated record lowered to model inputs; with read_scenes, the entry points that validate records.

    `spec`, the corpus's GeneratorSpec, bounds the labels, kept as integers, and synthesizes the node features.
    A scene holds 1 to MAX_SCENE_NODES nodes. Its candidate edges come from build_adjacency, cached per node
    count, so the cap bounds that cache too: all graphs up to n nodes hold O(n^3) ints. A forward at n
    holds A~'s n x n^2 top stripe and n^2 x d activations per layer, never the n^4 floats of A~.
    """
    record.validate()
    if not record.nodes:
        raise ValueError(f"scene {record.scene_id}: no nodes")
    if len(record.nodes) > MAX_SCENE_NODES:
        raise ValueError(f"scene {record.scene_id}: {len(record.nodes)} nodes, more than the "
                         f"{MAX_SCENE_NODES} a scene may hold")
    for node in record.nodes:
        if node.label >= spec.n_entity_categories:
            raise ValueError(
                f"scene {record.scene_id}: entity label {node.label} outside the "
                f"{spec.n_entity_categories}-category vocabulary"
            )
    for e in record.edges:
        if e.predicate >= spec.n_predicate_categories:
            raise ValueError(
                f"scene {record.scene_id}: predicate label {e.predicate} outside the "
                f"{spec.n_predicate_categories}-category vocabulary"
            )
    n = len(record.nodes)
    appearance, logits = spec.node_features(record)
    boxes = np.array([node.box for node in record.nodes], dtype=float).reshape(n, 4)
    node_inputs = np.concatenate([appearance, boxes, logits], axis=1)
    ids = [node.id for node in record.nodes]
    row_of = {node_id: row for row, node_id in enumerate(ids)}
    subj, obj, _ = build_adjacency(n)
    node_ids = np.array(ids, dtype=np.int64)
    swap = node_ids[obj] < node_ids[subj]
    first, second = np.where(swap, obj, subj), np.where(swap, subj, obj)
    a, b = boxes[first], boxes[second]
    cover = np.concatenate([np.where(b[:, :2] < a[:, :2], b[:, :2], a[:, :2]),
                            np.where(b[:, 2:] > a[:, 2:], b[:, 2:], a[:, 2:])], axis=1)
    union_inputs = np.concatenate([appearance[first], appearance[second], cover], axis=1)
    node_labels = np.array([node.label for node in record.nodes], dtype=np.int64)
    annotated = np.zeros((n, n), dtype=np.int64)
    for e in record.edges:
        annotated[row_of[e.subject], row_of[e.object]] = e.predicate
    edge_labels = annotated[subj, obj]
    return PreparedScene(
        scene_id=record.scene_id,
        record=record,
        node_inputs=node_inputs,
        union_inputs=union_inputs,
        edge_index=np.stack([node_ids[subj], node_ids[obj]], axis=1),
        node_labels=node_labels,
        edge_labels=edge_labels,
        subjects=subj,
        objects=obj,
    )


@dataclass
class ForwardResult:
    node_logits: Matrix
    edge_logits: Matrix
    edge_embeddings: Matrix  # post-propagation edge features, pre-head


class Model:
    """Holds all learnable matrices in a flat dictionary, by checkpoint name."""

    def __init__(self, config: ModelConfig, saved: dict | None = None):
        """Draws each parameter from the config seed, or takes it from `saved`, a checkpoint's params,
        naming it as it comes; the fusion and prop inits name theirs under those prefixes. LIH's query, key,
        value and output maps are the four D x D lih.* weights of autodiff.lih."""
        config.validate()
        self.config = config
        self.params: dict[str, Matrix] = {}
        rng = np.random.default_rng([_STREAM_PARAMS, config.seed]) if saved is None else None

        def param(name: str, rows: int, cols: int, fan_in: int | None = None) -> Matrix:
            matrix = uniform_init(rng, rows, cols, fan_in) if saved is None else _saved_matrix(saved, name, rows, cols)
            self.params[name] = matrix
            return matrix

        def under(prefix: str) -> Param:
            return lambda name, rows, cols, fan_in=None: param(f"{prefix}.{name}", rows, cols, fan_in)

        d, d_e = config.d_node, config.d_edge
        in_node = config.d_appearance + 4 + config.n_entity_categories
        in_union = 2 * config.d_appearance + 4
        self.node_map = (param("node_map.w", in_node, d), param("node_map.b", 1, d, fan_in=in_node))
        self.union_map = (param("union_map.w", in_union, d), param("union_map.b", 1, d, fan_in=in_union))
        self.lih = tuple(param(f"lih.w_{x}", d, d) for x in "qkvf") if config.use_lih else None
        self.fusion = init_fusion_params(under("fusion"), config.fusion, d, d_e)
        self.prop = init_propagation(under("prop"), config.gih_variant, d, config.gih_layers)
        n_ent, n_pred = config.n_entity_categories, config.n_predicate_categories
        self.entity_head = (param("entity_head.w", d, n_ent), param("entity_head.b", 1, n_ent, fan_in=d))
        self.predicate_head = (param("predicate_head.w", d_e, n_pred), param("predicate_head.b", 1, n_pred, fan_in=d_e))

    def forward(self, prep: PreparedScene) -> ForwardResult:
        cfg = self.config
        nodes0 = linear_map(Constant(prep.node_inputs), *self.node_map)
        m = prep.n_edges
        if m > 0:
            union0 = linear_map(Constant(prep.union_inputs), *self.union_map)
            z_s = gather_rows(nodes0, prep.subjects)
            z_o = gather_rows(nodes0, prep.objects)
            if self.lih is not None:
                z_s, z_o, z_u = lih_forward_batch(z_s, z_o, union0, *self.lih)
            else:
                z_u = union0
            edges0 = encode_edges(z_s, z_o, z_u, self.fusion)
        else:
            edges0 = Matrix(np.zeros((0, cfg.d_edge)))
        nodes, edges = propagate(nodes0, edges0, self.prop)
        node_logits = linear_map(nodes, *self.entity_head)
        if m > 0:
            edge_logits = linear_map(edges, *self.predicate_head)
        else:
            edge_logits = Matrix(np.zeros((0, cfg.n_predicate_categories)))
        return ForwardResult(node_logits, edge_logits, edges)


def _cross_entropy(logits: Matrix, labels: np.ndarray, row_weights: np.ndarray | None = None) -> Matrix:
    """Row-averaged cross-entropy of each row's label; row_weights (summing to 1) replace the plain mean."""
    target = np.zeros(logits.shape)
    target[np.arange(logits.rows), labels] = 1.0 if row_weights is None else row_weights
    picked = sum_all(mul(log_softmax_rows(logits), Constant(target)))
    return scale(picked, -1.0 / logits.rows if row_weights is None else -1.0)


def predicate_row_weights(edge_labels: np.ndarray) -> np.ndarray | None:
    """Per-edge weights giving relation and no-relation rows half the loss each.

    None (the plain mean) when the scene's candidate edges are all one group.
    """
    related = np.asarray(edge_labels) != PREDICATE_NO_RELATION
    n_rel = int(related.sum())
    if n_rel == 0 or n_rel == related.size:
        return None
    return np.where(related, 0.5 / n_rel, 0.5 / (related.size - n_rel))


def total_loss(
    out: ForwardResult,
    prep: PreparedScene,
    bank: ReferenceBank,
    config: ModelConfig,
    negatives: Negatives | None = None,
) -> tuple[Matrix, dict[str, float]]:
    """The sum of both cross-entropies and the attract/repel term weighted by w_ar.

    The predicate cross-entropy is balanced: relation rows share half of a
    unit weight and no-relation rows the other half (see
    predicate_row_weights). Only a few of a scene's N(N-1) candidate edges
    carry a relation (2 of 30 at N = 6), so a plain mean hands the
    background nearly all of the gradient and training stalls near the
    label prior. The weights sum to 1, so uniform logits still score
    log C. A scene whose edges are all one group keeps the plain mean.
    parts[LOSS_COLUMNS[1]], the epoch log's predicate loss, is this balanced value.
    The entity cross-entropy is a plain mean over nodes.

    The attract/repel term clusters annotated relation edges; no-relation
    rows never get a reference of their own (they only serve as sampled
    negatives), so the background class cannot pull most of the batch toward
    a single reference. It runs exactly when handed `negatives`, as `train`
    decides; it reads the references, adds its skipped zero-norm pairs to
    bank.skipped_pairs, and callers update the references after the backward pass.
    """
    if prep.node_labels.min(initial=0) < 0 or prep.node_labels.max(initial=0) >= config.n_entity_categories:
        raise ValueError(f"scene {prep.scene_id}: entity label outside [0, {config.n_entity_categories})")
    if prep.n_edges and prep.edge_labels.max(initial=0) >= config.n_predicate_categories:
        raise ValueError(f"scene {prep.scene_id}: predicate label outside [0, {config.n_predicate_categories})")
    loss_ent = _cross_entropy(out.node_logits, prep.node_labels)
    total = loss_ent
    parts = [loss_ent.item(), 0.0, 0.0]  # in LOSS_COLUMNS order
    if prep.n_edges:
        loss_pred = _cross_entropy(out.edge_logits, prep.edge_labels, predicate_row_weights(prep.edge_labels))
        total = add(total, loss_pred)
        parts[1] = loss_pred.item()
        if negatives is not None:
            loss_ar = attract_repel_loss(
                bank, out.edge_embeddings, prep.edge_labels, negatives,
                skip_category=PREDICATE_NO_RELATION,
            )
            total = add(total, scale(loss_ar, config.w_ar))
            parts[2] = loss_ar.item()
    return total, dict(zip(LOSS_COLUMNS, parts))


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochLog:
    epoch: int
    losses: dict[str, float]  # each LOSS_COLUMNS part's mean over the epoch's scenes
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass
class TrainResult:
    model: "Model"
    bank: ReferenceBank
    log: list[EpochLog]


@np.errstate(over="ignore", invalid="ignore")  # the tape's checks report non-finite values, as one NumericError
def train(
    config: ModelConfig,
    train_records: list[SceneRecord],
    spec: GeneratorSpec,
    eval_records: list[SceneRecord] | None = None,
    metrics_every: int = 0,
    ks_recall: tuple[int, ...] = (4,),
    ks_pair: tuple[int, ...] = (2,),
) -> TrainResult:
    """SGD over scenes in corpus order, one scene per step.

    Scenes are prepared with the corpus's `spec`, whose vocabulary must match
    the config's. The reference bank absorbs each scene's edge embeddings
    after that scene's backward pass. With metrics_every > 0 and eval records
    given, held-out metrics are logged every that many epochs (and on the
    last); the held-out scenes are prepared and checked for edges once, up
    front. A value that overflows or turns invalid raises NumericError naming
    the epoch and scene, without a numpy RuntimeWarning first.
    """
    config.validate()
    if not train_records:
        raise ValueError("training needs at least one scene")
    _check_vocabulary(config, spec)
    model = Model(config)
    bank = ReferenceBank(config.n_predicate_categories, config.d_edge, seed=[_STREAM_BANK, config.seed])
    preps = [prepare_scene(r, spec) for r in train_records]
    eval_preps = [prepare_scene(r, spec) for r in eval_records] if metrics_every > 0 and eval_records else []
    for prep in eval_preps:
        if not prep.record.edges:
            raise ValueError(f"held-out scene {prep.scene_id}: no annotated edges, so recall is undefined")
    velocity = {name: np.zeros_like(p.data) for name, p in model.params.items()}
    log: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        sums = np.zeros(len(LOSS_COLUMNS))
        for prep in preps:
            use_ar = config.w_ar != 0.0 and prep.edge_labels.any()  # a relation edge: PREDICATE_NO_RELATION is 0
            try:
                with Tape() as tape:
                    out = model.forward(prep)
                    negatives = (
                        sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION)
                        if use_ar else None
                    )
                    loss, parts = total_loss(out, prep, bank, config, negatives)
                    tape.backward(loss)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, scene {prep.scene_id}: {exc}") from exc
            if use_ar:
                update_references(bank, out.edge_embeddings.data, prep.edge_labels, negatives,
                                  skip_category=PREDICATE_NO_RELATION)
            for name, p in model.params.items():
                if p.grad is not None:  # in place; float sums commute, so the bytes equal w - lr (mu v + (g + wd w))
                    step = config.weight_decay * p.data
                    step += p.grad
                    v = velocity[name]
                    v *= config.momentum
                    v += step
                    p.data -= config.learning_rate * v
                    p.grad = None
            sums += [parts[column] for column in LOSS_COLUMNS]
        entry = EpochLog(epoch, dict(zip(LOSS_COLUMNS, sums / len(preps))))
        if eval_preps and (epoch % metrics_every == 0 or epoch == config.epochs):
            entry.metrics = evaluate(model, eval_preps, ks_recall, ks_pair)
        log.append(entry)
    return TrainResult(model, bank, log)


def _check_vocabulary(config: ModelConfig, spec: GeneratorSpec) -> None:
    pairs = (
        ("entity categories", config.n_entity_categories, spec.n_entity_categories),
        ("predicate categories", config.n_predicate_categories, spec.n_predicate_categories),
        ("appearance width", config.d_appearance, spec.d_appearance),
    )
    for what, have, want in pairs:
        if have != want:
            raise ValueError(f"model expects {have} {what} but the corpus provides {want}")


# ---------------------------------------------------------------------------
# evaluation


@np.errstate(over="ignore", invalid="ignore")  # as in train: a non-finite value raises only NumericError
def predict_scene(model: Model, prep: PreparedScene, graph_constraint: bool = True):
    """Ranked triplets for one scene (no gradients recorded)."""
    out = model.forward(prep)
    return ranked_from_scores(prep.edge_index, softmax_rows(out.edge_logits).data, graph_constraint)


def evaluate(
    model: Model,
    preps: list[PreparedScene],
    ks_recall: tuple[int, ...] = (20, 50, 100),
    ks_pair: tuple[int, ...] = (2, 4, 8, 16),
) -> dict[str, float]:
    """Metrics over prepared scenes: "R@4", "mR@4", and "pR@2" when a scene has a bidirectional pair."""
    if not preps:
        raise ValueError("evaluation needs at least one scene")
    preds = [predict_scene(model, prep) for prep in preps]
    gts = [GroundTruthGraph.from_scene(prep.record) for prep in preps]
    counts = [count_hits(pred, gt, max((*ks_recall, *ks_pair))) for pred, gt in zip(preds, gts)]
    out: dict[str, float] = {}
    for k in ks_recall:
        out[f"R@{k}"] = corpus_recall_at_k(counts, k)
        out[f"mR@{k}"] = mean_recall_at_k(counts, k)
    if any(gt.bidirectional_pairs for gt in gts):
        for k in ks_pair:
            out[f"pR@{k}"] = corpus_pairwise_recall_at_k(counts, k)
    return out


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: Model, bank: ReferenceBank) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {name: p.data.tolist() for name, p in model.params.items()},
        "bank": bank.state(),
    }
    _write_json_lines(path, [payload])


def _saved_matrix(saved: dict, name: str, rows: int, cols: int) -> Matrix:
    """Parameter `name` from a checkpoint's params, checked to be present, numeric, (rows, cols) and finite
    before anything of that shape is allocated, so a huge config fails at its first parameter that does not fit."""
    if name not in saved:
        raise ValueError(f"parameter {name}: missing")
    try:
        arr = np.asarray(saved[name])
    except ValueError as exc:  # a ragged list
        raise ValueError(f"parameter {name}: {exc}") from exc
    if arr.dtype.kind not in "iuf" or arr.shape != (rows, cols):  # bool, str, null and ints past int64 fail
        raise ValueError(f"parameter {name}: expected numbers in shape {(rows, cols)}, "
                         f"got {arr.dtype} in shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"parameter {name}: holds a non-finite value")
    return Matrix(arr.astype(np.float64, copy=False))


def load_checkpoint(path) -> tuple[Model, ReferenceBank]:
    """A checkpoint's model and bank; a fault raises a ValueError naming `path` and the faulty part."""
    with open(path, "rb") as fh:
        payload = parse_json(fh.read(), path)
    if not (isinstance(payload, dict) and all(isinstance(payload.get(k), dict) for k in ("config", "params", "bank"))
            and {"refs", "counts", "rng_state", "skipped_pairs"} <= set(payload["bank"])):
        raise ValueError(f"{path}: not a checkpoint: expected a JSON object with config, params and bank "
                         f"objects, the bank holding refs, counts, rng_state and skipped_pairs")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {shown(version)}")
    part = "config"
    # older checkpoints hold these former fields; each loads only at the value the code now fixes
    fixed = {"d_attention": None, "fusion_hidden": None, "w_entity": 1.0, "w_predicate": 1.0}
    try:
        config = ModelConfig.from_dict({key: value for key, value in payload["config"].items()
                                        if key not in fixed or type(value) is bool or value != fixed[key]})
        config.validate()
        part = "params"
        model = Model(config, saved=payload["params"])
        if unknown := set(payload["params"]) - set(model.params):
            raise ValueError(f"names the configuration does not give: {shown(sorted(unknown))}")
        part = "bank"
        bank = ReferenceBank.from_state(payload["bank"])
        if bank.n_categories != config.n_predicate_categories or bank.dim != config.d_edge:
            raise ValueError("size does not match the configuration")
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
        raise ValueError(f"{path}: invalid checkpoint {part} ({exc})") from exc
    return model, bank
