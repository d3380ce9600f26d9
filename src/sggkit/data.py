"""Scene records, the planted-rule corpus generator, and feature synthesis.

A corpus is a JSON-lines file (one scene per line). Scenes store per-node
appearance seeds rather than vectors; appearance is re-materialized on
demand from a category prototype plus seeded Gaussian noise, so a corpus
file is small and fully reproducible.

The generator plants a relation rule over entity categories. Categories
are organized as matched pairs (1,2), (3,4), ...; exactly the matched
pairs are related, and each related pair carries a forward and a backward
predicate which differ for the configured fraction of pairs. Every scene
contains exactly one related pair plus filler entities chosen so no second
related pair can occur, and both directed edges of the related pair are
emitted (so every annotated pair is bidirectional). Label noise flips an
emitted predicate to a uniformly random wrong one.

With context_categories >= 2 the rule is context-switched: there are that
many rule tables, each scene additionally contains one context-marker node
whose category says which table produced the scene's predicates, and one
filler gives way to it. The tables agree everywhere except on the first
context_switched_pairs related pairs, whose assignments are rotated among
themselves from one table to the next. The marker is never an endpoint of
a related pair, so a predictor that reads only an edge's own inputs cannot
tell the tables apart on the switched pairs; recovering their rule requires
looking at the rest of the scene's graph.

Label 0 is reserved in both vocabularies: entity 0 means no-object and
predicate 0 means no-relation; neither appears in generated annotations.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

ENTITY_NO_OBJECT = 0
PREDICATE_NO_RELATION = 0

# rng stream tags so the one corpus seed drives independent draws
_STREAM_RULE = 11
_STREAM_SCENES = 17
_STREAM_PROTO = 101
_STREAM_APPEAR = 202
_STREAM_LOGITS = 303
_STREAM_SCENE_OFFSET = 404

_FLOAT_MAX = sys.float_info.max


@dataclass
class Node:
    id: int
    label: int
    box: tuple[float, float, float, float]  # x1, y1, x2, y2 in [0, 1]
    appearance_seed: int


@dataclass
class Edge:
    subject: int
    object: int
    predicate: int


@dataclass
class SceneRecord:
    scene_id: str
    nodes: list[Node]
    edges: list[Edge]

    def validate(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"scene {self.scene_id}: duplicate node ids")
        known = set(ids)
        for n in self.nodes:
            x1, y1, x2, y2 = n.box
            if not (0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0):
                raise ValueError(f"scene {self.scene_id}: node {n.id} box {n.box} is not a valid unit box")
            if n.label < 0:
                raise ValueError(f"scene {self.scene_id}: node {n.id} has negative label")
        seen_pairs = set()
        for e in self.edges:
            if e.subject not in known or e.object not in known:
                raise ValueError(
                    f"scene {self.scene_id}: edge ({e.subject}, {e.object}) references a missing node"
                )
            if e.subject == e.object:
                raise ValueError(f"scene {self.scene_id}: self-loop on node {e.subject}")
            if (e.subject, e.object) in seen_pairs:
                raise ValueError(
                    f"scene {self.scene_id}: duplicate edge for ordered pair ({e.subject}, {e.object})"
                )
            if e.predicate < 0:
                raise ValueError(f"scene {self.scene_id}: negative predicate label")
            seen_pairs.add((e.subject, e.object))


@dataclass
class GeneratorSpec:
    """Knobs of the planted-rule corpus.

    related_pairs matched category pairs use entity labels 1..2*related_pairs
    and context markers the next context_categories labels; n_entity_categories
    must leave room for all of them beyond the reserved 0.
    """

    n_entity_categories: int = 33
    n_predicate_categories: int = 7
    related_pairs: int = 15
    context_categories: int = 2
    context_switched_pairs: int = 5
    asymmetric_fraction: float = 0.93
    noise_rate: float = 0.05
    nodes_per_scene: int = 6
    n_scenes: int = 1000
    seed: int = 0
    # feature synthesis
    d_appearance: int = 12
    appearance_sigma: float = 0.5
    scene_offset_sigma: float = 0.0
    logit_flip_rate: float = 0.05
    logit_scale: float = 4.0

    def validate(self) -> None:
        if self.n_entity_categories < 3:
            raise ValueError("need at least two usable entity categories plus the reserved 0")
        if self.n_predicate_categories < 2:
            raise ValueError("need at least one usable predicate category plus the reserved 0")
        if self.related_pairs < 1:
            raise ValueError("related_pairs must be positive")
        if self.context_categories < 0 or self.context_categories == 1:
            raise ValueError("context_categories must be 0 (single rule table) or at least 2")
        if not 0 <= self.context_switched_pairs <= self.related_pairs:
            raise ValueError(
                f"context_switched_pairs must lie in [0, {self.related_pairs}], "
                f"got {self.context_switched_pairs}"
            )
        if 2 * self.related_pairs + self.context_categories > self.n_entity_categories - 1:
            raise ValueError(
                f"{self.related_pairs} matched pairs and {self.context_categories} context "
                f"markers need {2 * self.related_pairs + self.context_categories} entity "
                f"categories, only {self.n_entity_categories - 1} usable ones configured"
            )
        reserved = 2 + (1 if self.context_categories else 0)
        if self.nodes_per_scene < reserved:
            raise ValueError(
                "scenes need the two related entities"
                + (" plus the context marker" if self.context_categories else "")
            )
        if self.nodes_per_scene - reserved > self.related_pairs - 1:
            raise ValueError(
                f"{self.nodes_per_scene - reserved} filler entities need one spare matched "
                f"pair each, only {self.related_pairs - 1} available"
            )
        if not 0.0 <= self.asymmetric_fraction <= 1.0:
            raise ValueError("asymmetric_fraction must lie in [0, 1]")
        if round(self.asymmetric_fraction * self.related_pairs) > 0 and self.n_predicate_categories < 3:
            raise ValueError("asymmetric rules need at least two usable predicate categories")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must lie in [0, 1)")
        if self.noise_rate > 0.0 and self.n_predicate_categories < 3:
            raise ValueError("label noise needs a wrong predicate to flip to")
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be positive")
        if self.d_appearance < 1 or self.appearance_sigma < 0 or self.scene_offset_sigma < 0:
            raise ValueError("appearance parameters out of range")
        if not 0.0 <= self.logit_flip_rate <= 1.0:
            raise ValueError("logit_flip_rate must lie in [0, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown generator spec keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class RuleTable:
    """Predicate rule g(subject category, object category, table index).

    tables[t] maps ordered category pairs to predicate labels (0 means
    unrelated). Tables beyond the first rotate the assignments of the
    switched leading pairs among themselves and agree with the first table
    everywhere else, so all tables share one asymmetric/symmetric makeup.
    context_labels[t] is the entity category marking table t in a scene;
    it is empty when there is a single table and no marker.
    """

    tables: np.ndarray  # [n_tables, n_ent, n_ent] of predicate labels
    related: list[tuple[int, int]] = field(default_factory=list)  # (a, b) with a < b
    context_labels: tuple[int, ...] = ()

    @property
    def table(self) -> np.ndarray:
        return self.tables[0]

    def predicate(self, subj_cat: int, obj_cat: int, table: int = 0) -> int:
        return int(self.tables[table, subj_cat, obj_cat])

    @property
    def asymmetric_related(self) -> list[tuple[int, int]]:
        return [(a, b) for a, b in self.related if self.table[a, b] != self.table[b, a]]

    @property
    def realized_asymmetric_fraction(self) -> float:
        return len(self.asymmetric_related) / len(self.related)


def build_rule(spec: GeneratorSpec) -> RuleTable:
    spec.validate()
    rng = np.random.default_rng([_STREAM_RULE, spec.seed])
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(spec.related_pairs)]
    n_asym = int(round(spec.asymmetric_fraction * spec.related_pairs))
    asym_flags = np.zeros(spec.related_pairs, dtype=bool)
    asym_flags[rng.permutation(spec.related_pairs)[:n_asym]] = True
    usable = spec.n_predicate_categories - 1
    assignments = []
    for asym in asym_flags:
        fwd = int(rng.integers(1, usable + 1))
        if asym:
            bwd = int(rng.integers(1, usable))
            if bwd >= fwd:
                bwd += 1
        else:
            bwd = fwd
        assignments.append((fwd, bwd))
    n_tables = max(spec.context_categories, 1)
    switched = spec.context_switched_pairs
    tables = np.zeros((n_tables, spec.n_entity_categories, spec.n_entity_categories), dtype=np.int64)
    for t in range(n_tables):
        for i, (a, b) in enumerate(pairs):
            src = (i + t) % switched if t and i < switched else i
            fwd, bwd = assignments[src]
            tables[t, a, b] = fwd
            tables[t, b, a] = bwd
    context_labels = tuple(2 * spec.related_pairs + 1 + c for c in range(spec.context_categories))
    return RuleTable(tables, pairs, context_labels)


def _uniform_box(rng: np.random.Generator) -> tuple[float, float, float, float]:
    x1, x2 = sorted(rng.uniform(0.0, 1.0, size=2).tolist())
    y1, y2 = sorted(rng.uniform(0.0, 1.0, size=2).tolist())
    return (x1, y1, x2, y2)


def _noisy_predicate(rng: np.random.Generator, true: int, spec: GeneratorSpec) -> int:
    if spec.noise_rate > 0.0 and rng.random() < spec.noise_rate:
        wrong = int(rng.integers(1, spec.n_predicate_categories - 1))
        if wrong >= true:
            wrong += 1
        return wrong
    return true


def generate(spec: GeneratorSpec) -> list[SceneRecord]:
    """Emit n_scenes records, each holding exactly one bidirectional pair."""
    spec.validate()
    rule = build_rule(spec)
    rng = np.random.default_rng([_STREAM_SCENES, spec.seed])
    records = []
    n_pairs = spec.related_pairs
    for idx in range(spec.n_scenes):
        chosen = int(rng.integers(n_pairs))
        a, b = rule.related[chosen]
        context = int(rng.integers(spec.context_categories)) if spec.context_categories else 0
        labels = [a, b]
        if spec.context_categories:
            labels.append(rule.context_labels[context])
        others = [p for i, p in enumerate(rule.related) if i != chosen]
        filler_idx = rng.choice(len(others), size=spec.nodes_per_scene - len(labels), replace=False)
        for j in filler_idx:
            pair = others[int(j)]
            labels.append(int(pair[int(rng.integers(2))]))
        order = rng.permutation(spec.nodes_per_scene)
        placed = [0] * spec.nodes_per_scene
        for node_id, which in enumerate(order):
            placed[node_id] = labels[int(which)]
        nodes = [
            Node(
                id=node_id,
                label=placed[node_id],
                box=_uniform_box(rng),
                appearance_seed=int(rng.integers(0, 2**31 - 1)),
            )
            for node_id in range(spec.nodes_per_scene)
        ]
        i_a = placed.index(a)
        i_b = placed.index(b)
        edges = [
            Edge(i_a, i_b, _noisy_predicate(rng, rule.predicate(a, b, context), spec)),
            Edge(i_b, i_a, _noisy_predicate(rng, rule.predicate(b, a, context), spec)),
        ]
        record = SceneRecord(scene_id=f"scene-{idx:05d}", nodes=nodes, edges=edges)
        record.validate()
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# serialization


def _record_to_obj(r: SceneRecord) -> dict:
    return {
        "scene_id": r.scene_id,
        "nodes": [
            {"id": n.id, "label": n.label, "box": list(n.box), "appearance_seed": n.appearance_seed}
            for n in r.nodes
        ],
        "edges": [{"subject": e.subject, "object": e.object, "predicate": e.predicate} for e in r.edges],
    }


def _record_from_obj(obj: dict, line_no: int) -> SceneRecord:
    try:
        nodes = [
            Node(int(n["id"]), int(n["label"]), tuple(float(v) for v in n["box"]), int(n["appearance_seed"]))
            for n in obj["nodes"]
        ]
        edges = [Edge(int(e["subject"]), int(e["object"]), int(e["predicate"])) for e in obj["edges"]]
        record = SceneRecord(str(obj["scene_id"]), nodes, edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"line {line_no}: malformed scene record ({exc})") from exc
    record.validate()
    return record


def write_scenes(path, records: list[SceneRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(_record_to_obj(r), sort_keys=True))
            fh.write("\n")


def read_scenes(path) -> list[SceneRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: not valid JSON ({exc.msg})") from exc
            records.append(_record_from_obj(obj, line_no))
    return records


def split_scenes(records: list[SceneRecord], holdout: int) -> tuple[list[SceneRecord], list[SceneRecord]]:
    """Reserve the last `holdout` scenes for evaluation."""
    if holdout < 0 or holdout >= len(records):
        raise ValueError(f"holdout must lie in [0, {len(records) - 1}], got {holdout}")
    if holdout == 0:
        return records, []
    return records[:-holdout], records[-holdout:]


def write_predictions(path, predictions: dict[str, list[tuple[int, int, int, float]]]) -> None:
    """One JSON line per scene: id plus score-ordered (subject, object, predicate, score)."""
    with open(path, "w", encoding="utf-8") as fh:
        for scene_id, triplets in predictions.items():
            obj = {
                "scene_id": scene_id,
                "triplets": [[int(s), int(o), int(p), float(score)] for s, o, p, score in triplets],
            }
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")


def read_predictions(path) -> dict[str, list[tuple[int, int, int, float]]]:
    out: dict[str, list[tuple[int, int, int, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: not valid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or set(obj) != {"scene_id", "triplets"}:
                raise ValueError(f"line {line_no}: expected keys scene_id and triplets")
            scene_id = obj["scene_id"]
            if not isinstance(scene_id, str) or not isinstance(obj["triplets"], list):
                raise ValueError(f"line {line_no}: scene_id must be a string and triplets a list")
            if scene_id in out:
                raise ValueError(f"line {line_no}: duplicate scene id {scene_id!r}")
            triplets = []
            for t in obj["triplets"]:
                if type(t) is not list or len(t) != 4:
                    raise ValueError(f"line {line_no}: each triplet needs [subject, object, predicate, score]")
                s, o, p, score = t
                if type(s) is not int or type(o) is not int or type(p) is not int:
                    raise ValueError(f"line {line_no}: subject, object and predicate must be integers, got {t}")
                if type(score) is int and abs(score) <= _FLOAT_MAX:
                    score = float(score)
                if type(score) is not float or not -_FLOAT_MAX <= score <= _FLOAT_MAX:  # NaN fails too
                    raise ValueError(f"line {line_no}: score must be a finite number, got {t}")
                triplets.append((s, o, p, score))
            out[scene_id] = triplets
    return out


# ---------------------------------------------------------------------------
# feature synthesis


@dataclass
class FeatureParams:
    """Everything needed to re-materialize model inputs from a record."""

    n_entity_categories: int
    n_predicate_categories: int
    d_appearance: int
    appearance_sigma: float
    logit_flip_rate: float
    logit_scale: float
    seed: int
    scene_offset_sigma: float = 0.0
    _prototypes: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_spec(cls, spec: GeneratorSpec) -> "FeatureParams":
        return cls(
            n_entity_categories=spec.n_entity_categories,
            n_predicate_categories=spec.n_predicate_categories,
            d_appearance=spec.d_appearance,
            appearance_sigma=spec.appearance_sigma,
            logit_flip_rate=spec.logit_flip_rate,
            logit_scale=spec.logit_scale,
            seed=spec.seed,
            scene_offset_sigma=spec.scene_offset_sigma,
        )

    def prototype(self, category: int) -> np.ndarray:
        """The category's mean appearance, drawn once per instance and read-only."""
        proto = self._prototypes.get(category)
        if proto is None:
            proto = np.random.default_rng([_STREAM_PROTO, self.seed, category]).standard_normal(self.d_appearance)
            proto.flags.writeable = False
            self._prototypes[category] = proto
        return proto

    def appearance(self, node: Node) -> np.ndarray:
        rng = np.random.default_rng([_STREAM_APPEAR, self.seed, node.appearance_seed])
        return self.prototype(node.label) + self.appearance_sigma * rng.standard_normal(self.d_appearance)

    def scene_offset(self, scene_id: str) -> np.ndarray:
        """A nuisance shift shared by every appearance in one scene.

        Models a global capture condition (lighting, camera) that confuses
        any per-node readout but cancels for anything that can compare
        detections within the scene. Zero sigma means no offset at all.
        """
        if self.scene_offset_sigma == 0.0:
            return np.zeros(self.d_appearance)
        digest = hashlib.sha256(scene_id.encode("utf-8")).digest()
        words = np.frombuffer(digest[:16], dtype=np.uint32)
        rng = np.random.default_rng([_STREAM_SCENE_OFFSET, self.seed, *words.tolist()])
        return self.scene_offset_sigma * rng.standard_normal(self.d_appearance)

    def observed_label(self, node: Node) -> int:
        """The label a noisy upstream classifier would report for this node."""
        rng = np.random.default_rng([_STREAM_LOGITS, self.seed, node.appearance_seed])
        if self.logit_flip_rate > 0.0 and rng.random() < self.logit_flip_rate:
            wrong = int(rng.integers(1, self.n_entity_categories - 1))
            if wrong >= node.label:
                wrong += 1
            return wrong
        return node.label

    def class_logits(self, node: Node) -> np.ndarray:
        logits = np.zeros(self.n_entity_categories)
        logits[self.observed_label(node)] = self.logit_scale
        return logits
