"""Scene records, the planted-rule corpus generator, and feature synthesis.

A corpus is a JSON-lines file (one scene per line). Every JSON input of the
kit (corpus and prediction lines, sidecars, checkpoints) is parsed by
`parse_json`, whose every failure names the file or line. Scenes store per-node
appearance seeds rather than vectors; appearance is re-materialized on
demand from a category prototype plus seeded Gaussian noise, so a corpus
file is small and fully reproducible.

Seeding contract: each node's appearance noise and its observed label come
from two generators of its own, whose states equal
np.random.default_rng([stream, corpus seed, appearance_seed]) with the
appearance and logit stream tags. `GeneratorSpec.node_features` seeds the
generators of a whole scene in one array pass of NumPy's SeedSequence
hash (`seeded_generators`) and draws from each exactly what a per-node
default_rng would, so any non-negative seed gives the same bytes.

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

import functools
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, field
from typing import NewType

import numpy as np

PREDICATE_NO_RELATION = 0
# Every ordered node pair is a candidate edge, so a scene of N nodes has N(N-1) edges. The cap bounds the
# arrays a scene sizes: gih's N x N^2 stripe of A~ (N^3 floats, 3.4 MiB at 76), the cached graph (O(N^2)
# ints) and the N^2 x d activations of each gih layer (1.4 MiB each at d = 32). gih never forms A~ itself.
MAX_SCENE_NODES = 76
# The largest value of a spec field that sizes an array (a vocabulary or the appearance width), so that a
# sidecar asking for more fails validation before anything is allocated. At this bound a node's class logits
# take 8 KiB; scene labels stay integers. The one array sized by a vocabulary squared is a predicate's
# dense row of analyze's co-occurrence table, n_entity_categories^2 floats (8 MiB at the cap), built only
# while its variance is read.
MAX_SPEC_WIDTH = 1024

# rng stream tags so the one corpus seed drives independent draws
_STREAM_RULE = 11
_STREAM_SCENES = 17
_STREAM_PROTO = 101
_STREAM_APPEAR = 202
_STREAM_LOGITS = 303
_STREAM_SCENE_OFFSET = 404

_FLOAT_MAX = sys.float_info.max
_INT64_END = 2**63  # ids and labels end up in int64 arrays
_NUMBER_TYPES = frozenset((int, float))  # bool is neither
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
Seed = NewType("Seed", int)  # a non-negative int with no upper bound

# annotation -> (check for a JSON value, what an error says the value must be, parser for a config string)
FIELD_TYPES = {
    int: (lambda v: type(v) is int, "an integer", int),
    Seed: (lambda v: type(v) is int and v >= 0, "a non-negative integer", int),
    # ints and floats compare exactly, so an int beyond float range fails with no OverflowError; NaN fails too
    float: (lambda v: type(v) in _NUMBER_TYPES and -_FLOAT_MAX <= v <= _FLOAT_MAX, "a finite number", float),
    bool: (lambda v: type(v) is bool, "true or false", lambda raw: _BOOL_WORDS[raw.lower()]),
    str: (lambda v: type(v) is str, "a string", str),
}


def shown(value, limit: int = 40) -> str:
    """repr(value) for an error message, cut to `limit` characters with an ellipsis."""
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def utf8(raw: bytes, source) -> str:
    """A file's or a line's bytes as text; bytes that are not UTF-8 raise a ValueError naming `source`."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def parse_json(raw: bytes, source):
    """The JSON value in a file's or a line's bytes; every reader of JSON input calls this one.

    Bytes that are not UTF-8 or not JSON, an integer of more than 4,300 digits
    and nesting too deep to parse raise a ValueError naming `source`, a path or `line N`.
    """
    text = utf8(raw, source)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers malformed JSON and the digit limit
        raise ValueError(f"{source}: not valid JSON ({str(exc)[:100]})") from exc


class ConfigSchema:
    """from_dict, type checks and config-string parsing for a dataclass whose annotations are FIELD_TYPES keys.

    _label names the class in unknown-key errors, _field_label in field errors.
    """

    @classmethod
    @functools.cache  # get_type_hints is too slow to run on every validate
    def field_types(cls) -> dict[str, object]:
        return typing.get_type_hints(cls)

    @classmethod
    def from_dict(cls, d: dict):
        if unknown := set(d) - set(cls.field_types()):
            raise ValueError(f"unknown {cls._label} keys: {sorted(unknown)}")
        return cls(**d)

    def check_types(self) -> None:
        """Reject a value not of its field's annotated kind, as checkpoints and sidecars deliver JSON."""
        for name, annotation in self.field_types().items():
            check, want, _ = FIELD_TYPES[annotation]
            if not check(value := getattr(self, name)):
                raise ValueError(f"{self._field_label} field {name} must be {want}, got {shown(value)}")

    @classmethod
    def parse_field(cls, source, key: str, raw: str):
        """Field `key`'s value from a config string; an unreadable one names `source`, the config file."""
        _, want, parse = FIELD_TYPES[cls.field_types()[key]]
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise ValueError(f"{source}: config key {key!r}: cannot read {shown(raw)} as {want}") from None


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


@dataclass(frozen=True)  # the prototype cache holds draws from the fields, so they cannot change
class GeneratorSpec(ConfigSchema):
    """Knobs of the planted-rule corpus, and the feature synthesis that reads them.

    The corpus sidecar carries the spec, so `node_features` re-materializes a
    scene's model inputs from it: category prototypes (drawn once per
    instance), appearance noise, flipped class logits and the scene offset.

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
    seed: Seed = 0
    # feature synthesis
    d_appearance: int = 12
    appearance_sigma: float = 0.5
    scene_offset_sigma: float = 0.0
    logit_flip_rate: float = 0.05
    logit_scale: float = 4.0

    _label, _field_label = "generator spec", "spec"

    def validate(self) -> None:
        self.check_types()
        for name in ("n_entity_categories", "n_predicate_categories", "d_appearance"):
            if getattr(self, name) > MAX_SPEC_WIDTH:
                raise ValueError(f"spec field {name} must be at most {MAX_SPEC_WIDTH}, got {getattr(self, name)}")
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
        if self.nodes_per_scene > MAX_SCENE_NODES:
            raise ValueError(f"nodes_per_scene must be at most {MAX_SCENE_NODES}, got {self.nodes_per_scene}")
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

    @functools.cached_property
    def _prototypes(self) -> dict[int, np.ndarray]:
        """prototype's cache: an instance attribute, not a field, so asdict, == and check_types skip it."""
        return {}

    def prototype(self, category: int) -> np.ndarray:
        """The category's mean appearance, drawn once per instance and read-only."""
        proto = self._prototypes.get(category)
        if proto is None:
            proto = np.random.default_rng([_STREAM_PROTO, self.seed, category]).standard_normal(self.d_appearance)
            proto.flags.writeable = False
            self._prototypes[category] = proto
        return proto

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

    def node_features(self, record: SceneRecord) -> tuple[np.ndarray, np.ndarray]:
        """Appearance [N, d_appearance] and class logits [N, n_entity_categories] of a scene's nodes.

        A node's appearance is its category prototype plus appearance_sigma
        times standard_normal noise, plus the scene offset. Its logits are
        logit_scale at the label a noisy upstream classifier reports: with
        probability logit_flip_rate a uniformly drawn wrong label. Both draws
        come from the node's own generators, seeded together for the scene.
        """
        nodes = record.nodes
        n, d = len(nodes), self.d_appearance
        rngs = seeded_generators([[stream, self.seed, node.appearance_seed]
                                  for stream in (_STREAM_APPEAR, _STREAM_LOGITS) for node in nodes])
        noise = np.array([rng.standard_normal(d) for rng in rngs[:n]]).reshape(n, d)
        protos = np.array([self.prototype(node.label) for node in nodes]).reshape(n, d)
        appearance = protos + self.appearance_sigma * noise + self.scene_offset(record.scene_id)
        labels = [node.label for node in nodes]
        for i, rng in enumerate(rngs[n:]):
            if rng.random() < self.logit_flip_rate:
                labels[i] = _other_label(rng, self.n_entity_categories, labels[i])
        logits = np.zeros((n, self.n_entity_categories))
        logits[np.arange(n), labels] = self.logit_scale
        return appearance, logits


@dataclass
class RuleTable:
    """Predicate rule g(subject category, object category, table index).

    tables holds one dict per table, mapping each ordered related pair, (a, b)
    and (b, a), to its predicate label; every other category pair is
    unrelated (label 0), so a table holds 2 * related_pairs entries whatever
    the vocabulary. Tables beyond the first rotate the assignments of the
    switched leading pairs among themselves and agree with the first table
    everywhere else, so all tables share one asymmetric/symmetric makeup.
    context_labels[t] is the entity category marking table t in a scene;
    it is empty when there is a single table and no marker.
    """

    tables: list[dict[tuple[int, int], int]]
    related: list[tuple[int, int]] = field(default_factory=list)  # (a, b) with a < b
    context_labels: tuple[int, ...] = ()

    def predicate(self, subj_cat: int, obj_cat: int, table: int = 0) -> int:
        return self.tables[table].get((subj_cat, obj_cat), PREDICATE_NO_RELATION)

    @property
    def asymmetric_related(self) -> list[tuple[int, int]]:
        return [(a, b) for a, b in self.related if self.predicate(a, b) != self.predicate(b, a)]

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
    assignments = []
    for asym in asym_flags:
        fwd = int(rng.integers(1, spec.n_predicate_categories))
        assignments.append((fwd, _other_label(rng, spec.n_predicate_categories, fwd) if asym else fwd))
    switched = spec.context_switched_pairs
    tables = [{} for _ in range(max(spec.context_categories, 1))]
    for t, table in enumerate(tables):
        for i, (a, b) in enumerate(pairs):
            src = (i + t) % switched if t and i < switched else i
            table[a, b], table[b, a] = assignments[src]
    context_labels = tuple(2 * spec.related_pairs + 1 + c for c in range(spec.context_categories))
    return RuleTable(tables, pairs, context_labels)


def _uniform_box(rng: np.random.Generator) -> tuple[float, float, float, float]:
    x1, x2 = sorted(rng.uniform(0.0, 1.0, size=2).tolist())
    y1, y2 = sorted(rng.uniform(0.0, 1.0, size=2).tolist())
    return (x1, y1, x2, y2)


def _other_label(rng: np.random.Generator, n_categories: int, label: int) -> int:
    """One draw of rng.integers(1, n_categories - 1), moved up by one from `label` on: a label in
    1..n_categories-1 other than `label`, uniform when `label` lies in that range."""
    wrong = int(rng.integers(1, n_categories - 1))
    return wrong + 1 if wrong >= label else wrong


def _noisy_predicate(rng: np.random.Generator, true: int, spec: GeneratorSpec) -> int:
    if spec.noise_rate > 0.0 and rng.random() < spec.noise_rate:
        return _other_label(rng, spec.n_predicate_categories, true)
    return true


def generate(spec: GeneratorSpec, rule: RuleTable | None = None) -> list[SceneRecord]:
    """Emit n_scenes records, each holding exactly one bidirectional pair.

    rule is build_rule(spec), which validates the spec; a caller that already
    built it passes it in.
    """
    if rule is None:
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
    """A scene record from one parsed corpus line, every field type-checked as written."""

    def integer(value, what: str, low: int = -_INT64_END) -> int:
        if type(value) is not int or not low <= value < _INT64_END:
            kind = "a non-negative integer" if low == 0 else "an integer"
            raise ValueError(f"line {line_no}: {what} must be {kind} that fits in int64, got {shown(value)}")
        return value

    def box(value) -> tuple[float, float, float, float]:
        if type(value) is not list or len(value) != 4 or not _NUMBER_TYPES.issuperset(map(type, value)):
            raise ValueError(f"line {line_no}: node box must be a list of 4 numbers, got {shown(value)}")
        return tuple(map(float, value))  # validate rejects NaN and infinities

    try:
        if type(obj["scene_id"]) is not str or not obj["scene_id"].isprintable():  # CSV rows and messages show it
            raise ValueError(f"line {line_no}: scene_id must be a printable string, got {shown(obj['scene_id'])}")
        nodes = [
            Node(integer(n["id"], "node id"), integer(n["label"], "node label"), box(n["box"]),
                 integer(n["appearance_seed"], "appearance_seed", low=0))
            for n in obj["nodes"]
        ]
        edges = [Edge(integer(e["subject"], "edge subject"), integer(e["object"], "edge object"),
                      integer(e["predicate"], "edge predicate")) for e in obj["edges"]]
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: a box integer beyond float range
        raise ValueError(f"line {line_no}: malformed scene record ({exc})") from exc
    record = SceneRecord(obj["scene_id"], nodes, edges)
    try:
        record.validate()
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {exc}") from exc
    return record


def _write_json_lines(path, objs) -> None:
    """Each object as one line of JSON with sorted keys, through json.dumps (json.dump would stream
    through the Python encoder, not the C one)."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")


def write_scenes(path, records: list[SceneRecord]) -> None:
    _write_json_lines(path, map(_record_to_obj, records))


def _json_lines(path):
    """(line number, parsed value) for every non-blank line of a JSON-lines file."""
    with open(path, "rb") as fh:  # lines end at b"\n"; strip() drops the "\r" of a CRLF file
        for line_no, line in enumerate(fh, start=1):
            if line := line.strip():
                yield line_no, parse_json(line, f"line {line_no}")


def read_scenes(path) -> list[SceneRecord]:
    """A corpus file's scenes, each type-checked and validated (records are validated here and in prepare_scene);
    a scene id that repeats an earlier line's raises a ValueError naming the line."""
    records: dict[str, SceneRecord] = {}
    for line_no, obj in _json_lines(path):
        record = _record_from_obj(obj, line_no)
        if record.scene_id in records:
            raise ValueError(f"line {line_no}: duplicate scene id {shown(record.scene_id)}")
        records[record.scene_id] = record
    return list(records.values())


def split_scenes(records: list[SceneRecord], holdout: int) -> tuple[list[SceneRecord], list[SceneRecord]]:
    """Reserve the last `holdout` scenes for evaluation."""
    if holdout < 0 or holdout >= len(records):
        raise ValueError(f"holdout must lie in [0, {len(records) - 1}] for {len(records)} scenes, got {holdout}")
    if holdout == 0:
        return records, []
    return records[:-holdout], records[-holdout:]


def write_predictions(path, predictions: dict[str, list[tuple[int, int, int, float]]]) -> None:
    """One JSON line per scene: id plus score-ordered (subject, object, predicate, score), written as given: Python
    ints and a float, as `ranked_from_scores` and `rank_triplets` return them (a tuple is written as a list)."""
    _write_json_lines(path, ({"scene_id": scene_id, "triplets": ranked} for scene_id, ranked in predictions.items()))


def read_predictions(path) -> dict[str, list[tuple[int, int, int, float]]]:
    out: dict[str, list[tuple[int, int, int, float]]] = {}
    for line_no, obj in _json_lines(path):
        if not isinstance(obj, dict) or set(obj) != {"scene_id", "triplets"}:
            raise ValueError(f"line {line_no}: expected keys scene_id and triplets")
        scene_id = obj["scene_id"]
        if not isinstance(scene_id, str) or not isinstance(obj["triplets"], list):
            raise ValueError(f"line {line_no}: scene_id must be a string and triplets a list")
        if scene_id in out:
            raise ValueError(f"line {line_no}: duplicate scene id {shown(scene_id)}")
        triplets = []
        for t in obj["triplets"]:
            if type(t) is not list or len(t) != 4:
                raise ValueError(f"line {line_no}: each triplet needs [subject, object, predicate, score]")
            s, o, p, score = t
            if type(s) is not int or type(o) is not int or type(p) is not int:
                raise ValueError(f"line {line_no}: subject, object and predicate must be integers, got {shown(t)}")
            if type(score) is int and abs(score) <= _FLOAT_MAX:
                score = float(score)
            if type(score) is not float or not -_FLOAT_MAX <= score <= _FLOAT_MAX:  # NaN fails too
                raise ValueError(f"line {line_no}: score must be a finite number, got {shown(t)}")
            triplets.append((s, o, p, score))
        out[scene_id] = triplets
    return out


# ---------------------------------------------------------------------------
# feature synthesis

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), which
# seeded_generators runs as uint32 array ops over many entropy rows at once
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# the hashmix call that mixes pool word src into pool word dst, [src, dst]; the
# diagonal is a call of the same round, computed and then discarded
_MIX_CALLS = np.array([[_POOL_SIZE + (_POOL_SIZE - 1) * src + dst - (dst >= src) for dst in range(_POOL_SIZE)]
                       for src in range(_POOL_SIZE)])


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i in 0..count, as a [count + 1, 1] column."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    column = np.array(values, dtype=np.uint32).reshape(-1, 1)
    column.flags.writeable = False
    return column


def _words(value: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words, the way SeedSequence splits it (0 is one word)."""
    if value < 0:
        raise ValueError(f"seeds must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


class _PresetState(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the generate_state(4, uint64) output seeded_generators already computed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, given the hash constant before and after the call advances it."""
    out = values ^ xor
    out *= mul
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def seeded_generators(entropy: list[list[int]]) -> list[np.random.Generator]:
    """np.random.default_rng(row) for every row of non-negative ints, seeded in one pass.

    Each row's ints are split into 32-bit words as SeedSequence splits them,
    then run through its hash: hashmix the first pool-size words into the
    pool (missing words hash as 0), mix every pool word into the others, mix
    in each word beyond the pool, then hash the pool out to four uint64 words
    of state. The hash constants follow the number of hashmix calls, not the
    data, so each step is one array op over all rows; within one source word
    the mix updates are independent. NumPy's own PCG64 seeding turns each
    state into a generator.
    """
    split = {value: _words(value) for value in {value for row in entropy for value in row}}
    rows = [[word for value in row for word in split[value]] for row in entropy]
    width = max(_POOL_SIZE, *map(len, rows)) if rows else _POOL_SIZE
    words = np.array([word for row in rows for word in (*row, *[0] * (width - len(row)))], dtype=np.uint32)
    words = words.reshape(len(rows), width).T  # [width, rows]
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width)  # a[i] before the i-th hashmix call
    pool = _hashmix(words[:_POOL_SIZE], a[:_POOL_SIZE], a[1:_POOL_SIZE + 1])
    xor, mul = a[_MIX_CALLS], a[_MIX_CALLS + 1]
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[src], xor[src], mul[src]))
        mixed[src] = pool[src]  # a pool word does not mix into itself
        pool = mixed
    lengths = np.array([len(row) for row in rows]) if width > _POOL_SIZE else None
    for src in range(_POOL_SIZE, width):  # words beyond the pool, only in the rows that have them
        longer, call = lengths > src, _POOL_SIZE * src
        hashed = _hashmix(words[src, longer], a[call:call + _POOL_SIZE], a[call + 1:call + _POOL_SIZE + 1])
        pool[:, longer] = _mix(pool[:, longer], hashed)
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.concatenate([pool, pool]), b[:-1], b[1:])
    # SeedSequence reads its uint32 words as little-endian uint64 pairs
    state = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_PresetState(row))) for row in state]
