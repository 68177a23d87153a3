"""The blow-up rewriting calculus on local normal forms.

A local model is the germ

    prod_{i in I} x_i  =  t * det(y_rs : size m) * prod_j z_j^{a_j}

abstracted to (I, m, F) with F a multiset of exceptional divisors with
exponents.  The invariant mdeg = (|I|, m, sum a_j) drops strictly in
lexicographic order under every blow-up rule, which certifies
termination; the one non-blow-up rewrite (renaming a lone exponent-1
z-divisor into the y slot) is a relabeling of the same germ and is
tracked separately in the certificate.

Rule names follow the chart families: "detres" (determinantal center),
"monres-1/2/3" (monomial order reduction), "binres" (the multiplicity-2
case), "normalize" (the relabeling).

The nerve of the x-index sets is an invariant of resolution.  The engine
checks, on every step, the two local facts that force it (each child's
x-index set lies inside the parent's, and some child keeps it), and
compares the nerve itself once, at the roots and at the leaves.  A failed
check raises ResolutionCheckError.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .complexes import DeltaComplex, closure, from_simplices
from .jsonread import expect_int, expect_list, expect_object
from .snc import SncModel
from .voronoi import CheckFailed


class ResolutionError(ValueError):
    pass


class ResolutionCheckError(CheckFailed, ResolutionError):
    """A resolver self-check failed: the local nerve facts, termination, or
    the descent certificate."""


class Mdeg(NamedTuple):
    deg_x: int
    deg_y: int
    deg_z: int


@dataclass(frozen=True)
class LocalModel:
    """One germ: x-divisor index set, determinant size, exceptional multiset."""

    x_divisors: frozenset[int]
    det_size: int
    exceptional: tuple[tuple[int, int], ...] = ()
    genealogy: tuple[str, ...] = ()

    def __post_init__(self):
        if self.det_size < 0:
            raise ResolutionError("determinant size must be nonnegative")
        labels = [j for j, _ in self.exceptional]
        if len(set(labels)) != len(labels):
            raise ResolutionError("duplicate exceptional divisor labels")
        for _, a in self.exceptional:
            if a < 1:
                raise ResolutionError("exceptional exponents must be at least 1")
        object.__setattr__(self, "exceptional", tuple(sorted(self.exceptional)))

    @classmethod
    def build(cls, x_divisors: Iterable[int], det_size: int, exceptional=()) -> "LocalModel":
        return cls(frozenset(int(i) for i in x_divisors), int(det_size),
                   tuple((int(j), int(a)) for j, a in exceptional))

    def mdeg(self) -> Mdeg:
        return Mdeg(len(self.x_divisors), self.det_size,
                    sum(a for _, a in self.exceptional))

    def is_resolved(self) -> bool:
        d = self.mdeg()
        return d.deg_x <= 1 or (d.deg_y == 0 and d.deg_z == 0)

    def exponent_of(self, label: int) -> int:
        for j, a in self.exceptional:
            if j == label:
                return a
        return 0

    def _with(self, x_divisors=None, det_size=None, exceptional=None, step=None) -> "LocalModel":
        return LocalModel(
            self.x_divisors if x_divisors is None else frozenset(x_divisors),
            self.det_size if det_size is None else det_size,
            self.exceptional if exceptional is None else tuple(exceptional),
            self.genealogy + (step,) if step else self.genealogy,
        )

    def state(self) -> tuple:
        return (self.x_divisors, self.det_size, self.exceptional)

    def to_json_dict(self) -> dict:
        return {
            "I": sorted(self.x_divisors),
            "m": self.det_size,
            "F": [[j, a] for j, a in self.exceptional],
        }


def model_from_json_dict(data: dict) -> LocalModel:
    data = expect_object(data, ResolutionError, "a local model")
    exceptional = [expect_list(pair, ResolutionError, "an 'F' pair", expect_int)
                   for pair in expect_list(data.get("F", []), ResolutionError, "'F'")]
    if any(len(pair) != 2 for pair in exceptional):
        raise ResolutionError("each 'F' entry must be a [label, exponent] pair")
    return LocalModel.build(expect_list(data.get("I", []), ResolutionError, "'I'", expect_int),
                            expect_int(data.get("m", 0), ResolutionError, "'m'"), exceptional)


def _bump(exceptional, label: int, exponent: int):
    """Add a divisor with the given exponent; exponent 0 entries are dropped."""
    if exponent <= 0:
        return tuple(exceptional)
    return tuple(exceptional) + ((label, exponent),)


def step_determinantal(
    model: LocalModel, pair: tuple[int, int], fresh_label: Optional[int] = None
) -> list[LocalModel]:
    """Blow up the rank-drop center over x_{i1} = x_{i2} = 0; m >= 2.

    Two charts of the first type trade one x-divisor for the exceptional
    divisor; m^2 charts of the second type keep I and shrink the
    determinant by one.  All charts share a single fresh divisor of
    exponent m^2 - 2.
    """
    i1, i2 = pair
    m = model.det_size
    if m < 2:
        raise ResolutionError("determinantal rule needs det size at least 2")
    if i1 == i2 or i1 not in model.x_divisors or i2 not in model.x_divisors:
        raise ResolutionError(f"pair {pair} is not a pair of distinct x-divisors")
    w = _next_label(model) if fresh_label is None else fresh_label
    exp = m * m - 2
    tag = f"detres({i1},{i2})w{w}"
    charts = []
    for drop in (i1, i2):
        charts.append(model._with(
            x_divisors=model.x_divisors - {drop},
            exceptional=_bump(model.exceptional, w, exp),
            step=f"{tag}/x{drop}",
        ))
    for r in range(m):
        for s in range(m):
            charts.append(model._with(
                det_size=m - 1,
                exceptional=_bump(model.exceptional, w, exp),
                step=f"{tag}/y{r}{s}",
            ))
    return charts


def step_monomial(
    model: LocalModel,
    variant: tuple,
    pair: Optional[tuple[int, int]] = None,
    fresh_label: Optional[int] = None,
) -> list[LocalModel]:
    """The three monomial order-reduction steps.

    variant is ("exp>=2", j), ("pair", j1, j2) or ("y_z_pair", j); the
    x-pair in the center defaults to the two lowest x-divisors.
    """
    xs = sorted(model.x_divisors)
    if len(xs) < 2:
        raise ResolutionError("monomial rules need at least two x-divisors")
    i1, i2 = pair if pair is not None else (xs[0], xs[1])
    if i1 not in model.x_divisors or i2 not in model.x_divisors or i1 == i2:
        raise ResolutionError(f"invalid x-pair {(i1, i2)}")
    kind = variant[0]
    if kind == "exp>=2":
        j = variant[1]
        a = model.exponent_of(j)
        if a < 2:
            raise ResolutionError(f"divisor {j} has exponent {a} < 2")
        w = _next_label(model) if fresh_label is None else fresh_label
        tag = f"monres-1({j};{i1},{i2})w{w}"
        charts = []
        for drop in (i1, i2):
            charts.append(model._with(
                x_divisors=model.x_divisors - {drop},
                exceptional=_bump(model.exceptional, w, a - 2),
                step=f"{tag}/x{drop}",
            ))
        rest = tuple((lbl, e) for lbl, e in model.exceptional if lbl != j)
        charts.append(model._with(
            exceptional=_bump(rest, j, a - 2),
            step=f"{tag}/z{j}",
        ))
        return charts
    if kind == "pair":
        j1, j2 = variant[1], variant[2]
        if model.exponent_of(j1) != 1 or model.exponent_of(j2) != 1 or j1 == j2:
            raise ResolutionError(f"divisors {(j1, j2)} must be distinct with exponent 1")
        tag = f"monres-2({j1},{j2};{i1},{i2})"
        charts = []
        for drop in (i1, i2):
            charts.append(model._with(
                x_divisors=model.x_divisors - {drop},
                step=f"{tag}/x{drop}",
            ))
        for gone in (j1, j2):
            rest = tuple((lbl, e) for lbl, e in model.exceptional if lbl != gone)
            charts.append(model._with(
                exceptional=rest,
                step=f"{tag}/z{gone}",
            ))
        return charts
    if kind == "y_z_pair":
        j = variant[1]
        if model.det_size != 1:
            raise ResolutionError("y_z_pair needs det size exactly 1")
        if model.exponent_of(j) != 1:
            raise ResolutionError(f"divisor {j} must have exponent 1")
        tag = f"monres-3({j};{i1},{i2})"
        charts = []
        for drop in (i1, i2):
            charts.append(model._with(
                x_divisors=model.x_divisors - {drop},
                step=f"{tag}/x{drop}",
            ))
        rest = tuple((lbl, e) for lbl, e in model.exceptional if lbl != j)
        charts.append(model._with(
            det_size=0,
            step=f"{tag}/y",
        ))
        charts.append(model._with(
            exceptional=rest,
            step=f"{tag}/z{j}",
        ))
        return charts
    raise ResolutionError(f"unknown monomial variant {variant!r}")


def step_mult2(model: LocalModel, i1: Optional[int] = None) -> list[LocalModel]:
    """The multiplicity-2 case prod x = t*y: two charts, both one step closer."""
    d = model.mdeg()
    if d.deg_y != 1 or d.deg_z != 0:
        raise ResolutionError("mult-2 rule needs exactly prod x = t*y form")
    if d.deg_x < 2:
        raise ResolutionError("mult-2 rule needs at least two x-divisors")
    xs = sorted(model.x_divisors)
    if i1 is None:
        i1 = xs[0]
    if i1 not in model.x_divisors:
        raise ResolutionError(f"unknown x-divisor {i1}")
    return [
        model._with(x_divisors=model.x_divisors - {i1}, step=f"binres({i1})/x{i1}"),
        model._with(det_size=0, step=f"binres({i1})/y"),
    ]


def normalize(model: LocalModel) -> LocalModel:
    """Rename a lone exponent-1 z-divisor into the y slot; otherwise identity."""
    d = model.mdeg()
    if d.deg_y == 0 and d.deg_z == 1:
        return model._with(det_size=1, exceptional=(), step="normalize")
    return model


@dataclass(frozen=True)
class Policy:
    """Deterministic center choices; a seed permutes them for fuzzing."""

    seed: Optional[int] = None

    def _rng(self, counter: int) -> Optional[random.Random]:
        if self.seed is None:
            return None
        return random.Random(self.seed * 1000003 + counter)

    def choose_pair(self, candidates: Sequence, counter: int):
        """The first candidate, or a seeded pick among them (pairs or labels)."""
        rng = self._rng(counter)
        if rng is None:
            return candidates[0]
        return candidates[rng.randrange(len(candidates))]


def _next_label(model: LocalModel) -> int:
    return max((j for j, _ in model.exceptional), default=0) + 1


def select_rule(model: LocalModel, policy: Policy = Policy(), counter: int = 0):
    """The unique applicable rule under the engine's priority, or None.

    Priority: determinantal while m >= 2, then the three monomial steps,
    then normalization, then the multiplicity-2 rule.
    """
    if model.is_resolved():
        return None
    d = model.mdeg()
    xs = sorted(model.x_divisors)
    if d.deg_y >= 2:
        pairs = [(a, b) for idx, a in enumerate(xs) for b in xs[idx + 1:]]
        return ("detres", policy.choose_pair(pairs, counter))
    heavy = [j for j, a in model.exceptional if a >= 2]
    if heavy:
        return ("monres-1", ("exp>=2", policy.choose_pair(sorted(heavy), counter)))
    singles = sorted(j for j, a in model.exceptional if a == 1)
    if len(singles) >= 2:
        j1, j2 = singles[0], singles[1]
        if policy.seed is not None:
            j1, j2 = policy.choose_pair(
                [(a, b) for idx, a in enumerate(singles) for b in singles[idx + 1:]], counter
            )
        return ("monres-2", ("pair", j1, j2))
    if d.deg_y == 1 and d.deg_z == 1:
        return ("monres-3", ("y_z_pair", singles[0]))
    if d.deg_y == 0 and d.deg_z == 1:
        return ("normalize", None)
    if d.deg_y == 1 and d.deg_z == 0:
        return ("binres", None)
    raise ResolutionError(f"no rule applies to unresolved model {model.state()}")


def apply_rule(model: LocalModel, rule, policy: Policy = Policy(), counter: int = 0,
               fresh_label: Optional[int] = None) -> list[LocalModel]:
    name, detail = rule
    if name == "detres":
        return step_determinantal(model, detail, fresh_label)
    if name in ("monres-1", "monres-2", "monres-3"):
        xs = sorted(model.x_divisors)
        pairs = [(a, b) for idx, a in enumerate(xs) for b in xs[idx + 1:]]
        pair = policy.choose_pair(pairs, counter)
        return step_monomial(model, detail, pair, fresh_label)
    if name == "binres":
        xs = sorted(model.x_divisors)
        i1 = policy.choose_pair(xs, counter)
        return step_mult2(model, i1)
    if name == "normalize":
        return [normalize(model)]
    raise ResolutionError(f"unknown rule {name!r}")


@dataclass(frozen=True)
class TraceNode:
    node_id: int
    model: LocalModel
    multiplicity: int
    parent: Optional[int]


@dataclass(frozen=True)
class TraceStep:
    step_id: int
    node: int
    rule: str
    detail: str
    children: tuple[int, ...]
    descents: tuple[tuple[Mdeg, Mdeg], ...]
    relabel: bool


@dataclass(frozen=True)
class ResolutionTrace:
    roots: tuple[int, ...]
    nodes: tuple[TraceNode, ...]
    steps: tuple[TraceStep, ...]
    snapshots: tuple[frozenset, ...]

    def leaves(self) -> tuple[TraceNode, ...]:
        stepped = {s.node for s in self.steps}
        return tuple(n for n in self.nodes if n.node_id not in stepped)

    def leaf_count(self) -> int:
        return sum(n.multiplicity for n in self.leaves())

    def all_resolved(self) -> bool:
        return all(n.model.is_resolved() for n in self.leaves())

    def nerve_constant(self) -> bool:
        return len(set(self.snapshots)) <= 1

    def final_nerve(self) -> frozenset:
        return self.snapshots[-1]

    def nerve_complex(self) -> DeltaComplex:
        """The simplicial complex generated by the leaf x-index sets."""
        maximal = [tuple(sorted(n.model.x_divisors)) for n in self.leaves()
                   if n.model.x_divisors]
        if not maximal:
            raise ResolutionError("empty nerve: no leaf has x-divisors")
        return from_simplices(maximal)

    def certificate(self) -> tuple:
        return tuple(
            (s.rule, s.descents, s.relabel) for s in self.steps
        )

    def verify_certificate(self) -> None:
        """Strict lexicographic descent on every blow-up; relabel steps must
        be the documented mdeg transposition and descend compositely."""
        children_steps = {s.node: s for s in self.steps}
        for s in self.steps:
            if s.relabel:
                (parent_deg, child_deg), = s.descents
                if not (parent_deg.deg_y == 0 and parent_deg.deg_z == 1
                        and child_deg == Mdeg(parent_deg.deg_x, 1, 0)):
                    raise ResolutionCheckError(f"step {s.step_id}: unexpected relabel shape")
                for child_id in s.children:
                    follow = children_steps.get(child_id)
                    if follow is None:
                        continue
                    for _, grandchild in follow.descents:
                        if not grandchild < parent_deg:
                            raise ResolutionCheckError(
                                f"step {s.step_id}: relabel composite fails to descend"
                            )
                continue
            for parent_deg, child_deg in s.descents:
                if not child_deg < parent_deg:
                    raise ResolutionCheckError(
                        f"step {s.step_id} ({s.rule}): mdeg {child_deg} does not descend "
                        f"below {parent_deg}"
                    )

    def verify_genealogies(self) -> None:
        by_id = {n.node_id: n for n in self.nodes}
        child_of = {}
        for s in self.steps:
            for c in s.children:
                child_of[c] = s.node
        for n in self.nodes:
            root = n.node_id
            while root in child_of:
                root = child_of[root]
            replayed = replay(by_id[root].model, n.model.genealogy[len(by_id[root].model.genealogy):])
            if replayed.state() != n.model.state():
                raise ResolutionError(f"node {n.node_id} genealogy does not replay")

    def to_json_dict(self) -> dict:
        return {
            "roots": list(self.roots),
            "nodes": [
                {
                    "id": n.node_id,
                    "model": n.model.to_json_dict(),
                    "multiplicity": n.multiplicity,
                    "parent": n.parent,
                    "resolved": n.model.is_resolved(),
                }
                for n in self.nodes
            ],
            "steps": [
                {
                    "id": s.step_id,
                    "node": s.node,
                    "rule": s.rule,
                    "detail": s.detail,
                    "children": list(s.children),
                }
                for s in self.steps
            ],
            "leaves": [n.node_id for n in self.leaves()],
            "leaf_count": self.leaf_count(),
            "nerve": sorted(sorted(f) for f in self.final_nerve()),
            "nerve_constant": self.nerve_constant(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


def replay(root: LocalModel, steps: Sequence[str]) -> LocalModel:
    """Re-apply recorded chart choices; used to audit genealogies."""
    current = root
    for token in steps:
        rule, _, chart = token.partition("/")
        name, _, rest = rule.partition("(")
        args, _, fresh_part = rest.partition(")")
        fresh = int(fresh_part[1:]) if fresh_part.startswith("w") else None
        if name == "normalize":
            current = normalize(current)
            continue
        if name == "detres":
            i1, i2 = (int(x) for x in args.split(","))
            charts = step_determinantal(current, (i1, i2), fresh)
        elif name in ("monres-1", "monres-2", "monres-3"):
            center, _, xpair = args.partition(";")
            pair = tuple(int(x) for x in xpair.split(",")) if xpair else None
            if name == "monres-1":
                charts = step_monomial(current, ("exp>=2", int(center)), pair, fresh)
            elif name == "monres-2":
                j1, j2 = (int(x) for x in center.split(","))
                charts = step_monomial(current, ("pair", j1, j2), pair)
            else:
                charts = step_monomial(current, ("y_z_pair", int(center)), pair)
        elif name == "binres":
            charts = step_mult2(current, int(args))
        else:
            raise ResolutionError(f"cannot replay step {token!r}")
        matches = [c for c in charts if c.genealogy and c.genealogy[-1] == token]
        if not matches:
            raise ResolutionError(f"no chart matches replay token {token!r}")
        current = matches[0]
    return current


def resolve(
    roots: Sequence[LocalModel],
    policy: Policy = Policy(),
    max_steps: Optional[int] = None,
) -> ResolutionTrace:
    """Worklist resolution with a termination certificate.

    Identical sibling charts are merged with multiplicities (the chart
    count is preserved in the reported leaf count).  Every step verifies
    the two local facts that keep the nerve of the live x-index sets
    constant: every child's index set is contained in the parent's, and
    some child keeps the parent's index set.  The nerve itself is recorded
    twice, as the closure of the roots' and of the leaves' index sets.
    """
    if not roots:
        raise ResolutionError("no roots given")
    nodes: list[TraceNode] = []
    steps: list[TraceStep] = []
    for r in roots:
        nodes.append(TraceNode(len(nodes), r, 1, None))
    fresh = max(
        (j for r in roots for j, _ in r.exceptional), default=0
    ) + 1
    leaf_sets = set()
    queue = deque(n.node_id for n in nodes)
    counter = 0
    while queue:
        node_id = queue.popleft()
        model = nodes[node_id].model
        rule = select_rule(model, policy, counter)
        if rule is None:
            leaf_sets.add(model.x_divisors)
            continue
        if max_steps is not None and len(steps) >= max_steps:
            raise ResolutionError(f"step budget {max_steps} exhausted")
        name, detail = rule
        charts = apply_rule(model, rule, policy, counter, fresh_label=fresh)
        if name in ("detres", "monres-1"):
            if any(j == fresh for c in charts for j, _ in c.exceptional):
                fresh += 1
        counter += 1
        parent_deg = model.mdeg()
        parent_set = model.x_divisors
        merged: dict[tuple, tuple[LocalModel, int]] = {}
        for c in charts:
            if not c.x_divisors <= parent_set:
                raise ResolutionCheckError("child x-index set escapes the parent's")
            key = c.state()
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + 1)
            else:
                merged[key] = (c, 1)
        if not any(c.x_divisors == parent_set for c, _ in merged.values()):
            raise ResolutionCheckError("no child preserves the parent's x-index set")
        child_ids = []
        descents = []
        parent_mult = nodes[node_id].multiplicity
        for c, mult in merged.values():
            node = TraceNode(len(nodes), c, mult * parent_mult, node_id)
            nodes.append(node)
            child_ids.append(node.node_id)
            descents.append((parent_deg, c.mdeg()))
            queue.append(node.node_id)
        steps.append(TraceStep(
            len(steps), node_id, name,
            charts[0].genealogy[-1].split("/")[0] if charts and charts[0].genealogy else name,
            tuple(child_ids), tuple(descents), name == "normalize",
        ))
    snapshots = (closure(r.x_divisors for r in roots), closure(leaf_sets))
    trace = ResolutionTrace(tuple(range(len(roots))), tuple(nodes), tuple(steps), snapshots)
    if not trace.all_resolved():
        raise ResolutionCheckError("worklist drained with unresolved leaves")
    trace.verify_certificate()
    return trace


def embed_snc(model: SncModel) -> list[LocalModel]:
    """The catalog of local forms over the strata of a glued model.

    The ambient smooth space has dimension n = dim(model) + 1.  A stratum
    with d components admits determinant sizes m with m^2 <= n - d, each
    contributing one root with an empty exceptional multiset.
    """
    n = model.dim + 1
    roots = []
    for stratum in sorted(model.strata, key=lambda s: (len(s.key), sorted(s.key))):
        d = len(stratum.key)
        m = 0
        while m * m <= n - d:
            roots.append(LocalModel.build(sorted(stratum.key), m))
            m += 1
    return roots


def validate_determinantal_profile(n: int, observed: Sequence[tuple[int, int]]) -> bool:
    """Each rank-drop stratum of a generic matrix has codimension m^2."""
    for m, codim in observed:
        if codim != m * m or m * m > n:
            return False
    return True
