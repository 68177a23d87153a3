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

The rules see the exceptional divisors only through their order and
exponents, and a fresh divisor is always larger than every label in use.
So a model's charts depend only on its canonical state (x-index set,
det size, exponents in label order), and the resolver expands each
distinct canonical state once per call: a hash-consed DAG with chart
multiplicities on its edges (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006).  The tree trace is stamped out of that
DAG by relabelling, its nodes as TraceNode tuples.  A state whose charts
take no fresh label has children that depend only on it and its node's
labels, so they are built once per (state, labels) pair, and the nodes
below equal such labelled models share one LocalModel object per chart.
The step's detail is kept with them unless the state's tag names the
fresh label, which a monres-1 on an exponent-2 divisor does without
taking it.

The nerve of the x-index sets is an invariant of resolution.  The engine
checks, once per distinct state, the two local facts that force it (each
child's x-index set lies inside the parent's, and some child keeps it)
and the descent certificate, and compares the nerve itself once, at the
roots and at the leaves.  A failed check raises ResolutionCheckError.

The memo and the trace hold no reference cycle (each object points only
down the tree or at values), so reference counting frees them, and
resolve pauses the cyclic garbage collector, which would only rescan
them, for the length of the call.
"""

from __future__ import annotations

import gc
import json
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

# `from_simplices` is unused here but stays bound: perfbench/tracer.py wraps
# resolution.from_simplices
from .complexes import DeltaComplex, closure, from_simplices, nerve
from .jsonread import expect_int, expect_list, expect_object
from .snc import SncModel
from .voronoi import CheckFailed

# the largest tree a resolve call builds; the box's largest root has 132,911 nodes
MAX_TREE_NODES = 10 ** 6


class ResolutionError(ValueError):
    pass


class ResolutionCheckError(CheckFailed, ResolutionError):
    """A resolver self-check failed: the local nerve facts, termination, or
    the descent certificate."""


class Mdeg(NamedTuple):
    deg_x: int
    deg_y: int
    deg_z: int


@dataclass(frozen=True, slots=True)
class LocalModel:
    """One germ: x-divisor index set, determinant size, exceptional multiset.

    mdeg is computed once, when the model is made; it takes no part in
    equality, hashing or repr.
    """

    x_divisors: frozenset[int]
    det_size: int
    exceptional: tuple[tuple[int, int], ...] = ()
    _mdeg: Mdeg = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.det_size < 0:
            raise ResolutionError("determinant size must be nonnegative")
        labels = [j for j, _ in self.exceptional]
        if len(set(labels)) != len(labels):
            raise ResolutionError("duplicate exceptional divisor labels")
        for _, a in self.exceptional:
            if a < 1:
                raise ResolutionError("exceptional exponents must be at least 1")
        exceptional = tuple(sorted(self.exceptional))
        object.__setattr__(self, "exceptional", exceptional)
        object.__setattr__(self, "_mdeg", Mdeg(len(self.x_divisors), self.det_size,
                                               sum(a for _, a in exceptional)))

    @classmethod
    def build(cls, x_divisors: Iterable[int], det_size: int, exceptional=()) -> "LocalModel":
        return cls(frozenset(int(i) for i in x_divisors), int(det_size),
                   tuple((int(j), int(a)) for j, a in exceptional))

    def mdeg(self) -> Mdeg:
        return self._mdeg

    def is_resolved(self) -> bool:
        d = self._mdeg
        return d.deg_x <= 1 or (d.deg_y == 0 and d.deg_z == 0)

    def exponent_of(self, label: int) -> int:
        for j, a in self.exceptional:
            if j == label:
                return a
        return 0

    def _charts(self, tagged) -> list["LocalModel"]:
        """LocalModels for the charts of a chart function's (tag, charts)."""
        _, charts = tagged
        return [_model(x, m, f, Mdeg(len(x), m, sum(a for _, a in f))) for x, m, f in charts]

    def state(self) -> tuple:
        return (self.x_divisors, self.det_size, self.exceptional)

    def to_json_dict(self) -> dict:
        return {
            "I": sorted(self.x_divisors),
            "m": self.det_size,
            "F": [[j, a] for j, a in self.exceptional],
        }


_new = object.__new__


def _setters(cls) -> tuple:
    """The slot setters of a frozen slotted dataclass, in field order; the
    trusted constructors below fill the slots without __init__.  Trace
    nodes are tuples and need none: resolve makes them by tuple.__new__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_MODEL_SLOTS = _setters(LocalModel)


def _model(x_divisors, det_size, exceptional, mdeg) -> LocalModel:
    """A LocalModel from parts already known to be valid, with its mdeg."""
    model = _new(LocalModel)
    set_x, set_m, set_f, set_d = _MODEL_SLOTS
    set_x(model, x_divisors)
    set_m(model, det_size)
    set_f(model, exceptional)
    set_d(model, mdeg)
    return model


def model_from_json_dict(data: dict) -> LocalModel:
    data = expect_object(data, ResolutionError, "a local model")
    exceptional = [expect_list(pair, ResolutionError, "an 'F' pair", expect_int)
                   for pair in expect_list(data.get("F", []), ResolutionError, "'F'")]
    if any(len(pair) != 2 for pair in exceptional):
        raise ResolutionError("each 'F' entry must be a [label, exponent] pair")
    return LocalModel.build(expect_list(data.get("I", []), ResolutionError, "'I'", expect_int),
                            expect_int(data.get("m", 0), ResolutionError, "'m'"), exceptional)


def _bump(exceptional, label: int, exponent: int):
    """Add the fresh divisor with the given exponent; exponent 0 adds nothing."""
    if exponent <= 0:
        return exceptional
    return exceptional + ((label, exponent),)


def _fresh(model: LocalModel, fresh_label: Optional[int]) -> int:
    if fresh_label is None:
        return max((j for j, _ in model.exceptional), default=0) + 1
    if model.exceptional and fresh_label <= model.exceptional[-1][0]:
        raise ResolutionError(f"fresh label {fresh_label} must exceed every exceptional label")
    return fresh_label


def _without(exceptional, label: int):
    return tuple((j, a) for j, a in exceptional if j != label)


# The chart functions check a rule's preconditions and return (tag, charts):
# the tag names the rule and its center, the step's detail in a trace, and
# each chart is (x_divisors, det_size, exceptional), labels sorted and
# distinct, exponents positive.  The step functions wrap them into LocalModels.

def _determinantal(model: LocalModel, pair: tuple[int, int], fresh_label: Optional[int]):
    i1, i2 = pair
    m = model.det_size
    if m < 2:
        raise ResolutionError("determinantal rule needs det size at least 2")
    xs = model.x_divisors
    if i1 == i2 or i1 not in xs or i2 not in xs:
        raise ResolutionError(f"pair {pair} is not a pair of distinct x-divisors")
    w = _fresh(model, fresh_label)
    bumped = _bump(model.exceptional, w, m * m - 2)
    charts = [(xs - {drop}, m, bumped) for drop in (i1, i2)]
    return f"detres({i1},{i2})w{w}", charts + [(xs, m - 1, bumped)] * (m * m)


def _monomial(model: LocalModel, variant: tuple, pair: Optional[tuple[int, int]],
              fresh_label: Optional[int]):
    xs = model.x_divisors
    if len(xs) < 2:
        raise ResolutionError("monomial rules need at least two x-divisors")
    i1, i2 = pair if pair is not None else sorted(xs)[:2]
    if i1 not in xs or i2 not in xs or i1 == i2:
        raise ResolutionError(f"invalid x-pair {(i1, i2)}")
    m, exceptional = model.det_size, model.exceptional
    kind = variant[0]
    if kind == "exp>=2":
        j = variant[1]
        a = model.exponent_of(j)
        if a < 2:
            raise ResolutionError(f"divisor {j} has exponent {a} < 2")
        w = _fresh(model, fresh_label)
        bumped = _bump(exceptional, w, a - 2)
        lowered = tuple((lbl, a - 2 if lbl == j else e) for lbl, e in exceptional
                        if lbl != j or a > 2)
        return f"monres-1({j};{i1},{i2})w{w}", [(xs - {i1}, m, bumped), (xs - {i2}, m, bumped),
                                                (xs, m, lowered)]
    if kind == "pair":
        j1, j2 = variant[1], variant[2]
        if model.exponent_of(j1) != 1 or model.exponent_of(j2) != 1 or j1 == j2:
            raise ResolutionError(f"divisors {(j1, j2)} must be distinct with exponent 1")
        return f"monres-2({j1},{j2};{i1},{i2})", [
            (xs - {i1}, m, exceptional), (xs - {i2}, m, exceptional),
            (xs, m, _without(exceptional, j1)), (xs, m, _without(exceptional, j2))]
    if kind == "y_z_pair":
        j = variant[1]
        if m != 1:
            raise ResolutionError("y_z_pair needs det size exactly 1")
        if model.exponent_of(j) != 1:
            raise ResolutionError(f"divisor {j} must have exponent 1")
        return f"monres-3({j};{i1},{i2})", [
            (xs - {i1}, m, exceptional), (xs - {i2}, m, exceptional),
            (xs, 0, exceptional), (xs, m, _without(exceptional, j))]
    raise ResolutionError(f"unknown monomial variant {variant!r}")


def _mult2(model: LocalModel, i1: Optional[int]):
    d = model.mdeg()
    if d.deg_y != 1 or d.deg_z != 0:
        raise ResolutionError("mult-2 rule needs exactly prod x = t*y form")
    if d.deg_x < 2:
        raise ResolutionError("mult-2 rule needs at least two x-divisors")
    xs = model.x_divisors
    if i1 is None:
        i1 = min(xs)
    if i1 not in xs:
        raise ResolutionError(f"unknown x-divisor {i1}")
    return f"binres({i1})", [(xs - {i1}, 1, ()), (xs, 0, ())]


def _normalize(model: LocalModel):
    d = model.mdeg()
    if d.deg_y == 0 and d.deg_z == 1:
        return "normalize", [(model.x_divisors, 1, ())]
    return "normalize", []


def step_determinantal(
    model: LocalModel, pair: tuple[int, int], fresh_label: Optional[int] = None
) -> list[LocalModel]:
    """Blow up the rank-drop center over x_{i1} = x_{i2} = 0; m >= 2.

    Two charts of the first type trade one x-divisor for the exceptional
    divisor; m^2 charts of the second type keep I and shrink the
    determinant by one.  All charts share a single fresh divisor of
    exponent m^2 - 2.
    """
    return model._charts(_determinantal(model, pair, fresh_label))


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
    return model._charts(_monomial(model, variant, pair, fresh_label))


def step_mult2(model: LocalModel, i1: Optional[int] = None) -> list[LocalModel]:
    """The multiplicity-2 case prod x = t*y: two charts, both one step closer."""
    return model._charts(_mult2(model, i1))


def normalize(model: LocalModel) -> LocalModel:
    """Rename a lone exponent-1 z-divisor into the y slot; otherwise identity."""
    charts = model._charts(_normalize(model))
    return charts[0] if charts else model


@dataclass(frozen=True)
class Policy:
    """Deterministic center choices; a seed permutes them for fuzzing.

    A seeded choice is drawn from the seed and the model's canonical state,
    so it does not depend on the labels of the exceptional divisors nor on
    where the model sits in the trace.
    """

    seed: Optional[int] = None

    def choose_pair(self, candidates: Sequence, model: LocalModel):
        """The first candidate, or a seeded pick among them (pairs or labels)."""
        if self.seed is None:
            return candidates[0]
        state = (sorted(model.x_divisors), model.det_size, [a for _, a in model.exceptional])
        rng = random.Random(f"{self.seed}:{state}")
        return candidates[rng.randrange(len(candidates))]


def _pairs(xs: Sequence[int]) -> list[tuple[int, int]]:
    return [(a, b) for idx, a in enumerate(xs) for b in xs[idx + 1:]]


def select_rule(model: LocalModel, policy: Policy = Policy()):
    """The unique applicable rule under the engine's priority, or None.

    Priority: determinantal while m >= 2, then the three monomial steps,
    then normalization, then the multiplicity-2 rule.
    """
    if model.is_resolved():
        return None
    d = model.mdeg()
    if d.deg_y >= 2:
        return ("detres", policy.choose_pair(_pairs(sorted(model.x_divisors)), model))
    heavy = [j for j, a in model.exceptional if a >= 2]
    if heavy:
        return ("monres-1", ("exp>=2", policy.choose_pair(heavy, model)))
    singles = [j for j, a in model.exceptional if a == 1]
    if len(singles) >= 2:
        return ("monres-2", ("pair", *policy.choose_pair(_pairs(singles), model)))
    if d.deg_y == 1 and d.deg_z == 1:
        return ("monres-3", ("y_z_pair", singles[0]))
    if d.deg_y == 0 and d.deg_z == 1:
        return ("normalize", None)
    if d.deg_y == 1 and d.deg_z == 0:
        return ("binres", None)
    raise ResolutionError(f"no rule applies to unresolved model {model.state()}")


def _rule_charts(model: LocalModel, rule, policy: Policy, fresh_label: Optional[int]):
    name, detail = rule
    if name == "detres":
        return _determinantal(model, detail, fresh_label)
    if name in ("monres-1", "monres-2", "monres-3"):
        pair = policy.choose_pair(_pairs(sorted(model.x_divisors)), model)
        return _monomial(model, detail, pair, fresh_label)
    if name == "binres":
        return _mult2(model, policy.choose_pair(sorted(model.x_divisors), model))
    if name == "normalize":
        return _normalize(model)
    raise ResolutionError(f"unknown rule {name!r}")


class TraceNode(NamedTuple):
    node_id: int
    model: LocalModel
    multiplicity: int
    parent: Optional[int]


@dataclass(frozen=True, slots=True)
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
        return self._leaves

    @cached_property
    def _leaves(self) -> tuple[TraceNode, ...]:
        """The nodes that take no step, found once per trace."""
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
        """The simplicial complex generated by the leaf x-index sets: the
        nerve of final_nerve, their closure as resolve recorded it."""
        if not self.final_nerve():
            raise ResolutionError("empty nerve: no leaf has x-divisors")
        return nerve(self.final_nerve())

    def to_json_dict(self) -> dict:
        # one model dict per distinct model, shared by the nodes that hold it
        rendered: dict[LocalModel, tuple[dict, bool]] = {}
        nodes = []
        for n in self.nodes:
            model = n.model
            shared = rendered.get(model)
            if shared is None:
                shared = rendered[model] = (model.to_json_dict(), model.is_resolved())
            nodes.append({"id": n.node_id, "model": shared[0], "multiplicity": n.multiplicity,
                          "parent": n.parent, "resolved": shared[1]})
        return {
            "roots": list(self.roots),
            "nodes": nodes,
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


_STEP_SLOTS = _setters(TraceStep)


def _relabel_shape(parent_deg: Mdeg, child_deg: Mdeg) -> bool:
    """normalize turns mdeg (d, 0, 1) into (d, 1, 0)."""
    return (parent_deg.deg_y == 0 and parent_deg.deg_z == 1
            and child_deg == Mdeg(parent_deg.deg_x, 1, 0))


class _Slot(int):
    """An exceptional label that stands for its position in label order.

    It formats as a str.format field, so the tag that a chart function
    writes for a model labelled by slots is a template over the labels.
    """

    def __format__(self, spec):
        return "{%d}" % self


class _State:
    """One distinct canonical state of a resolve call, expanded once.

    charts holds the merged charts as (child _State, x_divisors, det_size,
    label positions, exponents, multiplicity), and tag the step's detail as
    a template over the labels; position k, one past the parent's k labels,
    is the fresh label.  nodes and steps count the tree below the state,
    itself included.
    """

    __slots__ = ("key", "mdeg", "rule", "relabel", "tag", "fresh", "charts", "descents",
                 "pending", "nodes", "steps")

    def __init__(self, key: tuple, mdeg: Mdeg):
        self.key = key
        self.mdeg = mdeg
        if mdeg.deg_x <= 1 or (mdeg.deg_y == 0 and mdeg.deg_z == 0):  # resolved: a leaf
            self.rule = None
            self.charts = ()
            self.nodes, self.steps = 1, 0
        else:
            self.charts = None  # not expanded yet
            self.nodes = None  # subtree not counted yet


def _expand(node: _State, policy: Policy, memo: dict) -> None:
    """Select and apply the rule of one unresolved state, merge its charts
    and check the nerve facts and the descent of every chart."""
    xs, m, exps = node.key
    slots = tuple(map(_Slot, range(len(exps) + 1)))
    fresh = slots[-1]
    model = _model(xs, m, tuple(zip(slots, exps)), node.mdeg)
    name, _ = rule = select_rule(model, policy)
    tag, charts = _rule_charts(model, rule, policy, fresh)
    parent_deg = node.mdeg
    merged: dict[tuple, list] = {}
    descents, pending = [], []
    kept = uses_fresh = False
    for x, cm, f in charts:
        key = (x, cm, f)
        if key in merged:  # an identical chart: one more multiplicity
            merged[key][5] += 1
            continue
        if not x <= xs:
            raise ResolutionCheckError("child x-index set escapes the parent's")
        kept = kept or x == xs
        positions, exps_c = tuple(zip(*f)) or ((), ())
        uses_fresh = uses_fresh or fresh in positions
        state = (x, cm, exps_c)
        child = memo.get(state)
        if child is None:
            child = memo[state] = _State(state, Mdeg(len(x), cm, sum(exps_c)))
        if child.nodes is None:
            pending.append(child)
        merged[key] = [child, x, cm, positions, exps_c, 1]
        descents.append((parent_deg, child.mdeg))
    if not kept:
        raise ResolutionCheckError("no child preserves the parent's x-index set")
    if name == "normalize":
        if len(descents) != 1 or not _relabel_shape(*descents[0]):
            raise ResolutionCheckError(f"normalize on {node.key}: unexpected relabel shape")
    else:
        for _, child_deg in descents:
            if not child_deg < parent_deg:
                raise ResolutionCheckError(
                    f"{name} on {node.key}: mdeg {child_deg} does not descend below {parent_deg}"
                )
    node.rule = name
    node.relabel = name == "normalize"
    node.tag = tag
    node.fresh = uses_fresh
    node.descents = tuple(descents)
    node.charts = tuple(merged.values())
    node.pending = pending


def _count(node: _State) -> None:
    """The tree size below an expanded state whose children are counted;
    a relabel step must be followed by a step below the relabelled degree.
    A subtree above MAX_TREE_NODES is refused at once: every tree that
    holds the state is at least as large."""
    if node.relabel:
        (child, *_), = node.charts
        if child.rule is not None and not all(g < node.mdeg for _, g in child.descents):
            raise ResolutionCheckError("relabel composite fails to descend")
    nodes = steps = 1
    for c in node.charts:
        nodes += c[0].nodes
        steps += c[0].steps
    _check_tree_bound(nodes)
    node.nodes, node.steps = nodes, steps


def _check_tree_bound(nodes: int) -> None:
    """Refuse a tree known to have at least this many nodes above the bound."""
    if nodes > MAX_TREE_NODES:
        raise ResolutionError(f"the resolution tree has at least {nodes} nodes, more than "
                              f"the bound of {MAX_TREE_NODES}")


def _expand_all(states: Sequence[tuple], policy: Policy, max_steps: Optional[int]) -> dict:
    """The memo of every state below the given ones, each expanded and
    counted once, depth first."""
    memo: dict[tuple, _State] = {}
    expanded = 0
    for state in states:
        if state in memo:
            continue  # counted below an earlier root
        memo[state] = top = _State(state, Mdeg(len(state[0]), state[1], sum(state[2])))
        stack = [top] if top.nodes is None else []
        while stack:
            node = stack[-1]
            if node.charts is None:
                _expand(node, policy, memo)
                expanded += 1
                # every expanded state is at least one step of the tree
                if max_steps is not None and expanded > max_steps:
                    raise ResolutionError(f"step budget {max_steps} exhausted")
            pending = node.pending
            while pending and pending[-1].nodes is not None:
                pending.pop()
            if not pending:
                _count(node)
                stack.pop()
            elif pending[-1].charts is None:
                stack.append(pending[-1])
            else:  # expanded but not counted: on the stack
                raise ResolutionCheckError("the rules return to a state they left")
    return memo


def _stamp(state: _State, names: tuple) -> list:
    """(model, child state or None for a leaf, child labels, multiplicity)
    for each merged chart of an expanded state, its labels named by names."""
    name_at = names.__getitem__
    children = []
    for child, x, m, positions, exps, mult in state.charts:
        child_labels = tuple(map(name_at, positions))
        model = _model(x, m, tuple(zip(child_labels, exps)), child.mdeg)
        children.append((model, child if child.rule is not None else None, child_labels, mult))
    return children


def resolve(
    roots: Sequence[LocalModel],
    policy: Policy = Policy(),
    max_steps: Optional[int] = None,
) -> ResolutionTrace:
    """Breadth-first resolution with a termination certificate.

    Identical sibling charts are merged with multiplicities (the chart
    count is preserved in the reported leaf count).  Each distinct
    canonical state is expanded and checked once: every child's index set
    is contained in the parent's, some child keeps the parent's index set,
    and every chart descends (a relabel, compositely with the next step).
    Those facts keep the nerve of the live x-index sets constant; the nerve
    itself is recorded twice, as the closure of the roots' and of the
    leaves' index sets.

    The tree is then built breadth first by relabelling the memo.  A fresh
    label is one past every label used so far in the call, so nodes,
    labels and step details are those of the worklist that expands every
    node.  Nodes are TraceNode tuples, made without __init__.  A node's
    children and its step's detail are built once per (state, labels)
    pair when its state's charts take no fresh label, so nodes with equal
    labelled models there hold one shared LocalModel; a state that takes a
    fresh label builds both anew each time, and one whose tag names the
    fresh label without taking it formats each node's detail from that
    node's fresh label.  The step budget and MAX_TREE_NODES are checked
    against the exact tree size before any node is built, and a subtree
    above MAX_TREE_NODES stops the call as soon as the memo has counted
    it.

    The cyclic garbage collector is off for the call: nothing it builds
    can form a cycle.  The trace is scanned once, by the first collection
    after the call, which finds it alive.  On every exit, a raise included, the collector is
    turned back on if it was on at entry, so a caller's gc.disable()
    holds.  Calls in two threads share the one collector, so one may see
    it turned back on when the other ends; resolve never leaves it off.
    """
    if not roots:
        raise ResolutionError("no roots given")
    enabled = gc.isenabled()
    gc.disable()
    try:
        states = [(r.x_divisors, r.det_size, tuple(a for _, a in r.exceptional)) for r in roots]
        memo = _expand_all(states, policy, max_steps)
        tops = [memo[s] for s in states]
        total_steps = sum(t.steps for t in tops)
        if max_steps is not None and total_steps > max(max_steps, 0):
            raise ResolutionError(f"step budget {max_steps} exhausted")
        _check_tree_bound(sum(t.nodes for t in tops))
        nodes = [TraceNode(i, r, 1, None) for i, r in enumerate(roots)]
        # only unresolved nodes are queued: leaves take no step and fresh no label
        queue = deque((i, t, tuple(j for j, _ in r.exceptional), 1)
                      for i, (r, t) in enumerate(zip(roots, tops)) if t.rule is not None)
        fresh = max((j for r in roots for j, _ in r.exceptional), default=0) + 1
        steps: list[TraceStep] = []
        # the children and detail of a state whose charts take no fresh label, per
        # (state, labels); the detail is None when it names the fresh label
        stamped: dict[tuple, tuple] = {}
        new, new_node, push, pop = _new, tuple.__new__, queue.append, queue.popleft
        add_node, add_step = nodes.append, steps.append
        (set_step, set_node, set_rule, set_detail, set_children, set_descents,
         set_relabel) = _STEP_SLOTS
        while queue:
            node_id, state, labels, multiplicity = pop()
            if state.fresh:
                names = labels + (fresh,)
                fresh += 1
                children, detail = _stamp(state, names), state.tag.format(*names)
            else:
                cached = stamped.get((state, labels))
                if cached is None:
                    names = labels + (fresh,)
                    # a tag may name the fresh slot without taking it (monres-1
                    # on an exponent-2 divisor): that detail is the node's own
                    detail = (None if "{%d}" % len(labels) in state.tag
                              else state.tag.format(*names))
                    cached = stamped[state, labels] = (_stamp(state, names), detail)
                children, detail = cached
                if detail is None:
                    detail = state.tag.format(*labels, fresh)
            first = len(nodes)
            for child_id, (model, child, child_labels, mult) in enumerate(children, first):
                mult *= multiplicity
                if child is not None:
                    push((child_id, child, child_labels, mult))
                add_node(new_node(TraceNode, (child_id, model, mult, node_id)))
            step = new(TraceStep)
            set_step(step, len(steps))
            set_node(step, node_id)
            set_rule(step, state.rule)
            set_detail(step, detail)
            set_children(step, tuple(range(first, len(nodes))))
            set_descents(step, state.descents)
            set_relabel(step, state.relabel)
            add_step(step)
        leaf_sets = {s[0] for s, e in memo.items() if e.rule is None}
        snapshots = (closure(r.x_divisors for r in roots),
                     closure(sorted(leaf_sets, key=len, reverse=True)))
        return ResolutionTrace(tuple(range(len(roots))), tuple(nodes), tuple(steps), snapshots)
    finally:
        if enabled:
            gc.enable()


def embed_snc(model: SncModel) -> list[LocalModel]:
    """The catalog of local forms over the strata of a glued model.

    The ambient smooth space has dimension n = dim(model) + 1.  A stratum
    with d components admits determinant sizes m with m^2 <= n - d, each
    contributing one root with an empty exceptional multiset.  Each root
    is made by the trusted constructor: a stratum's key is a frozenset of
    ints, m >= 0 and there is no exceptional divisor to check.
    """
    n = model.dim + 1
    roots = []
    for stratum in sorted(model.strata, key=lambda s: (len(s.key), sorted(s.key))):
        d = len(stratum.key)
        m = 0
        while m * m <= n - d:
            roots.append(_model(stratum.key, m, (), Mdeg(d, m, 0)))
            m += 1
    return roots


def validate_determinantal_profile(n: int, observed: Sequence[tuple[int, int]]) -> bool:
    """Each rank-drop stratum of a generic matrix has codimension m^2."""
    for m, codim in observed:
        if codim != m * m or m * m > n:
            return False
    return True
