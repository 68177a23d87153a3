"""The worklist resolver that expands every tree node, kept as a test oracle.

`snclab.resolution.resolve` expands each distinct canonical state once and
stamps the tree out of that memo; on every input it must return exactly
the trace this breadth-first worklist builds, node by node.

`verify_certificate` re-checks a finished trace's termination certificate
step by step, and `apply_rule` applies one selected rule to a model.
"""

from collections import deque
from typing import Optional, Sequence

from snclab.complexes import closure
from snclab.resolution import (
    LocalModel,
    Policy,
    ResolutionCheckError,
    ResolutionError,
    ResolutionTrace,
    TraceNode,
    TraceStep,
    _relabel_shape,
    _rule_charts,
    select_rule,
)


def apply_rule(model: LocalModel, rule) -> list[LocalModel]:
    """The charts of a selected rule under the default policy."""
    return model._charts(_rule_charts(model, rule, Policy(), None))


def verify_certificate(trace: ResolutionTrace) -> None:
    """Strict lexicographic descent on every blow-up; relabel steps must
    be the documented mdeg transposition and descend compositely."""
    children_steps = {s.node: s for s in trace.steps}
    for s in trace.steps:
        if s.relabel:
            (parent_deg, child_deg), = s.descents
            if not _relabel_shape(parent_deg, child_deg):
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


def resolve(
    roots: Sequence[LocalModel],
    policy: Policy = Policy(),
    max_steps: Optional[int] = None,
) -> ResolutionTrace:
    """Worklist resolution with the nerve facts checked on every step."""
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
    while queue:
        node_id = queue.popleft()
        model = nodes[node_id].model
        rule = select_rule(model, policy)
        if rule is None:
            leaf_sets.add(model.x_divisors)
            continue
        if max_steps is not None and len(steps) >= max_steps:
            raise ResolutionError(f"step budget {max_steps} exhausted")
        name, detail = rule
        tag, _ = tagged = _rule_charts(model, rule, policy, fresh)
        charts = model._charts(tagged)
        if name in ("detres", "monres-1"):
            if any(j == fresh for c in charts for j, _ in c.exceptional):
                fresh += 1
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
            len(steps), node_id, name, tag,
            tuple(child_ids), tuple(descents), name == "normalize",
        ))
    snapshots = (closure(r.x_divisors for r in roots), closure(leaf_sets))
    trace = ResolutionTrace(tuple(range(len(roots))), tuple(nodes), tuple(steps), snapshots)
    if not trace.all_resolved():
        raise ResolutionCheckError("worklist drained with unresolved leaves")
    verify_certificate(trace)
    return trace
