"""The blow-up rewriting calculus: rules, descent, termination, nerves."""

import gc
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_resolver
from corpus import TRIANGLE_SITES, TWO_SITES_1D
from snclab import resolution
from snclab.cli import main
from snclab.complexes import closure
from snclab.resolution import (
    LocalModel,
    Mdeg,
    Policy,
    ResolutionCheckError,
    ResolutionError,
    TraceNode,
    embed_snc,
    normalize,
    resolve,
    select_rule,
    step_determinantal,
    step_monomial,
    step_mult2,
    validate_determinantal_profile,
)
from snclab.snc import build_snc
from snclab.voronoi import voronoi_complex


def box_models():
    """Every model with deg_x <= 4, deg_y <= 3, deg_z <= 4, one per
    exponent multiset (labels do not matter up to renaming)."""

    def partitions(total, cap=None):
        cap = total if cap is None else cap
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for dx in range(5):
        for m in range(4):
            for dz in range(5):
                for part in partitions(dz):
                    yield LocalModel.build(
                        range(1, dx + 1), m,
                        [(10 + i, a) for i, a in enumerate(part)],
                    )


BOX = list(box_models())


def test_mdeg_examples():
    assert LocalModel.build([1, 2], 1).mdeg() == Mdeg(2, 1, 0)
    assert LocalModel.build([1], 5, [(7, 3)]).mdeg() == Mdeg(1, 5, 3)
    assert LocalModel.build([], 0).mdeg() == Mdeg(0, 0, 0)


def test_is_resolved_examples():
    assert LocalModel.build([1], 3, [(2, 5)]).is_resolved()
    assert LocalModel.build([1, 2, 3, 4], 0).is_resolved()
    assert not LocalModel.build([1, 2], 1).is_resolved()


def test_mdeg_is_computed_once_and_left_out_of_equality():
    model = LocalModel.build([2, 1], 1, [(7, 3), (4, 1)])
    assert model.mdeg() is model.mdeg()
    assert model.mdeg() == Mdeg(2, 1, 4)
    twin = LocalModel.build([1, 2], 1, [(4, 1), (7, 3)])
    assert model == twin and hash(model) == hash(twin)
    assert "mdeg" not in repr(model)


def test_model_validation():
    with pytest.raises(ResolutionError):
        LocalModel.build([1], -1)
    with pytest.raises(ResolutionError):
        LocalModel.build([1], 0, [(3, 0)])
    with pytest.raises(ResolutionError):
        LocalModel.build([1], 0, [(3, 1), (3, 2)])


def test_determinantal_charts_m2():
    model = LocalModel.build([1, 2], 2)
    charts = step_determinantal(model, (1, 2))
    states = [(sorted(c.x_divisors), c.det_size, c.exceptional) for c in charts]
    assert states.count(([2], 2, ((1, 2),))) == 1
    assert states.count(([1], 2, ((1, 2),))) == 1
    assert states.count(([1, 2], 1, ((1, 2),))) == 4
    assert len(charts) == 6


def test_determinantal_errors():
    with pytest.raises(ResolutionError):
        step_determinantal(LocalModel.build([1, 2], 1), (1, 2))
    with pytest.raises(ResolutionError):
        step_determinantal(LocalModel.build([1, 2], 2), (1, 3))
    # a fresh divisor is larger than every label in use
    with pytest.raises(ResolutionError, match="fresh label"):
        step_determinantal(LocalModel.build([1, 2], 2, [(5, 1)]), (1, 2), fresh_label=3)


def test_monomial_step1_drops_zero_exponents():
    model = LocalModel.build([1, 2], 0, [(7, 2)])
    charts = step_monomial(model, ("exp>=2", 7))
    degs = sorted(tuple(c.mdeg()) for c in charts)
    assert degs == [(1, 0, 2), (1, 0, 2), (2, 0, 0)]
    z_chart = next(c for c in charts if c.x_divisors == frozenset({1, 2}))
    assert z_chart.exceptional == ()
    x_chart = next(c for c in charts if c.x_divisors == frozenset({2}))
    assert x_chart.exceptional == ((7, 2),)  # a_j - 2 = 0 exponent dropped


def test_monomial_step2_charts():
    model = LocalModel.build([1, 2], 0, [(5, 1), (6, 1)])
    charts = step_monomial(model, ("pair", 5, 6))
    degs = sorted(tuple(c.mdeg()) for c in charts)
    assert degs == [(1, 0, 2), (1, 0, 2), (2, 0, 1), (2, 0, 1)]


def test_monomial_step3_charts():
    model = LocalModel.build([1, 2], 1, [(5, 1)])
    charts = step_monomial(model, ("y_z_pair", 5))
    degs = sorted(tuple(c.mdeg()) for c in charts)
    assert degs == [(1, 1, 1), (1, 1, 1), (2, 0, 1), (2, 1, 0)]


def test_monomial_preconditions():
    with pytest.raises(ResolutionError):
        step_monomial(LocalModel.build([1, 2], 0, [(7, 1)]), ("exp>=2", 7))
    with pytest.raises(ResolutionError):
        step_monomial(LocalModel.build([1], 0, [(7, 2)]), ("exp>=2", 7))
    with pytest.raises(ResolutionError):
        step_monomial(LocalModel.build([1, 2], 0, [(7, 2)]), ("unknown", 7))


def test_mult2_charts():
    node = LocalModel.build([1, 2], 1)
    charts = step_mult2(node)
    degs = sorted(tuple(c.mdeg()) for c in charts)
    assert degs == [(1, 1, 0), (2, 0, 0)]
    assert all(c.is_resolved() for c in charts)
    deeper = step_mult2(LocalModel.build([1, 2, 3], 1))
    assert sorted(tuple(c.mdeg()) for c in deeper) == [(2, 1, 0), (3, 0, 0)]
    with pytest.raises(ResolutionError):
        step_mult2(LocalModel.build([1, 2], 1, [(4, 1)]))


def test_normalize():
    model = LocalModel.build([1, 2], 0, [(9, 1)])
    out = normalize(model)
    assert (sorted(out.x_divisors), out.det_size, out.exceptional) == ([1, 2], 1, ())
    already = LocalModel.build([1, 2], 1)
    assert normalize(already) is already
    heavy = LocalModel.build([1, 2], 0, [(9, 2)])
    assert normalize(heavy) is heavy


def test_rule_coverage_totality_on_box():
    for model in BOX:
        rule = select_rule(model)
        if model.is_resolved():
            assert rule is None
            continue
        assert rule is not None
        d = model.mdeg()
        name = rule[0]
        if d.deg_y >= 2:
            assert name == "detres"
        elif any(a >= 2 for _, a in model.exceptional):
            assert name == "monres-1"
        elif sum(1 for _, a in model.exceptional if a == 1) >= 2:
            assert name == "monres-2"
        elif d.deg_y == 1 and d.deg_z == 1:
            assert name == "monres-3"
        elif d.deg_y == 0 and d.deg_z == 1:
            assert name == "normalize"
        else:
            assert name == "binres"


def test_strict_lex_descent_on_box():
    """Every blow-up chart descends strictly; the normalize relabeling is
    the documented transposition and its composite with the forced
    follow-up rule descends below the pre-normalize degree."""
    for model in BOX:
        rule = select_rule(model)
        if rule is None:
            continue
        charts = tree_resolver.apply_rule(model, rule)
        parent = model.mdeg()
        if rule[0] == "normalize":
            (child,) = charts
            assert child.mdeg() == Mdeg(parent.deg_x, 1, 0)
            follow = select_rule(child)
            assert follow == ("binres", None)
            for grandchild in tree_resolver.apply_rule(child, follow):
                assert grandchild.mdeg() < parent
        else:
            for c in charts:
                assert c.mdeg() < parent


def test_resolve_terminates_on_box_with_invariants():
    for model in BOX:
        trace = resolve([model])
        assert trace.all_resolved()
        assert trace.nerve_constant()
        tree_resolver.verify_certificate(trace)


def test_nerve_matches_per_step_snapshots_on_box():
    # the engine records the nerve at the roots and at the leaves only; the
    # closure after every step, rebuilt from the trace, must equal both
    for model in BOX[::7]:
        trace = resolve([model])
        live = Counter(trace.nodes[r].model.x_divisors for r in trace.roots)
        per_step = [closure(+live)]
        for step in trace.steps:
            live[trace.nodes[step.node].model.x_divisors] -= 1
            live.update(trace.nodes[c].model.x_divisors for c in step.children)
            per_step.append(closure(+live))
        assert all(s == trace.snapshots[0] for s in per_step)
        assert trace.snapshots == (per_step[0], per_step[-1])


def test_fresh_divisor_hygiene():
    trace = resolve([LocalModel.build([1, 2, 3], 3, [(5, 2)])])
    introduced = []
    by_id = {n.node_id: n for n in trace.nodes}
    for step in trace.steps:
        parent = by_id[step.node].model
        parent_labels = {j for j, _ in parent.exceptional}
        fresh = set()
        for cid in step.children:
            fresh |= {j for j, _ in by_id[cid].model.exceptional} - parent_labels
        if fresh:
            introduced.append(fresh)
    assert all(len(f) == 1 for f in introduced)
    flat = [j for f in introduced for j in f]
    assert len(flat) == len(set(flat))


def test_resolve_ordinary_node():
    trace = resolve([LocalModel.build([1, 2], 1)])
    assert len(trace.steps) == 1
    assert trace.leaf_count() == 2
    assert trace.all_resolved()
    assert trace.steps[0].rule == "binres"


def test_resolve_m2_cascade_and_frozen_leaf_count():
    trace = resolve([LocalModel.build([1, 2], 2)])
    assert [s.rule for s in trace.steps] == ["detres", "monres-1", "binres"]
    assert trace.all_resolved()
    expected_nerve = {
        frozenset({1}), frozenset({2}), frozenset({1, 2}),
    }
    assert set(trace.final_nerve()) == expected_nerve
    assert trace.nerve_constant()
    # engine-computed count, frozen as a regression value
    assert trace.leaf_count() == 18


def test_resolve_already_resolved_root():
    trace = resolve([LocalModel.build([1], 7, [(3, 4)])])
    assert len(trace.steps) == 0
    assert trace.leaf_count() == 1


def test_resolve_max_steps_valve():
    with pytest.raises(ResolutionError, match="budget"):
        resolve([LocalModel.build([1, 2, 3, 4], 3, [(5, 4)])], max_steps=5)


# resolve's self-checks, each made to fire by rule charts that break it;
# NODE takes binres, SINGLE takes normalize and then binres
NODE = LocalModel.build([1, 2], 1)
SINGLE = LocalModel.build([1, 2], 0, [(9, 1)])


def _binres_to(monkeypatch, charts):
    """Let binres on x-index set {1, 2} return charts(x-index set, fresh label)."""
    real = resolution._rule_charts

    def rule_charts(model, rule, policy, fresh_label):
        if rule[0] != "binres":
            return real(model, rule, policy, fresh_label)
        return "binres(1)", charts(model.x_divisors, fresh_label)

    monkeypatch.setattr(resolution, "_rule_charts", rule_charts)


def _refused(root, message):
    with pytest.raises(ResolutionCheckError) as caught:
        resolve([root])
    assert str(caught.value) == message


def test_resolve_refuses_a_chart_escaping_the_parent(monkeypatch, tmp_path, capsys):
    _binres_to(monkeypatch, lambda xs, w: [(xs | {3}, 0, ())])
    _refused(NODE, "child x-index set escapes the parent's")
    path = tmp_path / "node.json"
    path.write_text(json.dumps(NODE.to_json_dict()))
    assert main(["resolve", "run", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: check failed: child x-index set escapes the parent's\n")


def test_resolve_refuses_charts_that_drop_the_parent_set(monkeypatch):
    _binres_to(monkeypatch, lambda xs, w: [(xs - {1}, 1, ()), (xs - {2}, 0, ())])
    _refused(NODE, "no child preserves the parent's x-index set")


def test_resolve_refuses_a_blowup_chart_that_does_not_descend(monkeypatch):
    _binres_to(monkeypatch, lambda xs, w: [(xs - {1}, 1, ()), (xs, 1, ())])
    _refused(NODE, "binres on (frozenset({1, 2}), 1, ()): mdeg Mdeg(deg_x=2, deg_y=1, "
                   "deg_z=0) does not descend below Mdeg(deg_x=2, deg_y=1, deg_z=0)")


def test_resolve_refuses_a_normalize_of_the_wrong_shape(monkeypatch):
    monkeypatch.setattr(resolution, "_normalize",
                        lambda model: ("normalize", [(model.x_divisors, 0, ())]))
    _refused(SINGLE, "normalize on (frozenset({1, 2}), 0, (1,)): unexpected relabel shape")


def test_resolve_refuses_a_relabel_composite_that_does_not_descend(monkeypatch):
    # binres after normalize descends from (2, 1, 0) to (2, 0, 2), which is
    # above the pre-normalize degree (2, 0, 1)
    _binres_to(monkeypatch, lambda xs, w: [(xs - {1}, 1, ()), (xs, 0, ((w, 2),))])
    _refused(SINGLE, "relabel composite fails to descend")


def test_resolve_refuses_rules_that_return_to_a_state(monkeypatch):
    # binres after normalize gives back the root's state (2, 0, (1,))
    _binres_to(monkeypatch, lambda xs, w: [(xs - {1}, 1, ()), (xs, 0, ((w, 1),))])
    _refused(SINGLE, "the rules return to a state they left")


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    """The cyclic garbage collector turned on or off for the test, and put
    back as it was after it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def test_resolve_pauses_the_collector_and_restores_it(collector, monkeypatch):
    seen = []

    def spy(real):
        def wrapped(*args):
            seen.append(gc.isenabled())
            return real(*args)
        return wrapped

    monkeypatch.setattr(resolution, "_expand_all", spy(resolution._expand_all))
    monkeypatch.setattr(resolution, "closure", spy(resolution.closure))
    assert resolve([LocalModel.build([1, 2, 3], 1, [(4, 2)])]).all_resolved()
    # off while the memo is expanded and while both nerves are taken
    assert seen == [False, False, False]
    assert gc.isenabled() is collector


def _escaping_mult2(model, i1=None):
    # a multiplicity-2 chart function whose chart adds an x-divisor
    return "binres(1)", [(model.x_divisors | {99}, 0, model.exceptional)]


@pytest.mark.parametrize("patch, roots, max_steps, error, message", [
    (None, [LocalModel.build([1, 2, 3, 4], 3, [(5, 4)])], 5, ResolutionError,
     "step budget 5 exhausted"),
    # one state expanded, two steps in the tree
    (None, [NODE, NODE], 1, ResolutionError, "step budget 1 exhausted"),
    # a subtree of 6 nodes, refused as soon as it is counted
    (("MAX_TREE_NODES", 5), [LocalModel.build([1, 2, 3], 1, [(4, 2)])], None, ResolutionError,
     "the resolution tree has at least 6 nodes, more than the bound of 5"),
    # each tree has 3 nodes, the two 6
    (("MAX_TREE_NODES", 5), [NODE, NODE], None, ResolutionError,
     "the resolution tree has at least 6 nodes, more than the bound of 5"),
    (("_mult2", _escaping_mult2), [NODE], None, ResolutionCheckError,
     "child x-index set escapes the parent's"),
], ids=["budget_while_expanding", "budget_of_the_tree", "bound_of_a_subtree",
        "bound_of_the_tree", "failed_self_check"])
def test_a_raising_resolve_restores_the_collector(collector, monkeypatch, patch, roots,
                                                  max_steps, error, message):
    if patch is not None:
        monkeypatch.setattr(resolution, *patch)
    with pytest.raises(ResolutionError) as caught:
        resolve(roots, max_steps=max_steps)
    assert (type(caught.value), str(caught.value)) == (error, message)
    assert gc.isenabled() is collector


def test_the_memo_and_trace_hold_no_reference_cycle():
    # what resolve pauses the collector for: with it off throughout,
    # reference counting frees every trace and memo, and nothing is left
    # for a collection to find
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for policy in (Policy(), Policy(seed=3)):
            for model in BOX:
                trace = resolve([model], policy)
                assert trace.all_resolved()
                del trace
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_nodes_with_equal_states_have_equal_models():
    # a model is its germ: nodes reached along different paths with one
    # state hold equal models, which hash equal
    trace = resolve([LocalModel.build([1, 2, 3], 2)])
    first: dict[tuple, LocalModel] = {}
    repeats = 0
    for node in trace.nodes:
        state = node.model.state()
        if state in first:
            repeats += 1
            model = first[state]
            assert node.model == model and hash(node.model) == hash(model)
        else:
            first[state] = node.model
    assert repeats == 11


@pytest.mark.parametrize("root", [
    LocalModel.build([1, 2, 3, 4], 3),
    LocalModel.build([1, 2, 3], 3, [(10, 1), (11, 1), (12, 1), (13, 1)]),
], ids=["4_3_empty", "3_3_1111"])
def test_children_are_stamped_once_per_state_and_labels(root):
    # a step that takes no fresh label has children that depend only on its
    # node's labelled model: below equal such models each chart is one
    # shared LocalModel, and every node's model is the worklist oracle's
    trace = resolve([root])
    expected = tree_resolver.resolve([root])
    assert [n.model for n in trace.nodes] == [n.model for n in expected.nodes]
    below: dict[LocalModel, tuple] = {}
    shared = 0
    for step in trace.steps:
        parent = trace.nodes[step.node].model
        labels = {j for j, _ in parent.exceptional}
        children = tuple(trace.nodes[c].model for c in step.children)
        if any(j not in labels for child in children for j, _ in child.exceptional):
            continue  # the step takes a fresh label
        first = below.setdefault(parent, children)
        if first is not children:
            shared += 1
            assert all(a is b for a, b in zip(first, children, strict=True))
    assert shared > 100


def test_trace_node_is_a_value_tuple():
    # the public constructor, as the worklist oracle builds nodes, makes a
    # node equal to and hashing like the one resolve builds
    trace = resolve([LocalModel.build([1, 2], 2, [(10, 2)])])
    node = trace.nodes[3]
    assert TraceNode._fields == ("node_id", "model", "multiplicity", "parent")
    same = TraceNode(node.node_id, node.model, node.multiplicity, node.parent)
    assert node == same and hash(node) == hash(same)
    assert node != TraceNode(node.node_id, node.model, node.multiplicity + 1, node.parent)
    with pytest.raises(AttributeError):
        node.multiplicity = 1
    assert repr(node) == ("TraceNode(node_id=3, model=LocalModel(x_divisors=frozenset({1, 2}), "
                          "det_size=1, exceptional=((10, 2), (11, 2))), multiplicity=4, parent=0)")


@pytest.mark.parametrize("roots", [
    [LocalModel.build([1, 2, 3, 4], 3)],
    # the middle root takes label 11, so the third one's step names 12
    [LocalModel.build([1, 2], 0, [(10, 2)]), LocalModel.build([1, 2], 2),
     LocalModel.build([1, 2], 0, [(10, 2)])],
], ids=["4_3_empty", "repeated_root"])
def test_a_detail_that_names_an_untaken_fresh_label_is_the_nodes_own(roots):
    # monres-1 on an exponent-2 divisor names the fresh label w but takes
    # none: nodes with equal labelled models there share their children,
    # not their detail
    trace = resolve(roots)
    expected = tree_resolver.resolve(roots)
    details: dict[LocalModel, set] = {}
    for step, oracle in zip(trace.steps, expected.steps, strict=True):
        parent = trace.nodes[step.node].model
        labels = {j for j, _ in parent.exceptional}
        if step.rule != "monres-1" or any(j not in labels for c in step.children
                                          for j, _ in trace.nodes[c].model.exceptional):
            continue
        assert step.detail == oracle.detail
        details.setdefault(parent, set()).add(step.detail)
    assert any(len(seen) > 1 for seen in details.values())


def test_policy_permutation_fuzz():
    root = LocalModel.build([1, 2, 3], 1, [(4, 2)])
    baseline = resolve([root])
    nerves = {baseline.final_nerve()}
    for seed in range(6):
        trace = resolve([root], Policy(seed=seed))
        assert trace.all_resolved()
        assert trace.nerve_constant()
        tree_resolver.verify_certificate(trace)
        nerves.add(trace.final_nerve())
    # the nerve is an invariant of the root, not of the center choices
    assert len(nerves) == 1


def test_single_thread_traces_are_bit_identical():
    root = LocalModel.build([1, 2], 2, [(9, 3)])
    a = resolve([root], Policy(seed=5)).to_json()
    b = resolve([root], Policy(seed=5)).to_json()
    assert a == b


def test_embed_snc_curves_in_surfaces():
    vc = voronoi_complex(TWO_SITES_1D)
    model = build_snc(vc, (0, 1))
    roots = embed_snc(model)
    # dim 1 model, ambient n = 2: the point stratum gets only m = 0
    point_roots = [r for r in roots if len(r.x_divisors) == 2]
    assert [(sorted(r.x_divisors), r.det_size) for r in point_roots] == [([0, 1], 0)]
    assert all(r.is_resolved() for r in roots)


def test_embed_snc_double_curves_get_the_node():
    vc = voronoi_complex(TRIANGLE_SITES)
    model = build_snc(vc, (0, 1, 2))
    roots = embed_snc(model)
    # ambient n = 3; a double-curve stratum (d = 2) admits m in {0, 1}
    curve_roots = [r for r in roots if r.x_divisors == frozenset({0, 1})]
    assert [(r.det_size, r.exceptional) for r in curve_roots] == [(0, ()), (1, ())]
    single = [r for r in roots if len(r.x_divisors) == 1]
    assert all(r.is_resolved() for r in single)
    trace = resolve(roots)
    assert trace.all_resolved()
    assert set(trace.final_nerve()) == {
        frozenset(s) for s in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2})
    }


# the most exceptional divisors drawn for an (|I|, m) whose trees grow
# large, so that one example stays under about 20,000 nodes
MAX_DIVISORS = {(3, 3): 3, (4, 0): 3, (4, 1): 2, (4, 2): 2, (4, 3): 0}


@st.composite
def root_lists(draw):
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        xs = draw(st.sets(st.integers(1, 99), max_size=4))
        m = draw(st.integers(0, 3))
        k = draw(st.integers(0, MAX_DIVISORS.get((len(xs), m), 4)))
        labels = draw(st.lists(st.integers(1, 999), min_size=k, max_size=k, unique=True))
        exponents = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        roots.append(LocalModel.build(xs, m, zip(labels, exponents)))
    return roots


def _assert_matches_tree_oracle(roots, policy=Policy()):
    trace = resolve(roots, policy)
    expected = tree_resolver.resolve(roots, policy)
    assert trace == expected
    assert trace.to_json() == expected.to_json()
    return trace


@settings(max_examples=80)
@given(root_lists(), st.one_of(st.none(), st.integers(0, 50)))
def test_memoised_resolver_matches_tree_oracle(roots, seed):
    trace = _assert_matches_tree_oracle(roots, Policy(seed))
    # the budget is compared with the exact step count
    assert resolve(roots, Policy(seed), max_steps=len(trace.steps)) == trace
    if trace.steps:
        with pytest.raises(ResolutionError, match="budget"):
            resolve(roots, Policy(seed), max_steps=len(trace.steps) - 1)


def test_memoised_resolver_matches_tree_oracle_on_box():
    for model in BOX[::7]:
        _assert_matches_tree_oracle([model])


def test_validate_determinantal_profile():
    assert validate_determinantal_profile(4, [(1, 1), (2, 4)])
    assert not validate_determinantal_profile(4, [(2, 3)])
    assert validate_determinantal_profile(4, [])
    assert not validate_determinantal_profile(3, [(2, 4)])
