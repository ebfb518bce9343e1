import math
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import RADIO_RANGE, gabriel_planarize, radio_edges, radio_neighbors
from geams_sim import topology
from geams_sim.engine import Simulation
from geams_sim.experiment import ExperimentPlan, run_experiment
from geams_sim.topology import (
    MAX_PLACEMENT_ATTEMPTS,
    SINK_ID,
    SOURCE_ID,
    PlacementError,
    Position,
    Topology,
    check_nodes,
    distance,
    generate_topology,
    load_topology_csv,
    range_neighbor_lists,
    save_topology_csv,
)
from geams_sim.scenario import ScenarioConfig, ScenarioError, config_from_dict

DEFAULT = ScenarioConfig()


def placed(seed: int, n_sensors: int) -> Topology:
    """The default field's placement of `n_sensors` sensors under `seed`."""
    return generate_topology(DEFAULT.replace(seed=seed, n_sensors=n_sensors))


def test_distance_identity():
    assert distance(Position(0, 0), Position(0, 0)) == 0.0


def test_distance_axis_aligned():
    assert distance(Position(10, 90), Position(490, 90)) == 480.0


def test_distance_pythagorean():
    assert distance(Position(0, 0), Position(3, 4)) == 5.0


def test_generate_is_deterministic():
    a = placed(1, 30)
    b = placed(1, 30)
    assert a.nodes == b.nodes


def test_pairwise_separation_holds():
    t = placed(7, 100)
    nodes = t.nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            assert distance(nodes[i][1], nodes[j][1]) >= DEFAULT.min_separation


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_separation_property(seed):
    t = placed(seed, 8)
    nodes = t.nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            assert distance(nodes[i][1], nodes[j][1]) >= DEFAULT.min_separation


def test_node_ids_dense_and_designated():
    t = placed(3, 12)
    assert sorted(i for i, _ in t.nodes) == list(range(14))
    assert (SINK_ID, SOURCE_ID) == (0, 1)
    assert dict(t.nodes)[0] == Position(DEFAULT.sink_x, DEFAULT.sink_y)
    assert dict(t.nodes)[1] == Position(DEFAULT.source_x, DEFAULT.source_y)
    assert t.sensor_ids == list(range(2, 14))


def test_positions_stay_in_field():
    t = placed(11, 60)
    for _, p in t.nodes:
        assert 0 <= p.x <= DEFAULT.field_width
        assert 0 <= p.y <= DEFAULT.field_height


def test_negative_sensor_count():
    # the scenario rejects it before any placement
    with pytest.raises(ValueError):
        placed(1, -1)


def test_field_validation():
    with pytest.raises(ScenarioError):
        config_from_dict({"min_separation": 0})
    with pytest.raises(ScenarioError):
        config_from_dict({"min_separation": math.nan})
    with pytest.raises(ScenarioError):
        config_from_dict({"sink_x": 600})
    for size in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ScenarioError, match="field width must be positive and finite"):
            config_from_dict({"field_width": size})
        with pytest.raises(ScenarioError, match="field height must be positive and finite"):
            config_from_dict({"field_height": size})
    with pytest.raises(ScenarioError, match="closer than min_separation"):
        config_from_dict({"sink_x": 10.0, "sink_y": 90.4})
    # exactly min_separation apart is allowed
    config_from_dict({"sink_x": 10.0, "sink_y": 92.0, "min_separation": 2.0})


def test_placement_error_when_field_too_crowded():
    # a 5x5 field cannot hold a third node 5 m away from both corners
    cfg = ScenarioConfig(n_sensors=1, field_width=5, field_height=5, sink_x=0, sink_y=0,
                         source_x=5, source_y=5, min_separation=5)
    with pytest.raises(PlacementError):
        generate_topology(cfg)


def _brute_force_placement(cfg):
    """generate_topology with an all-pairs separation check: the reference
    the cell-grid placement must reproduce draw for draw."""
    rng = random.Random(cfg.seed)
    nodes = [(0, Position(cfg.sink_x, cfg.sink_y)), (1, Position(cfg.source_x, cfg.source_y))]
    for node_id in range(2, 2 + cfg.n_sensors):
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            cand = Position(rng.uniform(0.0, cfg.field_width),
                            rng.uniform(0.0, cfg.field_height))
            if all(distance(cand, p) >= cfg.min_separation for _, p in nodes):
                nodes.append((node_id, cand))
                break
        else:
            raise PlacementError(f"could not place sensor {node_id} after "
                                 f"{MAX_PLACEMENT_ATTEMPTS} attempts")
    return tuple(nodes)


CROWDED = ScenarioConfig(field_width=20, field_height=20, sink_x=19, sink_y=10,
                         source_x=1, source_y=10, min_separation=1)


@pytest.mark.parametrize("seed,n,base", [
    (1, 300, DEFAULT),
    (2, 300, DEFAULT),
    (3, 150, CROWDED),
    (4, 150, CROWDED),
    (5, 60, ScenarioConfig(field_width=30, field_height=30, sink_x=30, sink_y=0,
                           source_x=0, source_y=30, min_separation=2.5)),
], ids=["default-1", "default-2", "crowded-3", "crowded-4", "crowded-sep2.5"])
def test_grid_placement_matches_brute_force(seed, n, base):
    cfg = base.replace(seed=seed, n_sensors=n)
    assert generate_topology(cfg).nodes == _brute_force_placement(cfg)


def test_grid_placement_fails_where_brute_force_fails():
    cfg = ScenarioConfig(n_sensors=40, field_width=4, field_height=4, sink_x=4, sink_y=2,
                         source_x=0, source_y=2, min_separation=1)
    with pytest.raises(PlacementError) as grid:
        generate_topology(cfg)
    with pytest.raises(PlacementError) as brute:
        _brute_force_placement(cfg)
    assert str(grid.value) == str(brute.value)  # the same sensor fails


def _two_node_topology(d: float) -> Topology:
    return Topology(nodes=((0, Position(10 + d, 90)), (1, Position(10, 90))))


def test_radio_boundary_inclusive():
    t = _two_node_topology(80.0)
    assert radio_neighbors(t, 0) == {1}
    assert radio_neighbors(t, 1) == {0}


def test_radio_boundary_exclusive_beyond_range():
    t = _two_node_topology(80.01)
    assert radio_neighbors(t, 0) == set()
    assert radio_neighbors(t, 1) == set()


def test_radio_neighbors_match_brute_force():
    t = placed(1, 30)
    for u, pu in t.nodes:
        expected = {
            v for v, pv in t.nodes
            if v != u and distance(pu, pv) <= RADIO_RANGE
        }
        assert radio_neighbors(t, u) == expected


R = 80.0
# coordinates on cell boundaries, at +-R from them, and off the 500 x 200 field
_COORD = st.one_of(
    st.integers(-3, 8).map(lambda k: k * R),
    st.integers(-6, 16).map(lambda k: k * R / 2),
    st.floats(-2 * R, 500 + 2 * R),
)
# offsets that put a second point exactly R away (3-4-5 and axis triangles)
_EXACT_R = st.sampled_from([(R, 0.0), (0.0, -R), (0.6 * R, 0.8 * R), (-0.8 * R, 0.6 * R)])


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40),
    partners=st.lists(st.tuples(st.integers(0, 39), _EXACT_R), max_size=10),
    data=st.data(),
)
def test_range_lists_match_radio_neighbors(points, partners, data):
    for i, (dx, dy) in partners:
        x, y = points[i % len(points)]
        points.append((x + dx, y + dy))
    rows = [(i, Position(x, y)) for i, (x, y) in enumerate(points)]
    # ascending, descending or shuffled ids: lists are built in id order
    rows = data.draw(st.one_of(st.just(rows), st.just(rows[::-1]), st.permutations(rows)))
    t = Topology(nodes=tuple(rows))
    lists = range_neighbor_lists(t, R)
    assert list(lists) == [i for i, _ in t.nodes]  # keyed in row order
    for u, _ in t.nodes:
        assert lists[u] == sorted(radio_neighbors(t, u, R))
        for v in lists[u]:
            assert u in lists[v]


def test_range_lists_skip_non_finite_positions():
    t = Topology(nodes=((0, Position(490, 90)), (1, Position(10, 90)),
                        (2, Position(math.nan, 90)), (3, Position(math.inf, 90)),
                        (4, Position(60, 90))))
    lists = range_neighbor_lists(t, RADIO_RANGE)
    assert lists == {u: sorted(radio_neighbors(t, u)) for u, _ in t.nodes}
    assert lists[2] == lists[3] == []


def test_radio_symmetry():
    t = placed(5, 40)
    for u, _ in t.nodes:
        for v in radio_neighbors(t, u):
            assert u in radio_neighbors(t, v)


def test_gabriel_collinear_triple(topo_builder):
    t = topo_builder(
        {0: Position(0, 5), 1: Position(80, 5), 2: Position(40, 5)})
    assert radio_edges(t) == {(0, 1), (0, 2), (1, 2)}
    # the middle node sits on the (0,1) diameter circle, which removes that edge
    assert gabriel_planarize(t) == {(0, 2), (1, 2)}


def test_gabriel_pair_kept():
    t = _two_node_topology(50.0)
    assert gabriel_planarize(t) == {(0, 1)}


def test_gabriel_is_subgraph():
    t = placed(2, 30)
    assert gabriel_planarize(t) <= radio_edges(t)


def _components(ids, edges):
    adj = {i: set() for i in ids}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, comps = set(), 0
    for start in ids:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adj[node] - seen)
    return comps


def test_gabriel_preserves_connectivity():
    for seed in range(1, 6):
        t = placed(seed, 30)
        ids = [i for i, _ in t.nodes]
        before = _components(ids, radio_edges(t))
        after = _components(ids, gabriel_planarize(t))
        assert after == before


def test_csv_roundtrip(tmp_path):
    t = placed(9, 25)
    path = tmp_path / "topo.csv"
    save_topology_csv(t, path)
    loaded = load_topology_csv(path, DEFAULT)
    assert loaded.nodes == t.nodes
    for u, _ in t.nodes:
        assert radio_neighbors(loaded, u) == radio_neighbors(t, u)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y\n0,1,2\n")
    with pytest.raises(ValueError):
        load_topology_csv(path, DEFAULT)


def test_csv_requires_designated_nodes(tmp_path):
    path = tmp_path / "nosink.csv"
    path.write_text("node_id,x,y\n1,10.0,90.0\n2,50.0,90.0\n")
    with pytest.raises(ValueError):
        load_topology_csv(path, DEFAULT)


def _write_topology(tmp_path, rows):
    path = tmp_path / "topo.csv"
    path.write_text("node_id,x,y\n" + "".join(f"{r}\n" for r in rows))
    return path


@pytest.mark.parametrize("rows,line,message", [
    (["0,490,90", "1,10,90", "2,100,90", "2,200,90"], 5, "duplicate node id 2"),
    (["0,490,90", "1,10,90", "2,nan,90"], 4, "non-finite"),
    (["0,490,90", "1,10,90", "2,100,inf"], 4, "non-finite"),
    (["0,490,90", "1,10,90", "2,100,-1"], 4, "outside the 500.0 x 200.0 field"),
    (["0,490,90", "1,510,90"], 3, "outside"),
    (["0,490,90", "1,10,90", "2,100,90", "3,100.4,90"], 5, "from node 2, closer than min_separation"),
    (["0,490,90", "1,10,90", "2,10.5,90.5"], 4, "from node 1, closer than min_separation"),
    (["0,490,90", "1,10,90", "2,100"], 4, "expected 'node_id,x,y'"),
    (["0,490,90", "1,10,90", "two,100,90"], 4, "expected 'node_id,x,y'"),
])
def test_csv_rejects_bad_rows(tmp_path, rows, line, message):
    path = _write_topology(tmp_path, rows)
    with pytest.raises(ValueError, match=f"line {line}: .*{message}"):
        load_topology_csv(path, DEFAULT)


def test_csv_rejects_two_nodes_half_a_metre_apart(tmp_path):
    # their link would be shorter than the link model's 1 m floor, which no
    # in-run check guards
    path = _write_topology(tmp_path, ["0,490,90", "1,10,90", "2,100,90", "3,100.5,90"])
    with pytest.raises(ValueError, match="line 5: node 3 is 0.5 m from node 2, closer "
                                         "than min_separation 1.0"):
        load_topology_csv(path, DEFAULT)


def test_csv_accepts_nodes_exactly_min_separation_apart_and_on_the_edge(tmp_path):
    path = _write_topology(tmp_path, ["0,500,200", "1,0,0", "2,100,90", "3,101,90"])
    t = load_topology_csv(path, DEFAULT)
    assert [i for i, _ in t.nodes] == [0, 1, 2, 3]


@settings(max_examples=200, deadline=None)
@given(width=st.floats(5.0, 100.0), height=st.floats(5.0, 100.0),
       min_separation=st.floats(1.0, 5.0),
       sides=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       n_sensors=st.integers(0, 40), seed=st.integers(0, 10_000))
def test_check_nodes_accepts_every_generated_placement(width, height, min_separation, sides,
                                                       n_sensors, seed):
    """A placement is known to fit the geometry it was placed for, so no run
    checks it again: rejection sampling makes check_nodes's tests.  The
    designated nodes lie anywhere on the field, its edges included; there
    is at most one sensor per 2 min_separation^2 of field, short of where
    random placement jams."""
    sink_x, sink_y, source_x, source_y = (f * size for f, size in
                                          zip(sides, (width, height) * 2))
    try:
        cfg = ScenarioConfig(
            n_sensors=min(n_sensors, int(width * height / (2 * min_separation ** 2))),
            seed=seed, field_width=width, field_height=height,
            min_separation=min_separation, sink_x=sink_x, sink_y=sink_y,
            source_x=source_x, source_y=source_y)
        t = generate_topology(cfg)
    except (ScenarioError, PlacementError):  # designated nodes too close, or a crowded field
        reject()
    assert t._fits == {(width, height, min_separation)}
    assert check_nodes(t.nodes, cfg) == t


def _counted_checks(monkeypatch) -> list:
    """The cfg of every check_nodes call from here on, the topology module's
    own calls included."""
    check, cfgs = topology.check_nodes, []

    def counting_check(nodes, cfg, *a, **kw):
        cfgs.append(cfg)
        return check(nodes, cfg, *a, **kw)

    monkeypatch.setattr(topology, "check_nodes", counting_check)
    return cfgs


def test_a_hand_built_topology_is_checked_at_its_first_run_only(monkeypatch):
    checks = _counted_checks(monkeypatch)
    t = Topology(nodes=((0, Position(490, 90)), (1, Position(10, 90)), (2, Position(250, 90))))
    cfg = ScenarioConfig(n_sensors=1, image_count=1)
    Simulation(cfg, t).run()
    assert checks == [cfg]
    # another protocol, seed and radio range, but the same field and min_separation
    Simulation(cfg.replace(protocol="gpsr", seed=2, radio_range=150.0), t).run()
    assert checks == [cfg]


def test_equality_hash_and_repr_ignore_the_memos():
    generated = placed(4, 10)
    generated.range_lists(RADIO_RANGE)
    bare = Topology(nodes=generated.nodes)
    assert generated._fits and generated._range_lists
    assert not bare._fits and not bare._range_lists
    assert generated == bare
    assert hash(generated) == hash(bare)
    assert repr(generated) == repr(bare)


def test_a_two_protocol_experiment_checks_no_placement(tmp_path, monkeypatch):
    """Each deployment is placed once and run by both protocols; neither run
    checks the placement again."""
    checks = _counted_checks(monkeypatch)
    plan = ExperimentPlan(seeds=(1, 2), node_counts=(10, 20), base=ScenarioConfig(image_count=2))
    assert len(run_experiment(plan, tmp_path)) == 8
    assert checks == []
