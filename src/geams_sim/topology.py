"""Random node deployments on a rectangular sensing field, plus the radio
neighborhoods both routing protocols rely on, found by testing each node
pair once on a grid of cells.

A topology is its node rows: the field and the radio range belong to the
scenario that runs it, and the rows must fit that scenario's geometry, its
field size and min_separation.  They are checked once per geometry: at load
(check_nodes), at placement (generate_topology, whose rejection sampling
makes the same tests), or at their first run under a geometry not yet
checked.  Topologies are immutable rows, plus two memos: the geometries the
rows are known to fit, and each radio range's lists, built on first use.  So
one placement can be shared between runs, checked and listed once.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

from .scenario import ScenarioConfig

SINK_ID = 0
SOURCE_ID = 1

# rejection-sampling cap per sensor before giving up on placement
MAX_PLACEMENT_ATTEMPTS = 10_000


class PlacementError(RuntimeError):
    """Raised when rejection sampling cannot place a node (field too crowded)."""


@dataclass(frozen=True)
class Position:
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Topology:
    """A static deployment: node 0 is the sink, node 1 the source, the rest
    sensors.  Immutable rows, plus the memos of the geometries they are known
    to fit and of their range lists, which take no part in equality, hashing
    or repr.  A topology is checked once per field size and min_separation:
    at load, at placement, or at its first run under a new geometry."""

    nodes: tuple[tuple[int, Position], ...]
    # _geometry(cfg) of every scenario the rows are known to fit
    _fits: set[tuple[float, float, float]] = field(
        default_factory=set, init=False, compare=False, repr=False)
    # radio range -> range_neighbor_lists(self, range); every run on this
    # placement shares them, and none may write to them
    _range_lists: dict[float, dict[int, list[int]]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def sensor_ids(self) -> list[int]:
        return [i for i, _ in self.nodes if i not in (SINK_ID, SOURCE_ID)]

    def __len__(self) -> int:
        return len(self.nodes)

    # kept: with no memo, perfbench setup_s rose 11-17% on every workload
    def check(self, cfg: ScenarioConfig) -> None:
        """Raise check_nodes's ValueError unless the rows fit cfg's geometry;
        a geometry they are known to fit is not checked again."""
        key = _geometry(cfg)
        if key not in self._fits:
            check_nodes(self.nodes, cfg)
            self._fits.add(key)

    def range_lists(self, r: float) -> dict[int, list[int]]:
        """range_neighbor_lists(self, r), built on the first call for `r`
        and shared by every later one: do not mutate it."""
        lists = self._range_lists.get(r)
        if lists is None:
            lists = self._range_lists[r] = range_neighbor_lists(self, r)
        return lists


def _geometry(cfg: ScenarioConfig) -> tuple[float, float, float]:
    """What check_nodes reads of cfg: (field width, field height,
    min_separation)."""
    return cfg.field_width, cfg.field_height, cfg.min_separation


def _fitting(nodes, cfg: ScenarioConfig) -> Topology:
    """The topology of `nodes`, known to fit cfg's geometry."""
    t = Topology(nodes=tuple(nodes))
    t._fits.add(_geometry(cfg))
    return t


class CellGrid:
    """Points bucketed into square cells of side `radius` (the cell-list
    method): every point within `radius` of a query point lies in the 3x3
    block of cells around it, so a range query scans that block, not every
    point.  Points are kept as (id, x, y) tuples.  Cells are a hair wider
    than `radius` so that float rounding in a cell index cannot put two
    points within `radius` two cells apart; this holds while coordinates stay
    under about a million cell widths.  Points with a non-finite coordinate
    are kept in no cell: they are within `radius` of nothing."""

    def __init__(self, radius: float):
        self._size = radius * (1.0 + 1e-9)
        self._cells: dict[tuple[int, int], list[tuple[int, float, float]]] = {}

    def _cell(self, x: float, y: float) -> tuple[int, int] | None:
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
        return math.floor(x / self._size), math.floor(y / self._size)

    def add(self, node_id: int, x: float, y: float) -> None:
        cell = self._cell(x, y)
        if cell is not None:
            self._cells.setdefault(cell, []).append((node_id, x, y))

    def near(self, x: float, y: float) -> list[tuple[int, float, float]]:
        """(id, x, y) of every point in the 3x3 block around (x, y), a
        superset of the points within `radius` of it."""
        cell = self._cell(x, y)
        if cell is None:
            return []
        cx, cy = cell
        cells, found = self._cells, []
        for i in (cx - 1, cx, cx + 1):
            for j in (cy - 1, cy, cy + 1):
                found += cells.get((i, j), ())
        return found


def generate_topology(cfg: ScenarioConfig) -> Topology:
    """Place the sink and source at cfg's designated positions and
    cfg.n_sensors sensors uniformly at random on cfg's field, seeded by
    cfg.seed, keeping every pairwise distance >= cfg.min_separation.  These
    are check_nodes's tests, so the topology is known to fit cfg's geometry.

    Raises PlacementError if any sensor cannot be placed within
    MAX_PLACEMENT_ATTEMPTS rejection-sampling attempts.
    """
    rng = random.Random(cfg.seed)
    placed: list[tuple[int, Position]] = [
        (SINK_ID, Position(cfg.sink_x, cfg.sink_y)),
        (SOURCE_ID, Position(cfg.source_x, cfg.source_y)),
    ]
    sep = cfg.min_separation
    grid = CellGrid(sep)
    for node_id, p in placed:
        grid.add(node_id, p.x, p.y)
    width, height = cfg.field_width, cfg.field_height
    for i in range(cfg.n_sensors):
        node_id = 2 + i
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
            if all(math.hypot(x - qx, y - qy) >= sep for _, qx, qy in grid.near(x, y)):
                placed.append((node_id, Position(x, y)))
                grid.add(node_id, x, y)
                break
        else:
            raise PlacementError(
                f"could not place sensor {node_id} after {MAX_PLACEMENT_ATTEMPTS} attempts"
            )
    return _fitting(placed, cfg)


def range_neighbor_lists(t: Topology, r: float) -> dict[int, list[int]]:
    """Every node's neighbors within radio range `r` (boundary inclusive),
    ascending by id, keyed in `t.nodes` row order.  Each pair is tested once,
    from its later id, on a grid of radio-range cells; `hypot` gives the same
    float from either end of a pair."""
    grid, hypot = CellGrid(r), math.hypot
    lists: dict[int, list[int]] = {}
    for u, p in sorted(t.nodes):  # ids are unique: positions never compared
        x, y = p.x, p.y
        # the earlier ids in range; u joins each of their lists, which so
        # stay ascending, then the grid
        lists[u] = earlier = sorted(v for v, vx, vy in grid.near(x, y)
                                    if hypot(x - vx, y - vy) <= r)
        for v in earlier:
            lists[v].append(u)
        grid.add(u, x, y)
    return {u: lists[u] for u, _ in t.nodes}


def save_topology_csv(t: Topology, path) -> None:
    """Write `node_id,x,y` rows (header included); node 0 = sink, 1 = source."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "x", "y"])
        for node_id, p in t.nodes:
            writer.writerow([node_id, repr(p.x), repr(p.y)])


def check_nodes(nodes, cfg: ScenarioConfig, origin: str = "topology",
                line=None) -> Topology:
    """The topology of a deployment's (id, position) `nodes`, checked for cfg
    in the order given: no id twice, finite coordinates on cfg's field, and
    at least `cfg.min_separation` from every earlier node; then the sink and
    the source must be among them.  Such a deployment would otherwise fail
    mid-run, or run on a placement no scenario can produce.  The topology is
    known to fit cfg's geometry.

    Raises ValueError prefixed with `origin` and, when `line` is given, with
    `line()` called as the failing node is checked (a file reader's current
    line).
    """
    sep = cfg.min_separation
    width, height = cfg.field_width, cfg.field_height
    grid = CellGrid(sep)
    positions: dict[int, Position] = {}
    for node_id, p in nodes:
        where = origin if line is None else f"{origin}: line {line()}"
        if node_id in positions:
            raise ValueError(f"{where}: duplicate node id {node_id}")
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ValueError(f"{where}: node {node_id} has a non-finite coordinate")
        if not (0 <= p.x <= width and 0 <= p.y <= height):
            raise ValueError(f"{where}: node {node_id} at ({p.x}, {p.y}) lies outside "
                             f"the {width} x {height} field")
        for other, qx, qy in grid.near(p.x, p.y):
            d = math.hypot(p.x - qx, p.y - qy)
            if d < sep:
                raise ValueError(f"{where}: node {node_id} is {d} m from "
                                 f"node {other}, closer than min_separation {sep}")
        grid.add(node_id, p.x, p.y)
        positions[node_id] = p
    if SINK_ID not in positions or SOURCE_ID not in positions:
        raise ValueError(f"{origin}: topology must contain nodes {SINK_ID} (sink) "
                         f"and {SOURCE_ID} (source)")
    return _fitting(positions.items(), cfg)


def load_topology_csv(path, cfg: ScenarioConfig) -> Topology:
    """Read a topology written by save_topology_csv, checked against cfg's
    field size and min_separation.  Ids 0 and 1 must be present and are
    taken as sink and source wherever they lie; cfg's designated positions
    place generated topologies only.

    Raises ValueError naming the line for a malformed row and for every
    check_nodes failure.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node_id", "x", "y"]:
            raise ValueError(f"{path}: expected header 'node_id,x,y', got {header!r}")

        def rows():
            for row in reader:
                try:
                    raw_id, x, y = row
                    node = int(raw_id), Position(float(x), float(y))
                except ValueError:
                    raise ValueError(f"{path}: line {reader.line_num}: expected "
                                     f"'node_id,x,y', got {row!r}") from None
                yield node

        return check_nodes(rows(), cfg, str(path), lambda: reader.line_num)
