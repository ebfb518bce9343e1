"""Spans around the simulator's layer entry points, recorded from outside.

Entering a `Tracer` replaces each entry point in `ENTRY_POINTS` with a
wrapper that records one span per call: its name, start and end, and so its
parent, the innermost span still open when it starts.  Spans are kept in
memory as a flat log (about 17 bytes a span) and written out only at the end;
`Tracer.analyse` replays the log to derive self times, counts and the
per-layer metrics.  Nothing in `src/` is edited; names a module imports by
name (`generate_topology` in `engine`, `write_csv` in `experiment`) are
wrapped where they are used.

Only the traced pass installs these wrappers, so end-to-end metrics are
measured with tracing off.
"""
from __future__ import annotations

import importlib
import json
import shutil
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module attribute path of the owner, attribute, span name, layer)
ENTRY_POINTS = (
    ("geams_sim.experiment", "run_experiment", "experiment", "reporting"),
    ("geams_sim.experiment", "write_csv", "metrics.write_csv", "reporting"),
    ("geams_sim.engine.Simulation", "report", "metrics.report", "reporting"),
    ("geams_sim.engine.Simulation", "__init__", "engine.init", "setup"),
    ("geams_sim.engine", "generate_topology", "topology.generate", "setup"),
    ("geams_sim.engine.Simulation", "run", "engine.run", "engine"),
    ("geams_sim.engine.Simulation", "_do_emission", "engine.emission", "engine"),
    ("geams_sim.engine.Simulation", "_try_start", "engine.try_start", "engine"),
    ("geams_sim.engine.Simulation", "_do_tx_complete", "engine.tx_complete", "engine"),
    ("geams_sim.engine.Simulation", "_do_arrival", "engine.arrival", "engine"),
    ("geams_sim.engine.Simulation", "_do_beacons", "beacon.tick", "beacon"),
    ("geams_sim.engine.Simulation", "_broadcast", "beacon.broadcast", "beacon"),
    ("geams_sim.engine.Simulation", "_has_sinkward", "beacon.void_check", "beacon"),
    ("geams_sim.neighbors.NeighborTable", "handle_beacon", "beacon.handle", "beacon"),
    ("geams_sim.energy.Battery", "debit", "energy.debit", "energy"),
    ("geams_sim.engine.EnergyLedger", "add", "energy.ledger_add", "energy"),
    ("geams_sim.engine.Simulation", "_route", "route", "routing"),
    ("geams_sim.neighbors.NeighborTable", "live_records", "neighbors.live_records", "routing"),
    ("geams_sim.geams", "build_best_neighbor_set", "geams.best_set", "routing"),
    ("geams_sim.geams", "refresh_state", "geams.select", "routing"),
    ("geams_sim.geams", "select_next_hop", "geams.select", "routing"),
    ("geams_sim.geams", "walking_back_candidate", "geams.walkback", "routing"),
    ("geams_sim.gpsr", "greedy_next_hop", "gpsr.greedy", "routing"),
    ("geams_sim.gpsr", "planar_neighbors", "gpsr.planar", "routing"),
)

LAYERS = ("setup", "engine", "beacon", "energy", "routing", "reporting")
PROTOCOLS = ("", "geams", "gpsr")  # "" tags spans outside any Simulation.run

# `_has_sinkward` is the beacon plane's void check; the neighbour-set work it
# triggers is charged to the beacon plane, not to routing.
VOID_CHECK = "beacon.void_check"


def _resolve(path: str):
    """`geams_sim.<module>[.<Class>]` to the object it names."""
    package, module, *attrs = path.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


class Tracer:
    """Records spans for one traced pass.  Use as a context manager: entering
    installs the wrappers, leaving restores the original entry points."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        # The log: `name` gets a span's name id when it starts; `time` gets
        # +perf_counter() when a span starts and -perf_counter() when it ends
        # (perf_counter() is positive, so the sign tells the two apart).
        self.name = array("B")
        self.time = array("d")
        self.run_protocols: list[str] = []
        self.counters = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str, after=None):
        """`fn` recording a span per call; `after(args, result)` runs once
        the span has ended, to read sizes off the call."""
        nid = self._id(name, layer)
        clock = time.perf_counter
        log_name, log_time = self.name.append, self.time.append

        def traced(*args, **kwargs):
            log_name(nid)
            log_time(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log_time(-clock())
            if after is not None:
                after(args, result)
            return result

        return traced

    def _observers(self):
        c = self.counters

        def run(args, _):
            self.run_protocols.append(args[0].cfg.protocol)

        def live_records(args, result):
            c["records_scanned"] += len(args[0].records)
            c["records_live"] += len(result)

        def route(args, result):
            sim, _, pk = args
            if sim.cfg.protocol == "gpsr" and result[0] is not None and pk.perimeter is not None:
                c["perimeter_hops"] += 1

        def write_csv(args, _):
            c["rows_written"] += len(args[2])

        return {"engine.run": run, "neighbors.live_records": live_records,
                "route": route, "metrics.write_csv": write_csv}

    def __enter__(self):
        observers = self._observers()
        for owner_path, attr, name, layer in ENTRY_POINTS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, layer, observers.get(name)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- output -------------------------------------------------------------

    def write(self, out_dir: Path) -> None:
        """Write the span log as two flat arrays in native byte order, plus
        a JSON index that says how to read them."""
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        for field in ("name", "time"):
            with open(out_dir / f"{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
        index = {
            "spans": len(self.name), "names": self.names,
            "arrays": {"name": "uint8", "time": "float64"},
            "format": "time holds +start when a span opens and -end when it closes; "
                      "name holds the name id of each span in the order they open; "
                      "a span's parent is the innermost span open when it opens",
            "run_protocols": self.run_protocols,
        }
        (out_dir / "index.json").write_text(json.dumps(index, indent=1) + "\n")

    def analyse(self) -> "SpanTotals":
        """Replay the log and sum each span's duration and self time (its
        duration minus the time its direct children cover) per (protocol,
        inside a void check, name)."""
        k = len(self.names)
        n_keys = len(PROTOCOLS) * 2 * k
        self_s = [0.0] * n_keys
        incl_s = [0.0] * n_keys
        count = [0] * n_keys
        run_id = self._ids.get("engine.run")
        void_id = self._ids.get(VOID_CHECK)
        # runs end in the order they start, which is run_protocols' order
        runs = iter(self.run_protocols)
        names = iter(self.name)
        open_spans = [[0, 0.0, 0.0]]  # [key, start, child time] sentinel
        for t in self.time:
            if t > 0:
                nid = next(names)
                ctx = open_spans[-1][0] // k
                if nid == run_id:
                    ctx = PROTOCOLS.index(next(runs)) * 2
                elif nid == void_id:
                    ctx |= 1
                open_spans.append([ctx * k + nid, t, 0.0])
            else:
                key, start, child = open_spans.pop()
                d = -t - start
                self_s[key] += d - child
                incl_s[key] += d
                count[key] += 1
                open_spans[-1][2] += d
        if len(open_spans) != 1:
            raise ValueError("span log ends with spans still open")
        return SpanTotals(self.names, self.layer_of, self_s, incl_s, count,
                          dict(self.counters))


class SpanTotals:
    """Span totals per (protocol, inside a void check, name)."""

    def __init__(self, names, layer_of, self_s, incl_s, count, counters):
        self.names, self.layer_of = names, layer_of
        self._self, self._incl, self._count = self_s, incl_s, count
        self.counters = counters

    def _sum(self, values, name, protocols=PROTOCOLS, void=(0, 1)):
        if name not in self.names:
            return 0
        nid, k = self.names.index(name), len(self.names)
        return sum(values[(PROTOCOLS.index(p) * 2 + v) * k + nid]
                   for p in protocols for v in void)

    def self_s(self, name, **kw) -> float:
        return self._sum(self._self, name, **kw)

    def incl_s(self, name, **kw) -> float:
        return self._sum(self._incl, name, **kw)

    def count(self, name, **kw) -> int:
        return self._sum(self._count, name, **kw)

    def layer_s(self, layer: str, protocols=PROTOCOLS) -> float:
        """Self time of the layer's spans; anything inside a void check is
        the beacon plane's."""
        total = 0.0
        for name, own in zip(self.names, self.layer_of):
            if own == layer:
                total += self.self_s(name, protocols=protocols, void=(0,))
            if layer == "beacon":
                total += self.self_s(name, protocols=protocols, void=(1,))
        return total


def unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.startswith("share.") or metric.endswith(("_share", "_per_broadcast")):
        return "ratio"
    return "count"


def layer_metrics(t: SpanTotals, delivered_hops: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    wall = t.incl_s("experiment")
    events = {k: t.count(f"engine.{k}") for k in ("emission", "tx_complete", "arrival")}
    broadcasts, rx = t.count("beacon.broadcast"), t.count("beacon.handle")
    scanned = t.counters.get("records_scanned", 0)
    routes = t.count("route")
    m = {
        "engine.events.beacon_tick": t.count("beacon.tick"),
        "engine.events.emission": events["emission"],
        "engine.events.tx_complete": events["tx_complete"],
        "engine.events.arrival": events["arrival"],
        "engine.loop_self_s": t.self_s("engine.run"),
        "engine.forward_s": sum(t.self_s(f"engine.{k}")
                                for k in ("try_start", "tx_complete", "arrival")),
        "beacon.broadcasts": broadcasts,
        "beacon.rx": rx,
        "beacon.rx_per_broadcast": rx / broadcasts if broadcasts else 0.0,
        "beacon.broadcast_s": t.self_s("beacon.broadcast"),
        "beacon.handle_s": t.self_s("beacon.handle"),
        "beacon.void_check_calls": t.count(VOID_CHECK),
        "beacon.void_check_s": t.incl_s(VOID_CHECK),
        "energy.debits": t.count("energy.debit"),
        "energy.debit_s": t.self_s("energy.debit"),
        "energy.ledger_adds": t.count("energy.ledger_add"),
        "energy.ledger_add_s": t.self_s("energy.ledger_add"),
        "neighbors.live_records_calls": t.count("neighbors.live_records"),
        "neighbors.live_records_s": t.self_s("neighbors.live_records"),
        "neighbors.records_scanned": scanned,
        "neighbors.live_share": t.counters.get("records_live", 0) / scanned if scanned else 0.0,
        "route.calls": routes,
        "route.s": t.self_s("route"),
        "route.us_per_call": 1e6 * t.incl_s("route") / routes if routes else 0.0,
        "route.delivered_hop_share": delivered_hops / routes if routes else 0.0,
        "geams.best_set_calls": t.count("geams.best_set", void=(0,)),
        "geams.best_set_s": t.self_s("geams.best_set", void=(0,)),
        "geams.select_s": t.self_s("geams.select"),
        "geams.walkback_calls": t.count("geams.walkback"),
        "gpsr.greedy_calls": t.count("gpsr.greedy"),
        "gpsr.greedy_s": t.self_s("gpsr.greedy"),
        "gpsr.planar_calls": t.count("gpsr.planar"),
        # greedy plus planar self time: planar alone reads exactly 0.0 s on
        # workloads that never leave greedy mode
        "gpsr.s": t.self_s("gpsr.greedy") + t.self_s("gpsr.planar"),
        "gpsr.perimeter_hops": t.counters.get("perimeter_hops", 0),
        "topology.generate_s": t.self_s("topology.generate"),
        "engine.init_self_s": t.self_s("engine.init"),
        "metrics.report_s": t.self_s("metrics.report"),
        "metrics.write_csv_s": t.self_s("metrics.write_csv"),
        "metrics.rows_written": t.counters.get("rows_written", 0),
        "experiment.overhead_s": wall - t.incl_s("engine.run") - t.incl_s("engine.init"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = t.layer_s(layer) / wall if wall else 0.0
    return m
