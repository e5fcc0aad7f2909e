"""Feeder data model: buses, lines, step-voltage regulators, and tap algebra.

All electrical quantities are per-unit. Networks are directed trees rooted at
a single slack bus; every series element (line, transformer-as-line, SVR)
points away from the root. Phases may be missing anywhere, so every vector
and matrix carries an explicit phase mask.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FeederFormatError, ModelValidationError

PHASES = ("a", "b", "c")

_PHASE_POS = {p: i for i, p in enumerate(PHASES)}

# |x| < SQUARE_LIMIT exactly when the float x ** 2 is finite; the LP squares
# its voltage band, every regulator's ratio window and the slack voltage's
# magnitudes, and doubles and multiplies the line impedances' entries.
SQUARE_LIMIT = 2.0**512

# A matrix is symmetric when each entry is within this of its transpose's.
_SYMMETRY_TOL = 1e-12


def canonical_phases(phases) -> tuple[str, ...]:
    """Normalize a phase iterable or string like 'ca' to canonical a<b<c order."""
    seen = set()
    for p in phases:
        if p not in _PHASE_POS:
            raise ValueError(f"unknown phase {p!r}")
        if p in seen:
            raise ValueError(f"duplicate phase {p!r}")
        seen.add(p)
    return tuple(p for p in PHASES if p in seen)


class PhaseVector:
    """One complex value per present phase; indexing an absent phase is an error."""

    __slots__ = ("phases", "values")

    def __init__(self, phases, values):
        self.phases = canonical_phases(phases)
        vals = {p: complex(v) for p, v in zip(phases, values, strict=True)}
        self.values = np.array([vals[p] for p in self.phases], dtype=complex)
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("non-finite phase value")

    @classmethod
    def _wrap(cls, phases: tuple, values: np.ndarray) -> "PhaseVector":
        """A vector holding ``values`` as is: the caller guarantees canonical
        ``phases`` and a finite complex array of the same length."""
        vec = cls.__new__(cls)
        vec.phases, vec.values = phases, values
        return vec

    @classmethod
    def zeros(cls, phases) -> "PhaseVector":
        phases = canonical_phases(phases)
        return cls(phases, [0.0] * len(phases))

    def __getitem__(self, phase: str) -> complex:
        try:
            return complex(self.values[self.phases.index(phase)])
        except ValueError:
            raise KeyError(f"phase {phase!r} not present (mask {''.join(self.phases)})") from None

    def __contains__(self, phase: str) -> bool:
        return phase in self.phases

    def __len__(self) -> int:
        return len(self.phases)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhaseVector)
            and self.phases == other.phases
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{p}={v:.6g}" for p, v in zip(self.phases, self.values))
        return f"PhaseVector({body})"


class PhaseMatrix:
    """Square complex matrix over a phase mask (impedance, admittance, gain)."""

    __slots__ = ("phases", "array")

    def __init__(self, phases, array):
        declared = tuple(phases)
        arr = np.asarray(array, dtype=complex)
        n = len(declared)
        if arr.shape != (n, n):
            raise ValueError(f"expected {n}x{n} matrix for mask {declared}, got {arr.shape}")
        order = canonical_phases(declared)
        perm = [declared.index(p) for p in order]
        self.phases = order
        self.array = arr[np.ix_(perm, perm)]
        if not np.all(np.isfinite(self.array.view(float))):
            raise ValueError("non-finite matrix entry")

    @classmethod
    def diagonal(cls, phases, values) -> "PhaseMatrix":
        phases = canonical_phases(phases)
        return cls(phases, np.diag(np.asarray(list(values), dtype=complex)))

    def entry(self, p: str, q: str) -> complex:
        try:
            return complex(self.array[self.phases.index(p), self.phases.index(q)])
        except ValueError:
            raise KeyError(f"phase pair ({p},{q}) not in mask {''.join(self.phases)}") from None

    def is_symmetric(self) -> bool:
        return bool((abs(self.array - self.array.T) <= _SYMMETRY_TOL).all())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhaseMatrix)
            and self.phases == other.phases
            and np.array_equal(self.array, other.array)
        )

    def __repr__(self) -> str:
        return f"PhaseMatrix(phases={''.join(self.phases)}, array={self.array!r})"


@dataclass(frozen=True)
class BusSpec:
    """A bus with optional wye constant-power load and constant-admittance shunt.

    Load is consumption-positive complex power in p.u.
    """

    id: str
    phases: tuple[str, ...]
    load: PhaseVector | None = None
    shunt: PhaseMatrix | None = None
    is_slack: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phases", canonical_phases(self.phases))


@dataclass(frozen=True)
class LineSpec:
    """Series element (distribution line or wye-wye transformer) with 3x3-or-smaller Z."""

    from_bus: str
    to_bus: str
    z: PhaseMatrix

    @property
    def phases(self) -> tuple[str, ...]:
        return self.z.phases


@dataclass(frozen=True)
class SvrSpec:
    """Wye-connected step-voltage regulator with independent per-phase taps."""

    from_bus: str
    to_bus: str
    kind: str = "B"
    phases: tuple[str, ...] = PHASES
    tap_min: int = -16
    tap_max: int = 16
    step: float = 0.00625

    def __post_init__(self):
        object.__setattr__(self, "phases", canonical_phases(self.phases))
        if self.kind not in ("A", "B"):
            raise ValueError(f"svr kind must be 'A' or 'B', got {self.kind!r}")

    def ratio_range(self) -> tuple[float, float]:
        """Attainable effective-ratio interval implied by the tap bounds.

        The bounds are not checked: ``validate`` calls this on any spec.
        """
        ends = (self._grid(self.tap_min), self._grid(self.tap_max))
        return ends[::-1] if self.kind == "B" else ends

    def ratio(self, tap: int) -> float:
        """Effective ratio for an integer tap position within the tap bounds."""
        if not self.tap_min <= tap <= self.tap_max:
            raise ValueError(f"tap {tap} outside [{self.tap_min}, {self.tap_max}]")
        return self._grid(tap)

    def tap(self, ratio: float) -> int:
        """Nearest integer tap for a continuous ratio, clamped to the tap bounds.

        Ties round half away from zero.
        """
        if not (math.isfinite(ratio) and ratio > 0.0):
            raise ValueError(f"ratio must be finite and positive, got {ratio}")
        raw = (ratio - 1.0) / self.step * self._sign
        nearest = math.floor(raw + 0.5) if raw >= 0 else math.ceil(raw - 0.5)
        return max(self.tap_min, min(self.tap_max, nearest))

    def _grid(self, tap: int) -> float:
        """The tap grid, bounds unchecked. Type-B: r = 1 - step*tap (raising
        taps boosts the secondary voltage). Type-A: r = 1 + step*tap."""
        return 1.0 + self._sign * self.step * tap

    @property
    def _sign(self) -> float:
        return -1.0 if self.kind == "B" else 1.0


@dataclass(frozen=True)
class FeederModel:
    """Complete feeder description; immutable and shareable once validated."""

    buses: tuple[BusSpec, ...]
    lines: tuple[LineSpec, ...]
    svrs: tuple[SvrSpec, ...]
    slack_voltage: PhaseVector
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "svrs", tuple(self.svrs))

    def bus(self, bus_id: str) -> BusSpec:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"no bus {bus_id!r}")

    @property
    def slack(self) -> BusSpec:
        for b in self.buses:
            if b.is_slack:
                return b
        raise ValueError("model has no slack bus")


# ---------------------------------------------------------------------------
# Taps of a whole feeder
# ---------------------------------------------------------------------------

def taps_to_ratios(model: FeederModel, taps) -> list[dict[str, float]]:
    """Map per-SVR/per-phase integer taps to effective ratios.

    ``taps`` is a list aligned with ``model.svrs``; each item maps phase to tap.
    """
    return [{p: svr.ratio(tap_map[p]) for p in svr.phases}
            for svr, tap_map in zip(model.svrs, taps, strict=True)]


def zero_taps(model: FeederModel) -> list[dict[str, int]]:
    return [{p: 0 for p in svr.phases} for svr in model.svrs]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One broken invariant: which element, which rule, and what happened."""

    element: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.element}: [{self.rule}] {self.message}"


def validate(model: FeederModel) -> list[Violation]:
    """Check all structural invariants; an empty list means the model is valid.

    Violations are data, not exceptions: callers decide whether to raise.
    """
    out: list[Violation] = []
    ids = [b.id for b in model.buses]
    by_id = {}
    for b in model.buses:
        if b.id in by_id:
            out.append(Violation(b.id, "duplicate-bus", "bus id appears more than once"))
        by_id[b.id] = b

    slacks = [b for b in model.buses if b.is_slack]
    if len(slacks) != 1:
        out.append(Violation("<model>", "slack-count", f"expected exactly 1 slack bus, found {len(slacks)}"))
    for b in slacks:
        if b.load is not None or b.shunt is not None:
            out.append(Violation(b.id, "slack-injection", "slack bus must carry no load and no shunt"))
        if set(model.slack_voltage.phases) != set(b.phases):
            out.append(Violation(b.id, "slack-voltage-mask", "slack_voltage mask must equal the slack bus mask"))
    if not (np.abs(model.slack_voltage.values) < SQUARE_LIMIT).all():
        out.append(Violation("slack_voltage", "slack-voltage-square",
                             f"magnitudes must have finite squares, got {model.slack_voltage.values.tolist()}"))

    for b in model.buses:
        if b.load is not None and not set(b.load.phases) <= set(b.phases):
            out.append(Violation(b.id, "load-mask", "load phases not a subset of bus phases"))
        if b.shunt is not None and not set(b.shunt.phases) <= set(b.phases):
            out.append(Violation(b.id, "shunt-mask", "shunt phases not a subset of bus phases"))

    edges = [("line", i, ln.from_bus, ln.to_bus) for i, ln in enumerate(model.lines)]
    edges += [("svr", i, sv.from_bus, sv.to_bus) for i, sv in enumerate(model.svrs)]

    for kind, i, fb, tb in edges:
        name = f"{kind} {fb}->{tb}"
        for end in (fb, tb):
            if end not in by_id:
                out.append(Violation(name, "unknown-bus", f"references unknown bus {end!r}"))
    if any(v.rule == "unknown-bus" for v in out) or len(slacks) != 1:
        return out  # structure too broken for the graph checks below

    for i, ln in enumerate(model.lines):
        name = f"line {ln.from_bus}->{ln.to_bus}"
        expect = set(by_id[ln.from_bus].phases) & set(by_id[ln.to_bus].phases)
        if set(ln.z.phases) != expect:
            out.append(Violation(name, "line-mask",
                                 f"z mask {''.join(ln.z.phases)} != endpoint intersection {''.join(sorted(expect))}"))
        if not ln.z.is_symmetric():
            out.append(Violation(name, "line-symmetric", "impedance matrix is not symmetric"))
        if np.any(np.abs(np.diag(ln.z.array)) == 0.0):
            out.append(Violation(name, "line-diagonal", "impedance diagonal entry is zero"))
        if not (np.abs(ln.z.array) < SQUARE_LIMIT).all():
            out.append(Violation(name, "line-square", "impedance entries must have finite squares"))

    for i, sv in enumerate(model.svrs):
        name = f"svr {sv.from_bus}->{sv.to_bus}"
        if not (sv.tap_min <= 0 <= sv.tap_max):
            out.append(Violation(name, "svr-bounds", f"tap range [{sv.tap_min}, {sv.tap_max}] must contain 0"))
        if not sv.step > 0 or not math.isfinite(sv.step):      # NaN fails the first test
            out.append(Violation(name, "svr-bounds", "step must be positive and finite"))
        elif not all(abs(r) < SQUARE_LIMIT for r in sv.ratio_range()):
            out.append(Violation(name, "svr-bounds", f"ratio range {sv.ratio_range()} must have finite squares"))
        fp, tp = set(by_id[sv.from_bus].phases), set(by_id[sv.to_bus].phases)
        if not set(sv.phases) <= fp & tp:
            out.append(Violation(name, "svr-mask", "SVR phases not present at both endpoints"))

    # Tree shape: each non-slack bus has exactly one incoming edge, slack none,
    # and everything is reachable from the slack.
    incoming: dict[str, list[str]] = {b.id: [] for b in model.buses}
    outgoing: dict[str, list[tuple[str, int, str]]] = {b.id: [] for b in model.buses}
    for kind, i, fb, tb in edges:
        incoming[tb].append(f"{kind} {fb}->{tb}")
        outgoing[fb].append((kind, i, tb))
    root = slacks[0].id
    for b in model.buses:
        n_in = len(incoming[b.id])
        if b.is_slack and n_in != 0:
            out.append(Violation(b.id, "not-a-tree", "slack bus has an incoming edge"))
        if not b.is_slack and n_in != 1:
            out.append(Violation(b.id, "not-a-tree", f"bus has {n_in} incoming edges, expected 1"))
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            out.append(Violation(node, "not-a-tree", "cycle detected"))
            break
        seen.add(node)
        stack.extend(tb for _, _, tb in outgoing[node])
    unreachable = [i for i in ids if i not in seen]
    if unreachable and not any(v.rule == "not-a-tree" for v in out):
        out.append(Violation(",".join(unreachable), "not-a-tree", "bus not reachable from the slack bus"))

    # Phase continuity: a bus can only carry phases its parent edge supplies.
    for kind, i, fb, tb in edges:
        supplied = set(model.lines[i].z.phases) if kind == "line" else set(model.svrs[i].phases)
        missing = set(by_id[tb].phases) - supplied
        if missing:
            out.append(Violation(f"{kind} {fb}->{tb}", "unsupplied-phase",
                                 f"bus {tb} phases {''.join(sorted(missing))} not supplied by its parent edge"))

    # SVR secondary isolation: exactly one outgoing line, no injections.
    for sv in model.svrs:
        sec = by_id[sv.to_bus]
        name = f"svr {sv.from_bus}->{sv.to_bus}"
        outs = outgoing[sec.id]
        if len(outs) != 1 or outs[0][0] != "line":
            out.append(Violation(name, "svr-secondary-isolation",
                                 "SVR secondary must have exactly one outgoing line"))
        if sec.load is not None or sec.shunt is not None:
            out.append(Violation(name, "svr-secondary-isolation",
                                 "SVR secondary must carry no load and no shunt"))
        if sec.is_slack:
            out.append(Violation(name, "svr-secondary-isolation", "SVR secondary cannot be the slack bus"))
        if set(sec.phases) != set(sv.phases):
            out.append(Violation(name, "svr-secondary-isolation",
                                 "SVR secondary bus mask must equal the SVR phase mask"))
    return out


# ---------------------------------------------------------------------------
# Feeder file (JSON) parsing and serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


# JSON value kinds a scalar field may hold. JSON's true and false are never
# numbers here, although Python's bool is an int.
_KINDS = {"a boolean": (bool,), "an integer": (int,), "a number": (int, float),
          "a string": (str,)}


def _scalar(node: dict, key: str, default, kind: str, where: str):
    value = node.get(key, default)
    types = _KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise FeederFormatError(f"{where}: {key!r} must be {kind}, got {value!r}")
    return value


def _objects(doc: dict, key: str) -> list:
    nodes = doc[key]
    if not isinstance(nodes, list) or not all(isinstance(n, dict) for n in nodes):
        raise FeederFormatError(f"{key!r} must be an array of objects")
    return nodes


def _known(node: dict, keys: tuple, where: str) -> None:
    """The one rule for every feeder-file object: no key outside ``keys``."""
    extra = set(node) - set(keys)
    if extra:
        raise FeederFormatError(f"{where}: unknown keys {sorted(extra)}")


def _phases(node: dict, where: str) -> str:
    phases = node["phases"]
    if not isinstance(phases, str):
        raise FeederFormatError(f"{where}: 'phases' must be a string such as \"abc\"")
    try:
        canonical_phases(phases)
    except ValueError as exc:
        raise FeederFormatError(f"{where}: {exc}") from None
    return phases


def _as_complex(node, where: str) -> complex:
    if (not isinstance(node, (list, tuple)) or len(node) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)):
        raise FeederFormatError(f"{where}: complex values must be [re, im] 2-arrays")
    return complex(node[0], node[1])


def _phased(node, key: str, where: str) -> tuple:
    """The phases and the ``key`` array of a ``{phases, <key>}`` object."""
    if not isinstance(node, dict) or "phases" not in node or key not in node:
        raise FeederFormatError(f"{where}: expected {{phases, {key}}}")
    _known(node, ("phases", key), where)
    phases = list(_phases(node, where))
    if not isinstance(node[key], list):
        raise FeederFormatError(f"{where}: {key!r} must be an array")
    return phases, node[key]


def _parse_phase_vector(node, where: str) -> PhaseVector:
    phases, values = _phased(node, "values", where)
    if len(values) != len(phases):
        raise FeederFormatError(f"{where}: values arity {len(values)} != phase count {len(phases)}")
    return PhaseVector(phases, [_as_complex(v, where) for v in values])


def _parse_phase_matrix(node, where: str) -> PhaseMatrix:
    phases, rows = _phased(node, "rows", where)
    if len(rows) != len(phases):
        raise FeederFormatError(f"{where}: row count {len(rows)} != phase count {len(phases)}")
    mat = []
    for r in rows:
        if not isinstance(r, list) or len(r) != len(phases):
            raise FeederFormatError(f"{where}: matrix rows must have {len(phases)} entries")
        mat.append([_as_complex(v, where) for v in r])
    return PhaseMatrix(phases, mat)


def parse_feeder(text: str) -> FeederModel:
    """Parse a UTF-8 JSON feeder document and validate the resulting model."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FeederFormatError(f"JSON syntax error: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise FeederFormatError("top level must be an object")
    if doc.get("format") != FORMAT_VERSION:
        raise FeederFormatError(f"missing or unsupported format version (expected {FORMAT_VERSION})")
    for key in ("buses", "lines", "svrs", "slack_voltage"):
        if key not in doc:
            raise FeederFormatError(f"missing top-level key {key!r}")
    _known(doc, ("format", "buses", "lines", "svrs", "slack_voltage", "config"), "top level")

    buses = []
    for k, node in enumerate(_objects(doc, "buses")):
        if "id" not in node or "phases" not in node:
            raise FeederFormatError("bus entries need 'id' and 'phases'")
        bus_id = _scalar(node, "id", None, "a string", f"buses[{k}]")
        where = f"bus {bus_id}"
        load = shunt = None
        if node.get("load") is not None:
            load = _parse_phase_vector(node["load"], where)
        if node.get("shunt") is not None:
            shunt = _parse_phase_matrix(node["shunt"], where)
        _known(node, ("id", "phases", "load", "shunt", "is_slack", "model"), where)
        if node.get("model", "wye-pq") != "wye-pq":
            raise FeederFormatError(f"{where}: only wye constant-power loads are supported")
        buses.append(BusSpec(
            id=bus_id,
            phases=canonical_phases(_phases(node, where)),
            load=load,
            shunt=shunt,
            is_slack=_scalar(node, "is_slack", False, "a boolean", where),
        ))

    lines = []
    for k, node in enumerate(_objects(doc, "lines")):
        if not {"from", "to", "z"} <= set(node):
            raise FeederFormatError("line entries need 'from', 'to', 'z'")
        from_bus = _scalar(node, "from", None, "a string", f"lines[{k}]")
        to_bus = _scalar(node, "to", None, "a string", f"lines[{k}]")
        where = f"line {from_bus}->{to_bus}"
        _known(node, ("from", "to", "z"), where)
        lines.append(LineSpec(from_bus=from_bus, to_bus=to_bus,
                              z=_parse_phase_matrix(node["z"], where)))

    svrs = []
    for k, node in enumerate(_objects(doc, "svrs")):
        if not {"from", "to", "kind", "phases"} <= set(node):
            raise FeederFormatError("svr entries need 'from', 'to', 'kind', 'phases'")
        from_bus = _scalar(node, "from", None, "a string", f"svrs[{k}]")
        to_bus = _scalar(node, "to", None, "a string", f"svrs[{k}]")
        where = f"svr {from_bus}->{to_bus}"
        _known(node, ("from", "to", "kind", "phases", "tap_min", "tap_max", "step"), where)
        spec = dict(from_bus=from_bus, to_bus=to_bus, kind=node["kind"],
                    phases=canonical_phases(_phases(node, where)),
                    tap_min=_scalar(node, "tap_min", SvrSpec.tap_min, "an integer", where),
                    tap_max=_scalar(node, "tap_max", SvrSpec.tap_max, "an integer", where),
                    step=float(_scalar(node, "step", SvrSpec.step, "a number", where)))
        try:                        # SvrSpec owns the kind rule
            svrs.append(SvrSpec(**spec))
        except ValueError as exc:
            raise FeederFormatError(f"{where}: {exc}") from None

    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise FeederFormatError("'config' must be an object")

    model = FeederModel(
        buses=tuple(buses),
        lines=tuple(lines),
        svrs=tuple(svrs),
        slack_voltage=_parse_phase_vector(doc["slack_voltage"], "slack_voltage"),
        config=config,
    )
    violations = validate(model)
    if violations:
        raise ModelValidationError(violations)
    return model


def _dump_complex(z: complex) -> list[float]:
    return [z.real, z.imag]


def _dump_phase_vector(v: PhaseVector) -> dict:
    return {"phases": "".join(v.phases), "values": [_dump_complex(x) for x in v.values]}


def _dump_phase_matrix(m: PhaseMatrix) -> dict:
    return {"phases": "".join(m.phases),
            "rows": [[_dump_complex(x) for x in row] for row in m.array]}


def serialize(model: FeederModel) -> str:
    """Canonical JSON text for a model; parse(serialize(m)) == m."""
    doc = {
        "format": FORMAT_VERSION,
        "slack_voltage": _dump_phase_vector(model.slack_voltage),
        "buses": [],
        "lines": [],
        "svrs": [],
    }
    for b in model.buses:
        node: dict = {"id": b.id, "phases": "".join(b.phases)}
        if b.is_slack:
            node["is_slack"] = True
        if b.load is not None:
            node["load"] = _dump_phase_vector(b.load)
        if b.shunt is not None:
            node["shunt"] = _dump_phase_matrix(b.shunt)
        doc["buses"].append(node)
    for ln in model.lines:
        doc["lines"].append({"from": ln.from_bus, "to": ln.to_bus, "z": _dump_phase_matrix(ln.z)})
    for sv in model.svrs:
        doc["svrs"].append({
            "from": sv.from_bus, "to": sv.to_bus, "kind": sv.kind,
            "phases": "".join(sv.phases),
            "tap_min": sv.tap_min, "tap_max": sv.tap_max, "step": sv.step,
        })
    if model.config:
        doc["config"] = model.config
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Tree index
# ---------------------------------------------------------------------------

def tree_index(model: FeederModel) -> str:
    """The root of a validated model's tree: its slack bus's id. The
    feeder's ``ybus.Layout`` reads the root from here; the lines and
    regulators are read from the layout's arrays."""
    return model.slack.id
