"""Minimal standard-cell library and netlist graph.

Substitutes the paper's Cadence Genus synthesis flow: arbiter logic is
built as an explicit gate netlist, evaluated bit-true for functional
tests, and analysed for its longest combinational path with per-gate
delays representative of a 3nm FinFET standard-cell library at 700 mV
(FO4 ~ 9 ps class).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError


@dataclass(frozen=True)
class GateType:
    """One library cell.

    ``delay_ps`` is the pin-to-pin delay at nominal load; ``area_ge`` is
    the footprint in NAND2 gate-equivalents (the usual synthesis-report
    unit); ``energy_fj`` the switching energy per output transition.
    """

    name: str
    inputs: int
    delay_ps: float
    area_ge: float
    energy_fj: float

    def evaluate(self, values: tuple[bool, ...]) -> bool:
        if len(values) != self.inputs:
            raise SimulationError(
                f"{self.name} expects {self.inputs} inputs, got {len(values)}"
            )
        return _EVAL[self.name](values)


def _eval_inv(v: tuple[bool, ...]) -> bool:
    return not v[0]


def _eval_buf(v: tuple[bool, ...]) -> bool:
    return v[0]


def _eval_nand(v: tuple[bool, ...]) -> bool:
    return not all(v)


def _eval_nor(v: tuple[bool, ...]) -> bool:
    return not any(v)


def _eval_and(v: tuple[bool, ...]) -> bool:
    return all(v)


def _eval_or(v: tuple[bool, ...]) -> bool:
    return any(v)


def _eval_andnot(v: tuple[bool, ...]) -> bool:
    """AND with the second input inverted: ``a & ~b`` (AOI-style cell)."""
    return v[0] and not v[1]


def _eval_mux2(v: tuple[bool, ...]) -> bool:
    """2:1 mux: ``v[0] ? v[1] : v[2]`` (select, in1, in0)."""
    return v[1] if v[0] else v[2]


_EVAL = {
    "INV": _eval_inv,
    "BUF": _eval_buf,
    "NAND2": _eval_nand,
    "NOR2": _eval_nor,
    "AND2": _eval_and,
    "AND3": _eval_and,
    "OR2": _eval_or,
    "ANDNOT2": _eval_andnot,
    "MUX2": _eval_mux2,
}

#: 3nm-class library: delays at nominal fanout, areas in gate equivalents.
STD_CELLS = {
    "INV": GateType("INV", 1, 4.3, 0.67, 0.020),
    "BUF": GateType("BUF", 1, 7.5, 1.00, 0.030),
    "NAND2": GateType("NAND2", 2, 6.0, 1.00, 0.030),
    "NOR2": GateType("NOR2", 2, 6.5, 1.00, 0.030),
    "AND2": GateType("AND2", 2, 8.6, 1.33, 0.040),
    "AND3": GateType("AND3", 3, 10.2, 1.60, 0.050),
    "MUX2": GateType("MUX2", 3, 8.7, 1.67, 0.045),
    "OR2": GateType("OR2", 2, 9.0, 1.33, 0.040),
    "ANDNOT2": GateType("ANDNOT2", 2, 7.8, 1.33, 0.038),
}


@dataclass
class _Node:
    gate: GateType
    inputs: tuple[str, ...]


class Netlist:
    """A DAG of gate instances with named nets.

    Nets are created by :meth:`add_input` (primary inputs, including
    constants) or :meth:`add_gate` (gate outputs).  Supports bit-true
    evaluation and longest-path extraction.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._inputs: list[str] = []
        self._nodes: dict[str, _Node] = {}
        self._order: list[str] = []

    # -- construction -----------------------------------------------------------

    def add_input(self, net: str) -> str:
        if net in self._nodes or net in self._inputs:
            raise ConfigurationError(f"net {net!r} already defined")
        self._inputs.append(net)
        return net

    def add_gate(self, gate_name: str, output: str, *inputs: str) -> str:
        if output in self._nodes or output in self._inputs:
            raise ConfigurationError(f"net {output!r} already defined")
        gate = STD_CELLS.get(gate_name)
        if gate is None:
            raise ConfigurationError(f"unknown gate type {gate_name!r}")
        for net in inputs:
            if net not in self._nodes and net not in self._inputs:
                raise ConfigurationError(
                    f"gate {output!r} references undefined net {net!r}"
                )
        if len(inputs) != gate.inputs:
            raise ConfigurationError(
                f"{gate_name} takes {gate.inputs} inputs, got {len(inputs)}"
            )
        self._nodes[output] = _Node(gate=gate, inputs=tuple(inputs))
        self._order.append(output)
        return output

    # -- queries ------------------------------------------------------------------

    @property
    def gate_count(self) -> int:
        return len(self._nodes)

    def area_ge(self) -> float:
        """Total area in NAND2 gate-equivalents."""
        return sum(node.gate.area_ge for node in self._nodes.values())

    def evaluate(self, input_values: dict[str, bool]) -> dict[str, bool]:
        """Bit-true evaluation; returns the value of every net."""
        missing = [net for net in self._inputs if net not in input_values]
        if missing:
            raise SimulationError(f"missing input values for nets {missing}")
        values: dict[str, bool] = dict(input_values)
        for net in self._order:
            node = self._nodes[net]
            values[net] = node.gate.evaluate(
                tuple(bool(values[i]) for i in node.inputs)
            )
        return values

    def arrival_times_ps(self) -> dict[str, float]:
        """Longest-path arrival time of every net (inputs arrive at 0)."""
        arrivals: dict[str, float] = {net: 0.0 for net in self._inputs}
        for net in self._order:
            node = self._nodes[net]
            start = max(arrivals[i] for i in node.inputs)
            arrivals[net] = start + node.gate.delay_ps
        return arrivals

    def critical_path_ps(self, outputs: list[str] | None = None) -> float:
        """Longest combinational path to ``outputs`` (or any net)."""
        arrivals = self.arrival_times_ps()
        if outputs is None:
            return max(arrivals.values(), default=0.0)
        for net in outputs:
            if net not in arrivals:
                raise SimulationError(f"unknown output net {net!r}")
        return max(arrivals[net] for net in outputs)

    def switching_energy_fj(self, activity: float = 0.2) -> float:
        """Expected switching energy per cycle at the given activity."""
        if not 0.0 <= activity <= 1.0:
            raise ConfigurationError("activity must be in [0, 1]")
        return activity * sum(n.gate.energy_fj for n in self._nodes.values())
