"""System-level evaluation: energy, power, throughput, area (section 4.4)."""

from repro.system.area import neuron_array_area_um2, system_area_um2
from repro.system.energy import SystemEnergyModel, SystemMetrics
from repro.system.evaluate import SystemEvaluator, Figure8Row
from repro.system.comparison import TABLE3_LITERATURE, table3, Table3Row
from repro.system.lowpower import LowPowerScaler, OperatingPoint

__all__ = [
    "LowPowerScaler",
    "OperatingPoint",
    "neuron_array_area_um2",
    "system_area_um2",
    "SystemEnergyModel",
    "SystemMetrics",
    "SystemEvaluator",
    "Figure8Row",
    "TABLE3_LITERATURE",
    "table3",
    "Table3Row",
]
