"""DDR2 DRAM model: per-bank timing state machines plus a power model.

The model is *transaction level with bank timing*: the memory controller
issues whole line reads/writes; the device decomposes each into the
implied precharge/activate/CAS sequence, enforces DDR2 timing per bank
and data-bus occupancy per channel, and returns the completion cycle
(``DRAMDevice.try_issue`` returns ``None`` for a refused command).
This captures everything the paper's mechanisms react to — row hits vs.
conflicts, bank occupancy by in-flight prefetches, and data-bus pressure
— without simulating individual DRAM commands cycle by cycle.
"""

from repro.dram.bank import Bank
from repro.dram.device import AddressMap, DRAMDevice
from repro.dram.power import DRAMPowerModel

__all__ = ["AddressMap", "Bank", "DRAMDevice", "DRAMPowerModel"]
