"""Fault injection: one :class:`FaultPlan` runs a schedule of fault rows
(crash, restart, partition, heal, drop, delay, duplicate)."""

from .injectors import FaultPlan

__all__ = ["FaultPlan"]
