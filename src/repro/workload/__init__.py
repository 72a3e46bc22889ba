"""The BSP application workload model."""

from .bsp import BSPWorkload

__all__ = ["BSPWorkload"]
