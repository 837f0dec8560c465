"""Virtual Remapping (§VI, Fig 9b).

Pure-hardware coping: on an interfering loss, shift the role table one
step toward the spare-richest edge (~40 ns per table update).  No gates
are ever added, so the success rate never erodes — but the moment any
scheduled interaction stretches beyond the device's true maximum
interaction distance, the only option is a reload.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.result import CompiledProgram, ScheduledOp
from repro.hardware.topology import Topology
from repro.loss.strategies.base import CopingStrategy, LossOutcome
from repro.loss.virtual_map import RemapFailed, VirtualMap


class VirtualRemap(CopingStrategy):
    """Shift roles into spares; reload when an interaction overstretches."""

    name = "virtual remapping"

    def __init__(self) -> None:
        super().__init__()
        self.virtual_map: Optional[VirtualMap] = None

    def _reset_adaptation(self) -> None:
        if self.program is None:
            self.virtual_map = None
            return
        self.virtual_map = VirtualMap(self.topology, self.program.used_sites())

    def current_used_sites(self) -> set:
        if self.virtual_map is None:
            raise RuntimeError("strategy not started; call begin() first")
        return self.virtual_map.occupied_sites()

    def current_measured_sites(self) -> set:
        if self.virtual_map is None:
            raise RuntimeError("strategy not started; call begin() first")
        translate = self.virtual_map.role_to_site
        return {translate[s] for s in self.program.measured_sites()}

    # -- the distance the adapted program must respect ---------------------------------

    def _distance_limit(self) -> float:
        """Interactions may stretch up to the device's true MID.

        For plain virtual remapping the compiled MID *is* the device MID;
        the compile-small variants override this.
        """
        return self.topology.max_interaction_distance

    def on_loss(self, site: int) -> LossOutcome:
        occupied = self.virtual_map.occupied_sites()
        if site not in occupied:
            return LossOutcome.spare_loss()
        try:
            updates = self.virtual_map.shift_for_loss(site)
        except RemapFailed:
            return LossOutcome.needs_reload()
        violated = self._violated_ops()
        if violated:
            return self._handle_violations(violated, updates)
        return LossOutcome(
            coped=True, interfering=True, remap_updates=updates
        )

    # -- violation scanning -----------------------------------------------------------------

    def _violated_ops(self) -> List[ScheduledOp]:
        """Scheduled multiqubit ops whose remapped operands overstretch,
        in program order.

        Each distinct operand-site tuple is checked once; every op using
        a violating tuple is reported.
        """
        limit = self._distance_limit() + 1e-9
        rows = self.topology.grid.distance_rows()
        translate = self.virtual_map.role_to_site
        ops, groups = self.program.multiqubit_site_groups()
        violated_positions: List[int] = []
        for sites, positions in groups:
            if len(sites) == 2:
                a, b = sites
                too_far = rows[translate[a]][translate[b]] > limit
            else:
                physical = [translate[s] for s in sites]
                too_far = any(
                    rows[physical[i]][physical[j]] > limit
                    for i in range(len(physical))
                    for j in range(i + 1, len(physical))
                )
            if too_far:
                violated_positions.extend(positions)
        violated_positions.sort()
        return [ops[i] for i in violated_positions]

    def _handle_violations(
        self, violated: List[ScheduledOp], remap_updates: int
    ) -> LossOutcome:
        """Plain virtual remapping has no fixup path: reload."""
        return LossOutcome.needs_reload()
