"""Output checks that do not trust the compiler under test.

``check_schedule`` re-derives, from the grid geometry alone, what a
legal schedule must satisfy, and replays the schedule against its own
qubit-to-site map:

* every operand site is an active atom on the device;
* the operands of every gate and SWAP are pairwise within the MID;
* no site is used twice in one timestep;
* restriction zones (open disks of radius ``zone_scale * f(span)``
  around each operand, ``f(d) = d/2`` or ``d``) are disjoint per
  timestep;
* each lowered gate executes exactly once, on the sites its qubits
  occupy at that moment, after every earlier gate on the same qubits;
* the final qubit-to-site map equals the program's ``final_layout``.

It returns ``None`` for a legal schedule and a reason string otherwise.
"""

from __future__ import annotations

import math

_EPS = 1e-9
_RADIUS = {"half": 0.5, "full": 1.0, "none": 0.0}


def _dist(a, b, cols):
    ra, ca = divmod(a, cols)
    rb, cb = divmod(b, cols)
    return math.hypot(ra - rb, ca - cb)


def _span(sites, cols):
    return max((_dist(a, b, cols) for i, a in enumerate(sites)
                for b in sites[i + 1:]), default=0.0)


def _zones_overlap(za, zb, cols):
    (sites_a, ra), (sites_b, rb) = za, zb
    for a in sites_a:
        for b in sites_b:
            d = _dist(a, b, cols)
            if d < ra + rb - _EPS:
                return True
            if ra <= _EPS and d < rb - _EPS:
                return True
            if rb <= _EPS and d < ra - _EPS:
                return True
    return False


def check_schedule(program, active_sites, mid):
    """Validate one compiled program; ``None`` when legal."""
    rows, cols = program.grid_shape
    config = program.config
    scale = _RADIUS.get(config.restriction_radius)
    if scale is None:
        return f"unchecked restriction model {config.restriction_radius!r}"
    scale *= config.zone_scale
    active = set(active_sites)
    source = program.source.gates
    phi = dict(program.initial_layout)
    if len(set(phi.values())) != len(phi):
        return "initial layout is not injective"
    if any(site not in active for site in phi.values()):
        return "initial layout uses an inactive site"
    # next gate index each qubit may execute (program order per qubit)
    per_qubit = {}
    for index, gate in enumerate(source):
        for qubit in gate.qubits:
            per_qubit.setdefault(qubit, []).append(index)
    cursor = {qubit: 0 for qubit in per_qubit}
    executed = 0
    limit = mid + _EPS
    for step, ops in enumerate(program.schedule):
        used = set()
        zones = []
        swaps = []
        for op in ops:
            sites = tuple(op.sites)
            if any(site not in active for site in sites):
                return f"t{step}: op on an inactive site {sites}"
            if used.intersection(sites) or len(set(sites)) != len(sites):
                return f"t{step}: site used twice {sites}"
            used.update(sites)
            span = _span(sites, cols)
            if len(sites) >= 2 and span > limit:
                return f"t{step}: operands {sites} span {span:.3f} > MID {mid}"
            if op.gate is None:
                if len(sites) != 2:
                    return f"t{step}: SWAP on {len(sites)} sites"
                swaps.append(sites)
            else:
                index = op.source_index
                if index is None or not 0 <= index < len(source):
                    return f"t{step}: gate without a source index"
                gate = source[index]
                if (gate.name, tuple(gate.qubits)) != (op.gate.name,
                                                       tuple(op.gate.qubits)):
                    return f"t{step}: op differs from source gate {index}"
                if tuple(phi[q] for q in gate.qubits) != sites:
                    return f"t{step}: gate {index} not on its qubits' sites"
                for qubit in gate.qubits:
                    order = per_qubit[qubit]
                    if cursor[qubit] >= len(order) or \
                            order[cursor[qubit]] != index:
                        return f"t{step}: gate {index} out of program order"
                    cursor[qubit] += 1
                executed += 1
            if scale > 0:
                zone = (sites, scale * span)
                if any(_zones_overlap(zone, other, cols) for other in zones):
                    return f"t{step}: restriction zones overlap at {sites}"
                zones.append(zone)
        where = {site: qubit for qubit, site in phi.items()}
        for a, b in swaps:
            qa, qb = where.pop(a, None), where.pop(b, None)
            if qa is not None:
                phi[qa] = b
            if qb is not None:
                phi[qb] = a
    if executed != len(source):
        return f"{executed} of {len(source)} lowered gates executed"
    if phi != dict(program.final_layout):
        return "final layout does not match the replayed SWAPs"
    return None
