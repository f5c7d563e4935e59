"""Driver arrays vs scalar arithmetic: the batch core's vector control plane.

This module is the guard that the batch driver's ``_GroupState`` arrays
agree with the scalar objects they stand in for: random lane states
pushed through the vectorized slew/voltage/energy expressions of
``control_round`` must match what the scalar objects -- real
:class:`VoltageRegulator` and :class:`PowerModel` instances, not
re-implementations -- compute for the same inputs, elementwise and bit
for bit.  The FSM/scheduler phase is
held (busy window pinned at infinity) so the round reduces to exactly
the paired ops the batch core vectorized.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.dvfs.regulator import VoltageRegulator
from repro.harness.experiment import build_controllers
from repro.mcd.domains import MachineConfig, transmeta_machine_config
from repro.power.model import PowerModel
from repro.simcore.batchcore import BatchMCDProcessor
from repro.simcore.soa import _DOM_BY_COL, _GroupState
from repro.workloads.generator import generate_trace
from repro.workloads.suite import get_benchmark

_ROUNDS = 40
_MACHINES = {
    "default": MachineConfig,
    "transmeta": transmeta_machine_config,
}


def _lanes(machine):
    lanes = []
    for bench, seed in (("gzip", 1), ("mcf", 2), ("adpcm-encode", 3)):
        spec = get_benchmark(bench)
        trace = generate_trace(spec, max_instructions=600, seed=seed)
        lanes.append(
            BatchMCDProcessor(
                trace=trace,
                config=machine,
                controllers=build_controllers("adaptive", machine=machine),
                seed=seed,
                record_history=False,
                benchmark=spec.name,
                scheme="adaptive",
            )
        )
    return lanes


def _random_target(rng, cur, max_move, f_min, f_max):
    """Exercise the three slew regimes: settled, snap range, long move."""
    roll = rng.random()
    if roll < 0.25:
        return cur
    if roll < 0.6:
        tgt = cur + rng.uniform(-1.0, 1.0) * max_move
    else:
        tgt = rng.uniform(f_min, f_max)
    return min(f_max, max(f_min, tgt))


@pytest.mark.parametrize("machine_name", sorted(_MACHINES))
def test_vector_ops_bit_identical_to_scalar(machine_name):
    machine = _MACHINES[machine_name]()
    lanes = _lanes(machine)
    state = _GroupState(lanes)
    dt = state.dt
    model = PowerModel()
    rng = random.Random(0xA55 + len(machine_name))
    f_min, f_max = machine.f_min_ghz, machine.f_max_ghz

    for rnd in range(_ROUNDS):
        regs = {}
        for i, lane in enumerate(lanes):
            state.bufs[i] = [
                rng.randrange(0, 24),
                rng.randrange(0, 24),
                rng.randrange(0, 24),
                rng.random() < 0.3,
                rng.random() < 0.3,
                rng.random() < 0.3,
            ]
            for c, dom in enumerate(_DOM_BY_COL):
                cur = rng.uniform(f_min, f_max)
                tgt = _random_target(
                    rng, cur, float(state.max_move[i, c]), f_min, f_max
                )
                reg = VoltageRegulator(dom, machine)
                reg._current_ghz = cur
                reg._target_ghz = tgt
                reg._voltage = machine.voltage_for(cur)
                reg.total_travel_ghz = rng.uniform(0.0, 50.0)
                regs[i, c] = reg
                state.cur[i, c] = cur
                state.tgt[i, c] = tgt
                state.volt[i, c] = reg._voltage
                state.travel[i, c] = reg.total_travel_ghz
                state.fsum[i, c] = rng.uniform(0.0, 1e4)
        # hold every scheduler busy: the FSM phase becomes a no-op and the
        # round is exactly the slew + voltage + background-energy ops
        state.busy_until[:] = np.inf
        fsum_before = state.fsum.copy()
        bg_before = state.bg_acc.copy()

        state.control_round(now=(rnd + 1) * dt)

        for i, lane in enumerate(lanes):
            sleeping = state.bufs[i][3:]
            assert state.bg_acc[i, 0] == (
                bg_before[i, 0] + lane._tables.fe_background_e
            )
            for c, dom in enumerate(_DOM_BY_COL):
                reg = regs[i, c]
                reg.advance(dt)
                assert state.cur[i, c] == reg._current_ghz
                assert state.volt[i, c] == reg._voltage
                assert state.travel[i, c] == reg.total_travel_ghz
                assert state.fsum[i, c] == (
                    fsum_before[i, c] + reg._current_ghz
                )
                expected = model.background(
                    dom, reg._voltage, reg._current_ghz, dt, bool(sleeping[c])
                )
                assert state.bg_acc[i, c + 1] == bg_before[i, c + 1] + expected
