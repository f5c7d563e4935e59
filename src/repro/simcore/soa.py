"""Structure-of-arrays batch driver: the vectorized DVFS control plane.

:class:`BatchSimulator` runs many :class:`BatchMCDProcessor` lanes at once.
Each lane's microarchitectural event loop stays scalar (the generator
``_lane_events`` in :mod:`repro.simcore.batchcore` -- seeds make the event
streams diverge immediately, so there is nothing to share below the sample
tick), but the lanes march in lock-step over the 4 ns sampling grid, and
*everything the reference does per sample* is executed here as NumPy
operations with the lane axis vectorized:

* **latch** -- queue occupancies and sleep flags arrive as each lane's
  reused yield buffer; one ``np.array`` call per round turns the batch into
  an ``[L, 3]`` block (domains in edge-tag order INT, FP, LS);
* **observe** -- the signal monitor (level/slope), both per-signal
  time-delay FSMs, trigger reconciliation, and regulator retarget run as
  masked array expressions whose float operand order is copied term by term
  from ``TimeDelayFsm.step`` / ``ActionScheduler.reconcile`` /
  ``VoltageRegulator.apply``, so every lane value is bit-identical to what
  the reference objects would have produced;
* **slew** -- the regulator ramp (`advance`), V(f) recompute, and clock
  retune happen on ``[L, 3]`` arrays; only the sparse set of (lane, domain)
  cells whose physical frequency actually changed get a scalar update tuple
  sent back into the lane generator;
* **wake selection** -- each lane's heapq remains its own wake wheel; the
  batch-level "next wake" is implicit in the lock-step round: every live
  lane runs exactly to its next sample event, so the driver's round loop is
  the argmin over the (identical) per-lane sample times.

Sleeping/exited lanes: a lane whose trace retires mid-batch raises
``StopIteration`` out of its generator; the driver snapshots its array
columns at that instant (the arrays keep being updated full-width -- the
snapshot is what makes post-exit churn harmless) and later folds the
snapshot back through ``BatchMCDProcessor._absorb_lane_state``, which
produces the exact ``SimulationResult`` the reference would return.

Float discipline: every scalar sent into a lane is cast to a Python
``float``/``int`` so lane-local arithmetic never silently promotes to
NumPy scalars (results are JSON-serialized by the cache layer); energy
coefficients come from the lane's interned :class:`SimTables`, keyed by the
exact voltage the vector slew produced.

Lanes that are not :func:`vector_eligible` (observability attached,
history recording, or non-adaptive controllers whose per-object state the
arrays do not model) simply run the inherited fast megaloop to completion
-- lanes never interact, so no interleaving is needed for them.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.mcd.domains import CONTROLLED_DOMAINS, DomainId
from repro.mcd.processor import _EDGE_TAG, FrequencyStepEvent, SimulationResult
from repro.simcore.batchcore import BatchMCDProcessor, vector_eligible
from repro.simcore.fast import FastMCDProcessor

_F64 = np.float64
#: controlled domains in edge-tag order; column j of every [L, 3] array
_DOM_BY_COL: Tuple[DomainId, ...] = tuple(CONTROLLED_DOMAINS)
#: FsmState -> int8 encoding used by the state arrays
_STATE_CODE = {"wait": 0, "count_up": 1, "count_down": -1}


class BatchSimulator:
    """Run a batch of ``BatchMCDProcessor`` lanes; return per-lane results.

    Lanes are partitioned into vector-eligible groups (keyed by sampling
    period, since rounds are lock-stepped on the sample grid) and scalar
    stragglers; every lane's result is bit-identical to ``ref``.
    """

    def __init__(self, procs: List[BatchMCDProcessor]) -> None:
        if not procs:
            raise ValueError("BatchSimulator needs at least one lane")
        self.procs = list(procs)

    def run(self) -> List[SimulationResult]:
        results: List[Optional[SimulationResult]] = [None] * len(self.procs)
        groups: Dict[float, List[int]] = {}
        for i, proc in enumerate(self.procs):
            if vector_eligible(proc):
                groups.setdefault(proc.config.sample_period_ns, []).append(i)
            else:
                # Scalar straggler: lanes never interact, so the inherited
                # fast megaloop (bit-identical by contract) just runs it.
                results[i] = FastMCDProcessor.run(proc)
        for indices in groups.values():
            lanes = [self.procs[i] for i in indices]
            for i, result in zip(indices, _run_vector_group(lanes)):
                results[i] = result
        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# the vectorized group
# ----------------------------------------------------------------------


def _run_vector_group(lanes: List[BatchMCDProcessor]) -> List[SimulationResult]:
    state = _GroupState(lanes)
    gens: List[Optional[Generator]] = []
    # prime: advance every lane to its first sample yield (t = dt)
    for i, lane in enumerate(lanes):
        gen = lane._lane_events()
        try:
            state.bufs[i] = next(gen)
            gens.append(gen)
        except StopIteration as stop:
            # trace retired before the first sample tick (tiny traces);
            # zero samples processed, arrays still at their initial state
            gens.append(None)
            state.exit_lane(i, stop.value)
    now = 0.0
    dt = state.dt
    while state.live:
        now = now + dt  # same accumulation sequence as the lanes' heaps
        updates = state.control_round(now)
        for i in list(state.live):
            gen = gens[i]
            assert gen is not None
            # Whether the lane reaches the next sample or retires first,
            # it fully processed *this* round's sample event.
            state.samples[i] += 1
            try:
                gen.send(updates.get(i))
            except StopIteration as stop:
                gens[i] = None
                state.exit_lane(i, stop.value)
    return [state.extract(i) for i in range(len(lanes))]


class _GroupState:
    """All [L, 3] control-plane arrays for one lock-step group."""

    # prev, has_prev, busy_until, state_level, state_slope, counter_level
    # and counter_slope are per-round state with no scalar write-back: the
    # reference discards these too (monitor/FSM internals die with the
    # run; busy windows and absorbed-elsewhere buffers are folded in via
    # snapshots)

    def __init__(self, lanes: List[BatchMCDProcessor]) -> None:
        self.lanes = lanes
        length = len(lanes)
        self.dt = lanes[0].config.sample_period_ns
        #: each lane's (reused) yield buffer, collected at prime time --
        #: rows stay identity-stable so one np.array call latches the batch.
        #: Exited lanes keep their last (or placeholder) row: their values
        #: are masked out of everything their snapshot doesn't already hold.
        self.bufs: List[Any] = [[0, 0, 0, False, False, False] for _ in lanes]
        self.live: set = set(range(length))
        self.active = np.ones(length, dtype=bool)
        #: sample count per lane (== yields received; prime is sample 1)
        self.samples = [0] * length
        for i, lane in enumerate(lanes):
            self.samples[i] = lane._freq_samples  # fresh lanes: 0
        self.finish_ns = [0.0] * length
        self.snapshots: List[Optional[Tuple]] = [None] * length

        def cfg_col(fn) -> np.ndarray:
            return np.array([[fn(lane)] for lane in lanes], dtype=_F64)

        # -- machine / regulator config, one column per lane ------------
        cfg = [lane.config for lane in lanes]
        self.f_min = cfg_col(lambda p: p.config.f_min_ghz)
        self.f_max = cfg_col(lambda p: p.config.f_max_ghz)
        self.fspan = self.f_max - self.f_min
        self.v_min = cfg_col(lambda p: p.config.v_min)
        self.vspan = cfg_col(lambda p: p.config.v_max) - self.v_min
        self.step_ghz = cfg_col(lambda p: p.config.step_ghz)
        #: regulator.advance's max_move = slew_ghz_per_ns * dt, per lane
        self.max_move = np.array(
            [
                [lane.regulators[d].slew_ghz_per_ns * self.dt for d in _DOM_BY_COL]
                for lane in lanes
            ],
            dtype=_F64,
        )
        self.relock = cfg_col(lambda p: p.config.relock_idle_ns)
        self.stalls = np.array(
            [[c.stalls_during_transition] for c in cfg], dtype=bool
        )

        # -- regulator state --------------------------------------------
        def reg_arr(fn) -> np.ndarray:
            return np.array(
                [[fn(lane.regulators[d]) for d in _DOM_BY_COL] for lane in lanes],
                dtype=_F64,
            )

        self.cur = reg_arr(lambda r: r._current_ghz)
        self.tgt = reg_arr(lambda r: r._target_ghz)
        self.volt = reg_arr(lambda r: r._voltage)
        self.travel = reg_arr(lambda r: r.total_travel_ghz)
        self.trans = np.array(
            [
                [lane.regulators[d].transitions for d in _DOM_BY_COL]
                for lane in lanes
            ],
            dtype=np.int64,
        )
        self.fsum = np.array(
            [[lane._freq_sum[d] for d in _DOM_BY_COL] for lane in lanes],
            dtype=_F64,
        )

        # -- controller state (adaptive lanes; zeros elsewhere) ----------
        self.has_ctrl = np.array(
            [[bool(lane.controllers)] for lane in lanes], dtype=bool
        )

        def ctrl_arr(fn, default: float = 0.0, dtype=_F64) -> np.ndarray:
            rows = []
            for lane in lanes:
                if lane.controllers:
                    rows.append([fn(lane.controllers[d]) for d in _DOM_BY_COL])
                else:
                    rows.append([default] * 3)
            return np.array(rows, dtype=dtype)

        self.q_ref = ctrl_arr(lambda c: c.monitor.q_ref)
        self.prev = ctrl_arr(lambda c: c.monitor._prev or 0)
        self.has_prev = ctrl_arr(
            lambda c: c.monitor._prev is not None, dtype=bool
        )
        self.dw_level = ctrl_arr(lambda c: c.level_fsm.deviation_window)
        self.dw_slope = ctrl_arr(lambda c: c.slope_fsm.deviation_window)
        self.delay_level = ctrl_arr(lambda c: c.level_fsm.delay, default=1.0)
        self.delay_slope = ctrl_arr(lambda c: c.slope_fsm.delay, default=1.0)
        self.scale_level = ctrl_arr(lambda c: c.level_fsm.scale)
        self.scale_slope = ctrl_arr(lambda c: c.slope_fsm.scale)
        self.signal_scaled = ctrl_arr(
            lambda c: c.level_fsm.signal_scaled, dtype=bool
        )
        self.freq_scaled_down = ctrl_arr(
            lambda c: c.level_fsm.freq_scaled_down, dtype=bool
        )
        self.use_slope = ctrl_arr(lambda c: c.config.use_slope_signal, dtype=bool)
        self.combine = ctrl_arr(
            lambda c: c.scheduler.combine_actions, dtype=bool
        )
        self.switching = ctrl_arr(lambda c: c.scheduler.switching_time_ns)
        self.busy_until = ctrl_arr(lambda c: c.scheduler._busy_until_ns)
        self.state_level = ctrl_arr(
            lambda c: _STATE_CODE[c.level_fsm.state.value], dtype=np.int8
        )
        self.state_slope = ctrl_arr(
            lambda c: _STATE_CODE[c.slope_fsm.state.value], dtype=np.int8
        )
        self.counter_level = ctrl_arr(lambda c: c.level_fsm.counter)
        self.counter_slope = ctrl_arr(lambda c: c.slope_fsm.counter)

        # -- background-energy params (edge-tag columns INT, FP, LS) -----
        def par_arr(k: int) -> np.ndarray:
            return np.array(
                [
                    [lane._tables.params_by_tag[tag][k] for tag in (1, 2, 3)]
                    for lane in lanes
                ],
                dtype=_F64,
            )

        self.c_eff = par_arr(0)
        self.gated_frac = par_arr(3)
        self.leak_frac = par_arr(4)
        self.fe_bg = np.array(
            [lane._tables.fe_background_e for lane in lanes], dtype=_F64
        )
        self.bg_acc = np.zeros((length, 4), dtype=_F64)

    # ------------------------------------------------------------------

    def _fsm_step(
        self,
        signal: np.ndarray,
        f_rel2: np.ndarray,
        eligible: np.ndarray,
        which: str,
    ) -> np.ndarray:
        """Vectorized ``TimeDelayFsm.step`` for one signal across the batch.

        Mutates the state/counter arrays for eligible cells only (the
        reference holds the FSMs while the scheduler is busy) and returns
        the per-cell trigger (-1/0/+1, int8).  Term-for-term transcription
        of ``TimeDelayFsm.step``.
        """
        if which == "level":
            state, counter = self.state_level, self.counter_level
            dw, delay, scale = self.dw_level, self.delay_level, self.scale_level
        else:
            state, counter = self.state_slope, self.counter_slope
            dw, delay, scale = self.dw_slope, self.delay_slope, self.scale_slope
        # ref: inside the deviation window -> reset, no trigger
        inside = (signal >= -dw) & (signal <= dw)
        m_in = eligible & inside
        state[m_in] = 0
        counter[m_in] = 0.0
        # ref: direction = 1 if signal > 0 else -1; restart on side-cross
        m_out = eligible & ~inside
        dirn = np.where(signal > 0, 1, -1).astype(np.int8)
        restart = m_out & (state != dirn)
        counter[restart] = 0.0
        state[m_out] = dirn[m_out]
        # ref: increment = scale * (|signal| if signal_scaled else 1.0),
        #      then *= f_rel^2 for a count-down with freq-scaled delay
        inc = np.where(self.signal_scaled, scale * np.abs(signal), scale)
        inc = np.where((dirn < 0) & self.freq_scaled_down, inc * f_rel2, inc)
        counter[m_out] = (counter + inc)[m_out]
        # ref: counter >= delay -> trigger and reset to Wait
        trig = m_out & (counter >= delay)
        counter[trig] = 0.0
        state[trig] = 0
        return np.where(trig, dirn, np.int8(0))

    def control_round(self, now: float) -> Dict[int, List[Tuple]]:
        """One sample tick across the batch: observe, slew, energy.

        Mirrors the reference ``_sample`` phases (occupancies were latched
        by the lanes into their yield buffers); returns the sparse per-lane
        update lists to send back into the lane generators.
        """
        lanes = self.lanes
        latch = np.array(self.bufs, dtype=_F64)  # [L, 6]
        occf = latch[:, :3]
        slp = latch[:, 3:] != 0.0

        # -- observe ----------------------------------------------------
        # ref: SignalMonitor.sample -- prev updates on *every* sample,
        # before the busy check; first sample has zero slope
        level = occf - self.q_ref
        slope = np.where(self.has_prev, occf - self.prev, 0.0)
        self.prev = occf
        self.has_prev |= True
        # ref: scheduler.busy(now) -> hold (monitor already sampled)
        eligible = self.has_ctrl & (now >= self.busy_until)
        # ref: f_rel = min(1.0, freq / f_max), squared for the down-scale
        f_rel = np.minimum(1.0, self.cur / self.f_max)
        f_rel2 = f_rel * f_rel
        lt = self._fsm_step(level, f_rel2, eligible, "level")
        st = self._fsm_step(slope, f_rel2, eligible & self.use_slope, "slope")
        # ref: ActionScheduler.reconcile -- opposite triggers cancel (both
        # FSMs already reset themselves on trigger), identical combine,
        # single trigger passes through; serialize takes the level action
        both = (lt != 0) & (st != 0)
        same = both & (lt == st)
        single = (lt != 0) ^ (st != 0)
        steps = np.where(single, lt + st, np.int8(0))
        steps = np.where(same, np.where(self.combine, lt + st, lt), steps)
        act = (single | same) & self.active[:, None]
        if act.any():
            stepf = steps.astype(_F64)
            self.busy_until = np.where(
                act, now + self.switching * np.abs(stepf), self.busy_until
            )
            # ref: VoltageRegulator.apply -- clamp(target + steps * step)
            new_tgt = np.minimum(
                self.f_max, np.maximum(self.f_min, self.tgt + stepf * self.step_ghz)
            )
            applied = act & (np.abs(new_tgt - self.tgt) > 1e-12)
            self.trans += applied
            self.tgt = np.where(applied, new_tgt, self.tgt)
            # ref: _apply_command -- FrequencyStepEvent recorded per
            # command (applied or not), pre-slew freq, post-apply target
            pause_rows = applied & self.stalls
            for row in np.argwhere(act):
                lane_i = int(row[0])
                col = int(row[1])
                lanes[lane_i].step_events.append(
                    FrequencyStepEvent(
                        time_ns=now,
                        domain=_DOM_BY_COL[col],
                        steps=int(steps[lane_i, col]),
                        target_ghz=float(self.tgt[lane_i, col]),
                        freq_ghz=float(self.cur[lane_i, col]),
                        applied=bool(applied[lane_i, col]),
                    )
                )
        else:
            pause_rows = None

        # -- slew -------------------------------------------------------
        # ref: VoltageRegulator.advance(dt): clamp the move to the slew
        # envelope, snap within 1e-12, then recompute V(f).  Where there is
        # no transition the move is exactly 0.0 and x + 0.0 == x bit-wise.
        cur_before = self.cur
        delta = self.tgt - cur_before
        move = np.maximum(-self.max_move, np.minimum(self.max_move, delta))
        cur = cur_before + move
        self.travel = self.travel + np.abs(move)
        cur = np.where(np.abs(self.tgt - cur) < 1e-12, self.tgt, cur)
        self.cur = cur
        # ref: MachineConfig.voltage_for -- pure in cur, so the full-array
        # recompute reproduces cached values bit-exactly
        alpha = (cur - self.f_min) / self.fspan
        alpha = np.minimum(1.0, np.maximum(0.0, alpha))
        self.volt = self.v_min + alpha * self.vspan
        changed = cur != cur_before
        # ref: _freq_sum[domain] += current (post-advance)
        self.fsum = self.fsum + cur

        # -- background energy (ref: PowerModel.background per domain) ---
        v = self.volt
        leak = self.c_eff * v * v * self.leak_frac
        gated_rate = self.c_eff * v * v * self.gated_frac * cur
        dt = self.dt
        bg = np.where(slp, (leak + gated_rate) * dt, leak * dt)
        self.bg_acc[:, 1:] += bg
        self.bg_acc[:, 0] += self.fe_bg

        # -- sparse updates back into the lanes -------------------------
        updates: Dict[int, List[Tuple]] = {}
        send = changed if pause_rows is None else (changed | pause_rows)
        send = send & self.active[:, None]
        if send.any():
            for row in np.argwhere(send):
                lane_i = int(row[0])
                col = int(row[1])
                freq = float(cur[lane_i, col])
                tag = col + 1
                lane = lanes[lane_i]
                # exact same expressions as the lane's inline refresh,
                # memoized per (tag, voltage) in the interned tables
                coeffs = lane._tables.coeff_for(tag, float(v[lane_i, col]))
                pz = None
                if pause_rows is not None and pause_rows[lane_i, col]:
                    pz = float(now + self.relock[lane_i, 0])
                updates.setdefault(lane_i, []).append(
                    (tag, freq, 1.0 / freq, coeffs[0], coeffs[1], coeffs[2], pz)
                )
        return updates

    # ------------------------------------------------------------------

    def exit_lane(self, i: int, finish_ns: float) -> None:
        """Snapshot lane ``i``'s array columns the instant it retires."""
        self.live.discard(i)
        self.active[i] = False
        self.finish_ns[i] = float(finish_ns)
        self.snapshots[i] = (
            self.cur[i].copy(),
            self.tgt[i].copy(),
            self.volt[i].copy(),
            self.travel[i].copy(),
            self.trans[i].copy(),
            self.fsum[i].copy(),
            self.bg_acc[i].copy(),
        )

    def extract(self, i: int) -> SimulationResult:
        """Fold lane ``i``'s snapshot back into its processor's result."""
        snap = self.snapshots[i]
        assert snap is not None
        cur, tgt, volt, travel, trans, fsum, bg = snap
        reg_state = [
            (
                float(cur[j]),
                float(tgt[j]),
                float(volt[j]),
                float(travel[j]),
                int(trans[j]),
            )
            for j in range(3)
        ]
        return self.lanes[i]._absorb_lane_state(
            self.finish_ns[i],
            self.samples[i],
            (float(fsum[0]), float(fsum[1]), float(fsum[2])),
            (float(bg[0]), float(bg[1]), float(bg[2]), float(bg[3])),
            reg_state,
        )


__all__ = ["BatchSimulator"]
