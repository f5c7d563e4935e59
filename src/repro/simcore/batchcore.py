"""Batch core lane machinery: the per-lane event stepper.

``BatchMCDProcessor`` is the third simulation core (``REPRO_SIMCORE=batch``).
One instance is one *lane* of a structure-of-arrays batch: the
microarchitectural event loop (clock edges, fetch/dispatch, issue, memory
access, wake/sleep) stays a scalar Python megaloop per lane -- rewritten as
the generator method :meth:`BatchMCDProcessor._lane_events`, which *suspends
at every 4 ns sampling event* instead of running the control plane inline.
The driver (:class:`repro.simcore.soa.BatchSimulator`) resumes every lane
once per sample tick and executes the whole control plane -- adaptive FSMs,
regulator slew ramps, background energy, mean-frequency accumulators -- as
NumPy operations over the lane axis, then pushes the resulting frequency /
energy-coefficient updates back into each lane.

The generator is derived from ``FastMCDProcessor.run()`` and keeps its
bit-identity rules (float operand order, ``rng.gauss`` call order, heap push
order).  On top of the fast core's megaloop it flattens the remaining
per-event object traffic:

* **flat completion array** -- the reference's ``Dict[int, float]``
  completion map and per-``RobEntry`` ``done_ns`` collapse into one list
  indexed by instruction index, initialised to ``+inf`` (= "not complete",
  the reference's ``None``/unset states) with a ``-inf`` sentinel slot that
  absent source operands point at, removing two ``None`` checks per
  dependency test;
* **flat ROB** -- in-order dispatch means the ROB always holds a contiguous
  instruction-index range, so the entry deque and by-index dict become two
  integers (head index, tail == next fetch index);
* **per-instruction field arrays** -- ``src1``/``src2``/``pc``/``addr``/
  ``taken``/``target`` and the I-cache line are pre-extracted from the trace
  once, replacing per-event dataclass attribute loads;
* **queue entries as 2-lists** -- ``[visible_ns, index]`` instead of
  ``QueueEntry`` objects (the scan algorithms, including identity-based
  removal, are unchanged).

None of these change any arithmetic: they re-index the same values.  The
golden-equivalence suite runs against this core end to end
(``REPRO_GOLDEN_OTHER=batch``).

A lane that the vectorized control plane cannot serve bit-identically --
observability attached, history recording, or a non-adaptive controller set
(PID / attack-decay / centralized wrappers hold per-object state the driver
does not vectorize) -- falls back to the inherited fast megaloop, which is
bit-identical by the existing contract.  ``vector_eligible`` is that
predicate; :mod:`repro.simcore.soa` and :meth:`BatchMCDProcessor.run` share
it.

Post-run object state: like the fast core, the batch lane writes back every
attribute a ``SimulationResult`` is derived from.  Transient structures the
reference only mutates mid-run (live ``RobEntry``/``QueueEntry`` objects,
the completion dict) are empty at retirement and are not materialized.
Controller-internal state (FSM counters, monitor history, scheduler busy
windows) lives in the driver's arrays and is deliberately not written back
into the controller objects -- no result field reads them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import ceil
from typing import Any, Generator, List, Optional, Tuple

from repro.core.controller import AdaptiveDvfsController
from repro.mcd.domains import CONTROLLED_DOMAINS, DomainId
from repro.mcd.processor import SimulationResult
from repro.simcore.fast import FastMCDProcessor
from repro.simcore.tables import SimTables

_INF = float("inf")

#: lane -> driver payload, reused per yield:
#: [occ_int, occ_fp, occ_ls, sleeping_int, sleeping_fp, sleeping_ls]
SampleOut = List[Any]
#: driver -> lane: per-domain updates, or None when nothing changed this
#: sample: (edge_tag, freq_ghz, period_ns, active_base_e, active_slope_e,
#: gated_e, pause_until_or_None)
LaneUpdate = Optional[List[Tuple[int, float, float, float, float, float, Optional[float]]]]


def vector_eligible(proc: "BatchMCDProcessor") -> bool:
    """Can the SoA driver run this lane's control plane bit-identically?

    The vector plane covers exactly the reference ``_sample`` semantics for
    lanes with no observability, no history recording, and either no
    controllers (full-speed) or one plain :class:`AdaptiveDvfsController`
    per controlled domain.  Everything else (PID integrators, attack/decay
    interval state, centralized coordination wrappers, probe tracing)
    keeps per-object state the arrays do not model, so those lanes run the
    inherited fast megaloop instead.
    """
    if not isinstance(proc, BatchMCDProcessor):
        return False
    if proc.obs is not None or proc.record_history:
        return False
    controllers = proc.controllers
    if not controllers:
        return True
    if set(controllers) != set(CONTROLLED_DOMAINS):
        return False
    return all(
        type(ctrl) is AdaptiveDvfsController for ctrl in controllers.values()
    )


class BatchMCDProcessor(FastMCDProcessor):
    """One lane of the structure-of-arrays batch core.

    Construction and results match ``MCDProcessor`` exactly.  Standalone
    (``create_processor(..., simcore="batch")``) it simulates itself as a
    one-lane batch through the SoA driver when eligible, else through the
    inherited fast megaloop; either way the ``SimulationResult`` is
    bit-identical to the reference.
    """

    def __init__(self, *args: object, tables: Optional[SimTables] = None, **kwargs: object) -> None:
        super().__init__(*args, tables=tables, **kwargs)
        # --- flat per-instruction field arrays (index = inst.index) -------
        n = len(self._lat_arr)
        sentinel = n
        src1 = [sentinel] * n
        src2 = [sentinel] * n
        pcs = [0] * n
        addrs = [0] * n
        takens: List[Any] = [False] * n
        targets: List[Any] = [None] * n
        lines = [0] * n
        line_size = self.config.line_size
        for inst in self.trace:
            i = inst.index
            if inst.src1 is not None:
                src1[i] = inst.src1
            if inst.src2 is not None:
                src2[i] = inst.src2
            pc = inst.pc
            pcs[i] = pc
            lines[i] = pc // line_size
            if inst.addr is not None:
                addrs[i] = inst.addr
            takens[i] = inst.taken
            targets[i] = inst.target
        self._src1_arr = src1
        self._src2_arr = src2
        self._pc_arr = pcs
        self._addr_arr = addrs
        self._taken_arr = takens
        self._target_arr = targets
        self._line_arr = lines
        self._sentinel = sentinel
        #: driver-visible sample payload buffer (reused every yield)
        self._sample_out: SampleOut = [0, 0, 0, False, False, False]

    # ------------------------------------------------------------------

    def run(self, max_time_ns: Optional[float] = None) -> SimulationResult:
        """Simulate this lane; eligible lanes ride a one-lane SoA batch."""
        if max_time_ns is None and vector_eligible(self):
            try:
                from repro.simcore.soa import BatchSimulator
            except ImportError:
                # numpy unavailable: degrade to the fast megaloop, which is
                # bit-identical (repro.simcore warns once at selection time)
                return super().run(max_time_ns)
            return BatchSimulator([self]).run()[0]
        return super().run(max_time_ns)

    # ------------------------------------------------------------------
    # the lane event stepper
    # ------------------------------------------------------------------

    def _lane_events(self) -> Generator[SampleOut, LaneUpdate, float]:  # noqa: C901
        """Event megaloop as a generator: yields at every sample event.

        Yields the sample payload (queue occupancies + sleep flags); the
        driver sends back a :data:`LaneUpdate` after running the control
        plane.  Returns the finish time (last front-end activity) via
        ``StopIteration.value``; the driver then writes its array state
        back and calls ``self._result(finish_ns)``.

        Derived line by line from ``FastMCDProcessor.run()`` -- ``ref:``
        comments tie blocks to the reference implementation.  Bit-identity
        rules apply to every edit (operand order, gauss call order, heap
        push order).
        """
        cfg = self.config
        # ref: generous cutoff, identical expression
        max_time_ns = len(self.trace) * 25.0 / cfg.f_min_ghz + 1e5

        # --- bind everything to locals --------------------------------
        trace_len = len(self.trace)
        wheel = self._wheel
        heap = wheel.heap
        seq = wheel.seq
        sleeping = wheel.sleeping
        timer_target = wheel.timer_target
        wake_gen = wheel.wake_gen
        pause = self._pause_until

        clocks = [
            self.clocks[DomainId.FRONT_END],
            self.clocks[DomainId.INT],
            self.clocks[DomainId.FP],
            self.clocks[DomainId.LS],
        ]
        sigma = cfg.jitter_sigma_ns
        gauss = [c._rng.gauss for c in clocks]
        freqs = [c._freq_ghz for c in clocks]
        periods = [1.0 / f for f in freqs]
        neg04 = [-0.4 * p for p in periods]
        pos04 = [0.4 * p for p in periods]
        next_edge = [c._next_edge_ns for c in clocks]
        fe_period = periods[0]  # the front-end clock never retunes

        rob = self.rob
        rob_cap = rob.capacity
        retire_width = cfg.retire_width
        rob_head = 0  # instruction index of the ROB head; tail == fe_next
        retired_total = 0

        # flat completion: +inf = not complete (ref dict-miss / RobEntry
        # default); slot [sentinel] = -inf so absent operands always pass
        comp = [_INF] * (self._sentinel + 1)
        comp[self._sentinel] = -_INF
        src1_arr = self._src1_arr
        src2_arr = self._src2_arr
        pc_arr = self._pc_arr
        addr_arr = self._addr_arr
        taken_arr = self._taken_arr
        target_arr = self._target_arr
        line_arr = self._line_arr

        # queue entries as [visible_ns, index] 2-lists; the queues end the
        # run empty, so the internal representation never escapes
        ent_int: List[List[float]] = []
        ent_fp: List[List[float]] = []
        ent_ls: List[List[float]] = []
        entries_by_tag = [None, ent_int, ent_fp, ent_ls]
        q_int = self.queues[DomainId.INT]
        q_fp = self.queues[DomainId.FP]
        q_ls = self.queues[DomainId.LS]
        qcap_by_tag = [0, q_int.capacity, q_fp.capacity, q_ls.capacity]
        dom_int = self.domains[DomainId.INT]
        dom_fp = self.domains[DomainId.FP]
        dom_ls = self.domains[DomainId.LS]
        width_by_tag = [0, dom_int.issue_width, dom_fp.issue_width, dom_ls.issue_width]
        alu_by_tag = [None, dom_int._alu._busy_until, dom_fp._alu._busy_until]
        md_by_tag = [None, dom_int._muldiv._busy_until, dom_fp._muldiv._busy_until]
        issued_by_tag = [0, 0, 0, 0]
        ls_ports = dom_ls._ports._busy_until
        sb = dom_ls.store_buffer
        sb_drains = sb._drains
        sb_popleft = sb_drains.popleft
        sb_cap = sb.capacity
        sb_full_stalls = 0
        sb_total_stores = 0
        ls_loads = 0
        ls_stores = 0
        l1w_cycles = dom_ls._l1_write_cycles

        fe = self.frontend
        fe_next = fe.next_index
        fe_dispatched = fe.dispatched
        fe_icache_until = fe._icache_stall_until
        fe_blocked = -1  # blocked-branch instruction index; -1 = clear
        fe_last_line = fe._last_fetch_line
        fe_last_stall = fe.last_stall
        fe_sleeping = self._fe_sleeping
        dispatch_width = cfg.dispatch_width
        mp_pen_ns = cfg.mispredict_penalty_cycles * fe_period
        predictor_resolve = self.predictor.resolve

        hier = self.hierarchy
        l1i_access = hier.l1i.access
        l1d_access = hier.l1d.access
        l2_access = hier.l2.access
        l1_hit_cycles = hier.l1_hit_cycles
        l2_hit_cycles = hier.l2_hit_cycles
        mem_lat_ns = hier.memory_latency_ns
        mem_accesses = 0

        sync = self.sync
        sync_window = sync.sync_window_ns
        sync_transfers = sync._transfers
        sync_deferred = sync._deferred

        lat_arr = self._lat_arr
        busy_arr = self._busy_arr
        tag_arr = self._tag_arr
        md_arr = self._muldiv_arr
        store_arr = self._store_arr
        branch_arr = self._branch_arr

        ebt = self._energy_by_tag
        abe = self._active_base_e
        ase = self._active_slope_e
        ge = self._gated_e
        iw = self._inv_width
        abe0 = abe[0]
        ase0 = ase[0]
        ge0 = ge[0]
        iw0 = iw[0]

        dt = cfg.sample_period_ns
        sbuf = self._sample_out
        issued_buf = self._issued_buf

        # --- initial events (ref push order: FE, INT, FP, LS, sample) -----
        for tag in (0, 1, 2, 3):
            seq += 1
            heappush(heap, (next_edge[tag], tag, seq, 0))
        seq += 1
        heappush(heap, (dt, 4, seq, 0))

        finish_ns = 0.0
        time_ns = self._now

        while fe_next < trace_len or rob_head < fe_next:
            ev = heappop(heap)
            time_ns = ev[0]
            tag = ev[1]
            if time_ns > max_time_ns:
                raise RuntimeError(
                    f"simulation exceeded max_time_ns={max_time_ns:.0f} "
                    f"({retired_total}/{trace_len} retired)"
                )

            if tag < 3:
                if tag:
                    # ==================================================
                    # INT / FP execution-domain edge (ref: _domain_cycle)
                    # ==================================================
                    per = periods[tag]
                    # ref: clock.advance()
                    if sigma:
                        j = gauss[tag](0.0, sigma)
                        lo = neg04[tag]
                        hi = pos04[tag]
                        if j < lo:
                            j = lo
                        elif j > hi:
                            j = hi
                        next_edge[tag] = time_ns + per + j
                    else:
                        next_edge[tag] = time_ns + per
                    if time_ns < pause[tag]:
                        # Transmeta-style relock idle: gated + timer sleep
                        ebt[tag] += ge[tag]
                        sleeping[tag] = True
                        pu = pause[tag]
                        timer_target[tag] = pu
                        wake_gen[tag] = g = wake_gen[tag] + 1
                        seq += 1
                        heappush(heap, (pu, tag + 4, seq, g))
                        continue
                    # ref: ExecutionDomain.cycle
                    entries = entries_by_tag[tag]
                    width = width_by_tag[tag]
                    issued = 0
                    for entry in entries:
                        if issued >= width:
                            break
                        if entry[0] > time_ns:
                            continue
                        idx = entry[1]
                        d = comp[src1_arr[idx]]
                        if d > time_ns:
                            continue
                        d = comp[src2_arr[idx]]
                        if d > time_ns:
                            continue
                        busy = md_by_tag[tag] if md_arr[idx] else alu_by_tag[tag]
                        i = 0
                        nb = len(busy)
                        while i < nb:
                            if busy[i] <= time_ns:
                                busy[i] = time_ns + busy_arr[idx] * per
                                break
                            i += 1
                        else:
                            continue  # no free functional unit
                        done_ns = time_ns + lat_arr[idx] * per
                        # ref: rob.mark_done (+ head-done FE wake)
                        comp[idx] = done_ns
                        if (
                            fe_sleeping
                            and rob_head < fe_next
                            and idx == rob_head
                        ):
                            wake_ns = done_ns if done_ns > time_ns else time_ns
                            fe_sleeping = False
                            ne0 = next_edge[0]
                            if wake_ns > ne0:
                                next_edge[0] = ne0 + ceil(
                                    (wake_ns - ne0) / fe_period
                                ) * fe_period
                            seq += 1
                            heappush(heap, (next_edge[0], 0, seq, 0))
                        issued_buf.append(entry)
                        issued += 1
                    if issued:
                        qcap = qcap_by_tag[tag]
                        for entry in issued_buf:
                            # ref: queue.remove (+ slot-freed FE wake)
                            was_full = len(entries) >= qcap
                            k = 0
                            while entries[k] is not entry:
                                k += 1
                            del entries[k]
                            if was_full and fe_sleeping:
                                fe_sleeping = False
                                ne0 = next_edge[0]
                                if time_ns > ne0:
                                    next_edge[0] = ne0 + ceil(
                                        (time_ns - ne0) / fe_period
                                    ) * fe_period
                                seq += 1
                                heappush(heap, (next_edge[0], 0, seq, 0))
                        del issued_buf[:]
                        issued_by_tag[tag] += issued
                        utilization = issued * iw[tag]
                        if utilization > 1.0:
                            utilization = 1.0
                        ebt[tag] += abe[tag] + ase[tag] * utilization
                    else:
                        ebt[tag] += ge[tag]
                        alu = alu_by_tag[tag]
                        md = md_by_tag[tag]
                        if (
                            not entries
                            and max(alu) <= time_ns
                            and max(md) <= time_ns
                        ):
                            # ref: is_idle -> pure sleep, next dispatch wakes
                            sleeping[tag] = True
                            timer_target[tag] = None
                            wake_gen[tag] += 1
                            continue
                        # ref: stall_hint (next_ready_hint inline)
                        best = _INF
                        for entry in entries:
                            v = entry[0]
                            if v > time_ns:
                                if v < best:
                                    best = v
                                continue
                            ready = v
                            idx = entry[1]
                            d = comp[src1_arr[idx]]
                            if d == _INF:
                                best = _INF
                                break
                            if d > ready:
                                ready = d
                            d = comp[src2_arr[idx]]
                            if d == _INF:
                                best = _INF
                                break
                            if d > ready:
                                ready = d
                            if ready <= time_ns:
                                best = _INF
                                break
                            if ready < best:
                                best = ready
                        else:
                            if best != _INF and best > time_ns + 2.0 * per:
                                sleeping[tag] = True
                                timer_target[tag] = best
                                wake_gen[tag] = g = wake_gen[tag] + 1
                                seq += 1
                                heappush(heap, (best, tag + 4, seq, g))
                                continue
                    seq += 1
                    heappush(heap, (next_edge[tag], tag, seq, 0))
                else:
                    # ==================================================
                    # front-end edge (ref: _front_end_cycle)
                    # ==================================================
                    # ref: clock.advance()
                    if sigma:
                        j = gauss[0](0.0, sigma)
                        lo = neg04[0]
                        hi = pos04[0]
                        if j < lo:
                            j = lo
                        elif j > hi:
                            j = hi
                        next_edge[0] = time_ns + fe_period + j
                    else:
                        next_edge[0] = time_ns + fe_period
                    # ref: rob.retire(now, retire_width)
                    retired_now = 0
                    while retired_now < retire_width and rob_head < fe_next:
                        if comp[rob_head] > time_ns:
                            break
                        rob_head += 1
                        retired_now += 1
                    retired_total += retired_now
                    fe_last_stall = None
                    dispatched = 0
                    if fe_next >= trace_len:
                        fe_last_stall = "trace_done"
                    elif (
                        fe_blocked >= 0
                        and comp[fe_blocked] + mp_pen_ns > time_ns
                    ):
                        # ref: _redirect_clear False -> mispredict redirect
                        fe_last_stall = "branch"
                    elif fe_icache_until > time_ns:
                        # redirect (if any) cleared; I-fetch still stalled
                        fe_blocked = -1
                        fe_last_stall = "icache"
                    else:
                        fe_blocked = -1
                        # ref: _fetch_and_dispatch
                        budget = dispatch_width
                        while budget:
                            budget -= 1
                            if fe_next >= trace_len:
                                break
                            idx = fe_next
                            line = line_arr[idx]
                            if line != fe_last_line:
                                # ref: _icache_miss
                                fe_last_line = line
                                pc = pc_arr[idx]
                                if not l1i_access(pc):
                                    l2_hit = l2_access(pc)
                                    if not l2_hit:
                                        mem_accesses += 1
                                    cycles = l1_hit_cycles + l2_hit_cycles
                                    fixed = 0.0 if l2_hit else mem_lat_ns
                                    extra = cycles - l1_hit_cycles
                                    fe_icache_until = (
                                        time_ns + extra * fe_period + fixed
                                    )
                                    if dispatched == 0:
                                        fe_last_stall = "icache"
                                    break
                            if fe_next - rob_head >= rob_cap:
                                if dispatched == 0:
                                    fe_last_stall = "rob_full"
                                break
                            dtag = tag_arr[idx]
                            q_entries = entries_by_tag[dtag]
                            if len(q_entries) >= qcap_by_tag[dtag]:
                                if dispatched == 0:
                                    fe_last_stall = "queue_full"
                                break
                            # ref: rob.allocate -- the flat ROB tail is
                            # fe_next itself (in-order dispatch)
                            # ref: sync.arrival_time(now + period, dst_clock)
                            t_ready = time_ns + fe_period
                            ne = next_edge[dtag]
                            per = periods[dtag]
                            if t_ready <= ne:
                                edge2 = ne
                            else:
                                edge2 = ne + ceil((t_ready - ne) / per) * per
                            sync_transfers += 1
                            if edge2 - t_ready < sync_window:
                                sync_deferred += 1
                                edge2 += per
                            q_entries.append([edge2, idx])
                            # ref: on_dispatch -> wake a sleeping domain
                            if sleeping[dtag]:
                                wake_ns = edge2
                                tt = timer_target[dtag]
                                if tt is not None and tt < wake_ns:
                                    wake_ns = tt
                                sleeping[dtag] = False
                                timer_target[dtag] = None
                                wake_gen[dtag] += 1
                                if wake_ns > ne:
                                    ne += ceil((wake_ns - ne) / per) * per
                                    next_edge[dtag] = ne
                                seq += 1
                                heappush(heap, (next_edge[dtag], dtag, seq, 0))
                            fe_next += 1
                            dispatched += 1
                            if branch_arr[idx]:
                                if not predictor_resolve(
                                    pc_arr[idx], taken_arr[idx], target_arr[idx]
                                ):
                                    fe_blocked = idx
                                    break
                        fe_dispatched += dispatched
                    # ref: _front_end_cycle energy + reschedule
                    if dispatched:
                        utilization = dispatched * iw0
                        if utilization > 1.0:
                            utilization = 1.0
                        ebt[0] += abe0 + ase0 * utilization
                    else:
                        ebt[0] += ge0
                    if fe_next < trace_len or rob_head < fe_next:
                        if dispatched == 0:
                            # ref: stall_hint
                            candidate = None
                            known = True
                            if fe_blocked >= 0:
                                bdn = comp[fe_blocked]
                                if bdn == _INF:
                                    known = False
                                else:
                                    candidate = bdn + mp_pen_ns
                            elif fe_icache_until > time_ns:
                                candidate = fe_icache_until
                            elif fe_next - rob_head >= rob_cap:
                                hd = comp[rob_head]
                                if hd == _INF:
                                    known = False
                                else:
                                    candidate = hd
                            hint = None
                            if known and candidate is not None and candidate > time_ns:
                                hd = comp[rob_head] if rob_head < fe_next else None
                                if hd is not None and hd != _INF:
                                    if hd <= time_ns:
                                        candidate = None
                                    elif hd < candidate:
                                        candidate = hd
                                hint = candidate
                            if hint is not None:
                                ne0 = next_edge[0]
                                if hint > ne0:
                                    next_edge[0] = ne0 + ceil(
                                        (hint - ne0) / fe_period
                                    ) * fe_period
                                seq += 1
                                heappush(heap, (next_edge[0], 0, seq, 0))
                            elif fe_last_stall == "queue_full" or fe_last_stall == "rob_full":
                                fe_sleeping = True
                            else:
                                seq += 1
                                heappush(heap, (next_edge[0], 0, seq, 0))
                        else:
                            seq += 1
                            heappush(heap, (next_edge[0], 0, seq, 0))
                    finish_ns = time_ns
            elif tag == 3:
                # ======================================================
                # LS-domain edge (ref: _domain_cycle + LoadStoreDomain)
                # ======================================================
                per = periods[3]
                if sigma:
                    j = gauss[3](0.0, sigma)
                    lo = neg04[3]
                    hi = pos04[3]
                    if j < lo:
                        j = lo
                    elif j > hi:
                        j = hi
                    next_edge[3] = time_ns + per + j
                else:
                    next_edge[3] = time_ns + per
                if time_ns < pause[3]:
                    ebt[3] += ge[3]
                    sleeping[3] = True
                    pu = pause[3]
                    timer_target[3] = pu
                    wake_gen[3] = g = wake_gen[3] + 1
                    seq += 1
                    heappush(heap, (pu, 7, seq, g))
                    continue
                entries = ent_ls
                width = width_by_tag[3]
                issued = 0
                for entry in entries:
                    if issued >= width:
                        break
                    if entry[0] > time_ns:
                        continue
                    idx = entry[1]
                    d = comp[src1_arr[idx]]
                    if d > time_ns:
                        continue
                    d = comp[src2_arr[idx]]
                    if d > time_ns:
                        continue
                    storing = store_arr[idx]
                    if storing:
                        # ref: store_buffer.can_accept (evict then test)
                        while sb_drains and sb_drains[0] <= time_ns:
                            sb_popleft()
                        if len(sb_drains) >= sb_cap:
                            sb_full_stalls += 1
                            continue
                    # ref: _ports.acquire(now, period); on failure: break
                    i = 0
                    nb = len(ls_ports)
                    while i < nb:
                        if ls_ports[i] <= time_ns:
                            ls_ports[i] = time_ns + per
                            break
                        i += 1
                    else:
                        break  # both cache ports taken this cycle
                    # ref: _access_latency
                    if not l1d_access(addr_arr[idx]):
                        l2_hit = l2_access(addr_arr[idx])
                        if not l2_hit:
                            mem_accesses += 1
                        cycles = l1_hit_cycles + l2_hit_cycles
                        fixed = 0.0 if l2_hit else mem_lat_ns
                    else:
                        cycles = l1_hit_cycles
                        fixed = 0.0
                    full_path = per + cycles * per + fixed
                    if storing:
                        ls_stores += 1
                        latency_ns = per + l1w_cycles * per
                        # ref: store_buffer.push(now, now + full_path)
                        while sb_drains and sb_drains[0] <= time_ns:
                            sb_popleft()
                        dd = time_ns + full_path
                        if sb_drains and dd < sb_drains[-1]:
                            dd = sb_drains[-1]
                        sb_drains.append(dd)
                        sb_total_stores += 1
                    else:
                        ls_loads += 1
                        latency_ns = full_path
                    done_ns = time_ns + latency_ns
                    comp[idx] = done_ns
                    if fe_sleeping and rob_head < fe_next and idx == rob_head:
                        wake_ns = done_ns if done_ns > time_ns else time_ns
                        fe_sleeping = False
                        ne0 = next_edge[0]
                        if wake_ns > ne0:
                            next_edge[0] = ne0 + ceil(
                                (wake_ns - ne0) / fe_period
                            ) * fe_period
                        seq += 1
                        heappush(heap, (next_edge[0], 0, seq, 0))
                    issued_buf.append(entry)
                    issued += 1
                if issued:
                    qcap = qcap_by_tag[3]
                    for entry in issued_buf:
                        was_full = len(entries) >= qcap
                        k = 0
                        while entries[k] is not entry:
                            k += 1
                        del entries[k]
                        if was_full and fe_sleeping:
                            fe_sleeping = False
                            ne0 = next_edge[0]
                            if time_ns > ne0:
                                next_edge[0] = ne0 + ceil(
                                    (time_ns - ne0) / fe_period
                                ) * fe_period
                            seq += 1
                            heappush(heap, (next_edge[0], 0, seq, 0))
                    del issued_buf[:]
                    issued_by_tag[3] += issued
                    utilization = issued * iw[3]
                    if utilization > 1.0:
                        utilization = 1.0
                    ebt[3] += abe[3] + ase[3] * utilization
                else:
                    ebt[3] += ge[3]
                    if not entries and max(ls_ports) <= time_ns:
                        sleeping[3] = True
                        timer_target[3] = None
                        wake_gen[3] += 1
                        continue
                    best = _INF
                    for entry in entries:
                        v = entry[0]
                        if v > time_ns:
                            if v < best:
                                best = v
                            continue
                        ready = v
                        idx = entry[1]
                        d = comp[src1_arr[idx]]
                        if d == _INF:
                            best = _INF
                            break
                        if d > ready:
                            ready = d
                        d = comp[src2_arr[idx]]
                        if d == _INF:
                            best = _INF
                            break
                        if d > ready:
                            ready = d
                        if ready <= time_ns:
                            best = _INF
                            break
                        if ready < best:
                            best = ready
                    else:
                        if best != _INF and best > time_ns + 2.0 * per:
                            sleeping[3] = True
                            timer_target[3] = best
                            wake_gen[3] = g = wake_gen[3] + 1
                            seq += 1
                            heappush(heap, (best, 7, seq, g))
                            continue
                seq += 1
                heappush(heap, (next_edge[3], 3, seq, 0))
            elif tag == 4:
                # ======================================================
                # sample tick: suspend; the SoA driver runs the control
                # plane (ref: _sample) across all lanes and sends back
                # any frequency / coefficient / pause updates
                # ======================================================
                sbuf[0] = len(ent_int)
                sbuf[1] = len(ent_fp)
                sbuf[2] = len(ent_ls)
                sbuf[3] = sleeping[1]
                sbuf[4] = sleeping[2]
                sbuf[5] = sleeping[3]
                upd = yield sbuf
                if upd is not None:
                    for dtag, f, p, nabe, nase, nge, pz in upd:
                        # ref: clock.set_frequency(current)
                        freqs[dtag] = f
                        periods[dtag] = p
                        neg04[dtag] = -0.4 * p
                        pos04[dtag] = 0.4 * p
                        # ref: _refresh_energy_coefficients (this domain)
                        abe[dtag] = nabe
                        ase[dtag] = nase
                        ge[dtag] = nge
                        if pz is not None and pz > pause[dtag]:
                            # ref: _apply_command transmeta relock pause
                            pause[dtag] = pz
                seq += 1
                heappush(heap, (time_ns + dt, 4, seq, 0))
            else:
                # ======================================================
                # wake timer (ref: run loop's _TIMER_DOMAIN branch)
                # ======================================================
                dtag = tag - 4
                if sleeping[dtag] and ev[3] == wake_gen[dtag]:
                    sleeping[dtag] = False
                    timer_target[dtag] = None
                    wake_gen[dtag] += 1
                    ne = next_edge[dtag]
                    if time_ns > ne:
                        per = periods[dtag]
                        next_edge[dtag] = ne + ceil((time_ns - ne) / per) * per
                    seq += 1
                    heappush(heap, (next_edge[dtag], dtag, seq, 0))

        # --- write locals back into object state ----------------------
        wheel.seq = seq
        self._seq = seq
        self._now = time_ns
        fe.next_index = fe_next
        fe.dispatched = fe_dispatched
        fe.last_stall = fe_last_stall
        fe._blocked_on = None  # flat lanes do not materialize RobEntry
        fe._icache_stall_until = fe_icache_until
        fe._last_fetch_line = fe_last_line
        self._fe_sleeping = fe_sleeping
        sync._transfers = sync_transfers
        sync._deferred = sync_deferred
        for tag in (0, 1, 2, 3):
            clock = clocks[tag]
            clock._freq_ghz = freqs[tag]
            clock._next_edge_ns = next_edge[tag]
        for domain, tag in (
            (DomainId.INT, 1),
            (DomainId.FP, 2),
            (DomainId.LS, 3),
        ):
            self._sleeping[domain] = sleeping[tag]
            self._timer_target[domain] = timer_target[tag]
            self._wake_gen[domain] = wake_gen[tag]
        rob.retired = retired_total
        dom_int.issued += issued_by_tag[1]
        dom_fp.issued += issued_by_tag[2]
        dom_ls.issued += issued_by_tag[3]
        dom_ls.loads += ls_loads
        dom_ls.stores += ls_stores
        sb.full_stalls += sb_full_stalls
        sb.total_stores += sb_total_stores
        hier.memory_accesses += mem_accesses
        return finish_ns

    # ------------------------------------------------------------------

    def _absorb_lane_state(
        self,
        finish_ns: float,
        freq_samples: int,
        freq_sum: Tuple[float, float, float],
        background_e: Tuple[float, float, float, float],
        reg_state: List[Tuple[float, float, float, float, int]],
    ) -> SimulationResult:
        """Fold the driver's per-lane array snapshot back into object state.

        ``reg_state`` carries one ``(current_ghz, target_ghz, voltage,
        total_travel_ghz, transitions)`` tuple per controlled domain in
        CONTROLLED_DOMAINS order; ``background_e`` is the accumulated
        per-sample background energy in edge-tag order (FE, INT, FP, LS);
        ``freq_sum`` parallels CONTROLLED_DOMAINS.  Matches the state the
        reference accumulates through ``_sample``/``advance`` -- every
        value was produced by the bit-identical vector expressions.
        """
        self._freq_samples = freq_samples
        for i, domain in enumerate(CONTROLLED_DOMAINS):
            cur, tgt, volt, travel, trans = reg_state[i]
            regulator = self.regulators[domain]
            regulator._current_ghz = cur
            regulator._target_ghz = tgt
            regulator._voltage = volt
            regulator.total_travel_ghz = travel
            regulator.transitions = trans
            self._freq_sum[domain] = freq_sum[i]
        energy_add = self.energy.add
        energy_add(DomainId.FRONT_END, background_e[0])
        energy_add(DomainId.INT, background_e[1])
        energy_add(DomainId.FP, background_e[2])
        energy_add(DomainId.LS, background_e[3])
        return self._result(finish_ns)


__all__ = ["BatchMCDProcessor", "LaneUpdate", "SampleOut", "vector_eligible"]
