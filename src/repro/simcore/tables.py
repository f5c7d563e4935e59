"""Precomputed frequency/voltage/energy lookup tables for the fast core.

The reference simulator recomputes three families of floats over and over on
its per-sample path:

* ``MachineConfig.voltage_for(f)`` -- the linear V(f) map, re-derived every
  time a regulator moves;
* the per-cycle energy coefficients ``c_eff * V^2 * {base, slope, gated}``
  -- re-derived for all four domains at every 4 ns sample even though
  voltages only change during a slew;
* the per-sample background energy ``(leakage [+ gated rate]) * dt`` -- two
  multiplies and an add per domain per sample.

Controller targets live on the quantized step grid, so the set of distinct
``(voltage, frequency)`` operating points a run visits is small and highly
repetitive -- and across a multi-seed batch the replicas visit the *same*
points.  :class:`SimTables` memoizes all three families keyed by the exact
float inputs.  Because every cached value is produced by the bit-exact same
expression the reference core evaluates, serving it from the table cannot
change a single bit of simulated state.

``tables_for`` interns one :class:`SimTables` per ``(MachineConfig, power
params)`` pair, so ``simcore.run_batch`` and sweep-engine workers amortize
table population across replicas for free.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mcd.domains import DomainId, MachineConfig
from repro.power.model import PowerModel

#: Edge-tag order used throughout the fast core: FE=0, INT=1, FP=2, LS=3
#: (mirrors ``repro.mcd.processor._EDGE_TAG``).
TAG_ORDER: Tuple[DomainId, ...] = (
    DomainId.FRONT_END,
    DomainId.INT,
    DomainId.FP,
    DomainId.LS,
)

#: (c_eff, active_base, active_slope, gated_fraction, leakage_fraction)
ParamRow = Tuple[float, float, float, float, float]
#: (active_base_e, active_slope_e, gated_e) at one voltage
CoeffRow = Tuple[float, float, float]
#: (awake background energy, asleep background energy) over one sample period
BackgroundRow = Tuple[float, float]


class SimTables:
    """Shared memo tables for one ``(machine config, power model)`` pair."""

    __slots__ = (
        "config",
        "dt_ns",
        "params_by_tag",
        "voltage",
        "period",
        "coeff",
        "background",
        "fe_background_e",
    )

    def __init__(self, config: MachineConfig, power: PowerModel) -> None:
        self.config = config
        self.dt_ns = config.sample_period_ns
        #: per-tag power-model constants, in TAG_ORDER
        self.params_by_tag: List[ParamRow] = []
        for domain in TAG_ORDER:
            p = power.params[domain]
            self.params_by_tag.append(
                (
                    p.c_eff,
                    p.active_base,
                    p.active_slope,
                    p.gated_fraction,
                    p.leakage_fraction,
                )
            )
        #: frequency -> supply voltage (exact ``config.voltage_for`` output)
        self.voltage: Dict[float, float] = {}
        #: frequency -> period in ns (exact ``1.0 / f``)
        self.period: Dict[float, float] = {}
        #: per-tag: voltage -> per-cycle energy coefficient triple
        self.coeff: List[Dict[float, CoeffRow]] = [{}, {}, {}, {}]
        #: per-tag: (voltage, freq) -> per-sample background energy pair
        self.background: List[Dict[Tuple[float, float], BackgroundRow]] = [
            {},
            {},
            {},
            {},
        ]
        # The front end is pinned at (v_max, f_max) and never sleeps, so its
        # per-sample background energy is one constant.  Same op order as
        # PowerModel.background: leakage_power(v) * dt.
        ce = self.params_by_tag[0][0]
        leak_frac = self.params_by_tag[0][4]
        v = config.v_max
        self.fe_background_e = ce * v * v * leak_frac * self.dt_ns

    # ------------------------------------------------------------------

    def voltage_for(self, freq_ghz: float) -> float:
        """Memoized ``config.voltage_for``; bit-exact by construction."""
        v = self.voltage.get(freq_ghz)
        if v is None:
            v = self.config.voltage_for(freq_ghz)
            self.voltage[freq_ghz] = v
        return v

    def period_ns(self, freq_ghz: float) -> float:
        """Memoized clock period, exactly ``1.0 / freq_ghz``."""
        p = self.period.get(freq_ghz)
        if p is None:
            p = 1.0 / freq_ghz
            self.period[freq_ghz] = p
        return p

    def coeff_for(self, tag: int, voltage: float) -> CoeffRow:
        """Per-cycle energy coefficients of domain ``tag`` at ``voltage``.

        Identical expressions (and evaluation order) to
        ``MCDProcessor._refresh_energy_coefficients``.
        """
        row = self.coeff[tag].get(voltage)
        if row is None:
            ce, active_base, active_slope, gated_frac, _ = self.params_by_tag[tag]
            v2c = ce * voltage * voltage
            row = (v2c * active_base, v2c * active_slope, v2c * gated_frac)
            self.coeff[tag][voltage] = row
        return row


#: process-wide table interning: (config, params signature) -> SimTables
_TABLES: Dict[Tuple[MachineConfig, Tuple[ParamRow, ...]], SimTables] = {}


def tables_for(config: MachineConfig, power: PowerModel) -> SimTables:
    """Return the interned :class:`SimTables` for this config/power pair.

    ``MachineConfig`` is a frozen (hashable) dataclass, so table sharing
    across batch replicas and within a sweep worker process is automatic.
    """
    sig = tuple(
        (
            p.c_eff,
            p.active_base,
            p.active_slope,
            p.gated_fraction,
            p.leakage_fraction,
        )
        for p in (power.params[d] for d in TAG_ORDER)
    )
    key = (config, sig)
    tables = _TABLES.get(key)
    if tables is None:
        tables = SimTables(config, power)
        _TABLES[key] = tables
    return tables
