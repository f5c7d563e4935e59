"""Built-in statcheck rules; importing this package registers them all."""

from repro.statcheck.rules import (  # noqa: F401  (import-for-registration)
    asyncrules,
    control,
    determinism,
    hygiene,
    lock,
    metrics_labels,
    obs_events,
    race,
    span_discipline,
    units,
)
