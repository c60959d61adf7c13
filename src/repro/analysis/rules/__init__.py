"""Rule modules; importing this package populates the registry."""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    deadlines,
    determinism,
    dtypes,
    locks,
    spec_fields,
    stages,
    wire,
)
