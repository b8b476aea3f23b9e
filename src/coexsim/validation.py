"""The finiteness check every config section's validate() applies."""

from __future__ import annotations

import math
from dataclasses import fields


def nonfinite_errors(section, *exempt: str) -> list[str]:
    """One error per float field of the dataclass section that is NaN or
    infinite, except the exempt fields, which validate() checks itself."""
    return [f"{f.name} must be finite" for f in fields(section)
            if f.name not in exempt and isinstance(value := getattr(section, f.name), float)
            and not math.isfinite(value)]
