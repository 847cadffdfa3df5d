"""Zero-argument resolution for annotated Japanese discourse.

Resolves unexpressed (zero) verb arguments by tracking local attentional
state across utterances: each reading carries a backward-looking center
and a salience-ranked list of forward-looking centers, transitions
between states are classified and costed, and a beam of competing
readings is kept so genuine ambiguities survive.  A brute-force
enumerator provides an independent reference implementation, and a small
annotated corpus with surveyed gold readings is bundled.

The package re-exports the library entry points and the exceptions they
raise; everything else lives in its submodule (`centering.model`,
`centering.rules`, `centering.engine`, `centering.oracle`,
`centering.corpus`, `centering.cli`).
"""

from .model import validate_discourse
from .engine import (
    DiscourseInvalidError,
    EngineConfig,
    UnresolvableError,
    resolve,
)
from .oracle import SizeLimitError, check_equivalence, enumerate_all
from .corpus import (
    DiscourseFormatError,
    check_gold,
    parse_discourse,
    serialize_discourse,
)

__all__ = [
    "resolve",
    "EngineConfig",
    "check_gold",
    "enumerate_all",
    "check_equivalence",
    "validate_discourse",
    "parse_discourse",
    "serialize_discourse",
    "DiscourseInvalidError",
    "UnresolvableError",
    "SizeLimitError",
    "DiscourseFormatError",
]
