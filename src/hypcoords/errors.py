"""Exception types shared across the package, and the one reading of
configuration files and conversion of their text to values, which report a
missing file or bad text as a ConfigError."""

from typing import Callable, Dict, TypeVar

T = TypeVar("T")


class HypcoordsError(Exception):
    """Base class for all package errors."""


class OutsideDomain(HypcoordsError):
    """Point rejected by the map's domain check."""


class OnSingularSet(HypcoordsError):
    """Point lies on (or too close to) the map's singular set."""


class SingularEncounter(HypcoordsError):
    """Orbit hit the singular-set guard at some step."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"orbit point {index} violates the singular guard")


class OrbitEscaped(HypcoordsError):
    """Orbit left the map's domain at some step."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"orbit point {index} left the domain")


class IndexOutOfRange(HypcoordsError):
    """An order, pair or block index outside the cocycle's 0..k."""


class ZeroMatrix(HypcoordsError):
    """Operation undefined on the zero matrix."""


class NoHyperbolicCoordinates(HypcoordsError):
    """Co-eccentricity too close to 1: contracted/expanded directions undefined."""


class ConformalDegenerate(HypcoordsError):
    """Every direction is critical: the angle equation degenerates."""


class ZeroDeterminant(HypcoordsError):
    """A determinant needed in a denominator is zero."""


class BoundOverflow(HypcoordsError):
    """A term of a bound exceeds the double range, so its row cannot be evaluated."""


class InvalidInput(HypcoordsError, ValueError):
    """An argument a check cannot take: a non-finite entry or an unsupported dimension."""


class CertificateRequired(HypcoordsError):
    """The requested bound only holds under a passing certificate."""


class Infeasible(HypcoordsError):
    """No constants ledger of the requested flavor fits the orbit data."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class DomainViolation(HypcoordsError):
    """A ledger denominator is non-positive; structural inequalities were bypassed."""


class InvalidLedger(HypcoordsError):
    """Structural inequalities of the constants ledger fail at construction."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NoFrameAtStart(HypcoordsError):
    """Curve integration cannot start: no frame at the seed point."""


class ConfigError(HypcoordsError):
    """Bad key or value in a run configuration."""


def read_config(path: str) -> Dict[str, str]:
    """The ``key = value`` lines of a configuration file as stripped text,
    blank and ``#`` lines skipped.  An unreadable file, or another line, is
    a ConfigError naming the file (and the line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        entries[key.strip()] = value.strip()
    return entries


def parse_value(key: str, text: str, cast: Callable[[str], T]) -> T:
    """Convert configuration text with ``cast``; a malformed value is a ConfigError naming key."""
    try:
        return cast(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
