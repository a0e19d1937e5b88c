"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the command line front end:
2 for configuration problems, 3 for data problems, 4 for numeric failures.
"""


class GwindcastError(Exception):
    exit_code = 3


class ConfigError(GwindcastError):
    exit_code = 2


class DataError(GwindcastError):
    exit_code = 3


class NumericError(GwindcastError):
    exit_code = 4


class ShapeMismatch(DataError):
    """Array arguments disagree in shape where they must match."""


class AllMissing(DataError):
    """Gap filling was asked to fill a panel with no observed values at all."""


class NegativeSpeed(DataError):
    """Wind speed below zero; speed/direction records cannot be decomposed."""


class KTooLarge(DataError):
    """More stations requested than the table contains."""


class Misaligned(DataError):
    """Time axes or series do not share a common grid/layout."""


class NoSamples(DataError):
    """Windowing produced zero usable (input window, target) pairs."""


class EmptyInput(DataError):
    """A metric was called on zero elements."""


class AllCellsDegenerate(DataError):
    """No cell had the spread required by a range- or correlation-based metric."""


class ChannelMismatch(DataError):
    """Calibration map and predictions disagree on channel count."""


class EmptyTrain(DataError):
    """Calibration requires a non-empty training split."""


class EmptySplit(DataError):
    """The requested sample split contains no samples."""


class NoTemporalOverlap(DataError):
    """Baseline grid and truth series share no time range."""


class UnnormalizedInput(DataError):
    """Model invoked on a sample set that carries no normalization stats."""


class OddWidth(ConfigError):
    """Sinusoidal position codes need an even feature width."""


class BatchTooSmall(DataError):
    """Batch statistics need at least two rows."""


class GraphNotRecorded(NumericError):
    """backward() called on a tensor that is not the root of a recorded graph."""


class NonFiniteGradient(NumericError):
    """A parameter gradient contains NaN or infinity."""


class NonFiniteLoss(NumericError):
    """Training or validation loss left the finite range."""
