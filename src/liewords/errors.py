"""Exception types shared across the package.

Every error raised by the public API is a subclass of ToolError, so the
command line driver can map any contract violation to exit code 1.
"""


class ToolError(Exception):
    pass


# word engine

class NotProlongable(ToolError):
    """Seed letter's image does not start with the seed, or is too short."""


class UnknownLetter(ToolError):
    """A letter outside the declared alphabet (or output set) was used."""


class WindowExceeded(ToolError):
    """An exact factor set would hold more letters, in images, members or
    prefixes, than the letter budget."""


class InvalidParameter(ToolError, ValueError):
    """A parameter outside its range: a negative factor length, an exponent
    below 2, or construction parameters that name no construction."""


class FormatError(ToolError, ValueError):
    """A rule or automaton file does not parse; carries the 1-based line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# factor statistics

class LengthExceedsPrefix(ToolError):
    """Asked for factors longer than the available prefix."""


class EmptyWord(ToolError):
    """Operation undefined on the empty word."""


class UncertifiedData(ToolError):
    """Strict mode refuses to draw conclusions from factor sets that are
    not labeled certified."""


# automata

class BaseMismatch(ToolError):
    """Operands read digits in different bases."""


class UnknownTrack(ToolError):
    pass


# formula parsing / compilation

class FormulaSyntaxError(ToolError):
    """Parse error; carries line and column of the offending token."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class UnboundVariable(ToolError):
    pass


class UnboundSequence(ToolError):
    pass


class CompileBlowup(ToolError):
    """An automaton operation would build more than `automata.STATE_CAP`
    states, or an alphabet of more than `automata._SYMBOL_CAP` symbols."""


# counting

class InfiniteCount(ToolError):
    """Infinitely many accepted first-coordinate values for a fixed n."""


class StateCapExceeded(ToolError):
    pass


class NonIntegerOutput(ToolError):
    """A vector reachable in the output automaton has a non-integral value."""


# staged construction

class SuffixSearchExceeded(ToolError):
    pass


class ParameterOverflow(ToolError):
    """Honest parameters demand a word far beyond any in-memory budget."""


class PrefixTooShort(ToolError):
    pass


class WindowUnstable(ToolError):
    """Factor counts still changing between prefix halves."""
