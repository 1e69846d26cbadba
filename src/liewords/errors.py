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
    """Factor sets kept changing up to the window cap, or their exact
    computation would hold more image letters than its budget."""


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


class WindowTooSmall(ToolError):
    """Window shorter than what the requested scan needs."""


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
    """An intermediate automaton exceeded the configured state cap."""


# counting

class InfiniteCount(ToolError):
    """Infinitely many accepted first-coordinate values for a fixed n."""


class NoConvergence(ToolError):
    """Leading-padding sum did not stabilize within the iteration cap."""


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
