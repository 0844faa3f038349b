"""Exception types shared across the package."""


class CoverSpecError(Exception):
    """Base class for domain errors raised by this package."""


class DomainMismatchError(CoverSpecError):
    """Operands live over different coefficient domains."""


class InseparabilityError(CoverSpecError):
    """Derivative vanished identically in positive characteristic."""

    def __init__(self):
        super().__init__("derivative vanishes identically; inseparable in"
                         " this characteristic")


class NonCoprimeModuliError(CoverSpecError):
    """Two congruence moduli share a factor."""

    def __init__(self, m1, m2):
        self.pair = (m1, m2)
        super().__init__(f"moduli {m1} and {m2} are not coprime")


class FamilyConstraintError(CoverSpecError):
    """A cover-family parameter constraint failed."""

    def __init__(self, name, detail):
        self.constraint = name
        super().__init__(f"constraint '{name}' violated: {detail}")


class NotMorseError(CoverSpecError):
    """Polynomial failed the Morse criterion; carries the witness data."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("polynomial is not Morse")


class InseparableCoverError(CoverSpecError):
    """disc_Y of the defining polynomial vanishes identically."""


class RamifiedPointError(CoverSpecError):
    """Specialization requested at a point of the branch locus."""


class BadPrimeError(CoverSpecError):
    """Prime of bad reduction where a good prime is required."""


class InfeasibleConstraintError(CoverSpecError):
    """No residue mod p realizes the requested factorization pattern."""

    def __init__(self, p, partition):
        self.p = p
        self.partition = partition
        super().__init__(f"no residue mod {p} realizes pattern {partition}")


class BudgetExhaustedError(CoverSpecError):
    """A bounded search ran out of candidates before succeeding."""


class DegreeLimitError(CoverSpecError):
    """Input degree exceeds the supported desk-scale limit."""
