"""Built-in reprolint rule packs.

Importing this package registers every shipped rule with the global
registry (see :mod:`repro.lint.registry`).  The rule classes themselves
are re-exported so tooling (and tests) can reference a rule without
knowing which pack module defines it.
"""

from repro.lint.rules import concurrency, determinism, hygiene, numerics, physics
from repro.lint.rules.concurrency import (
    AcquireWithoutRelease,
    ResourceLeakOnPath,
    SignalHandlerUnsafeCall,
    SqliteCrossThread,
    UnguardedSharedWrite,
)
from repro.lint.rules.determinism import (
    NoHandRolledSeedCoercion,
    NoLegacyGlobalRng,
    NoUnseededDefaultRng,
    NoWallClockSeeding,
)
from repro.lint.rules.numerics import DtypeNarrowing
from repro.lint.rules.hygiene import (
    NoBuiltinShadowing,
    NoScalarKernelListComp,
    PublicModuleHasAll,
)
from repro.lint.rules.physics import (
    NoFloatEquality,
    NoMixedDbWattArithmetic,
    ValidatedPhysicalConstructors,
)

__all__ = [
    "AcquireWithoutRelease",
    "DtypeNarrowing",
    "NoBuiltinShadowing",
    "NoFloatEquality",
    "NoHandRolledSeedCoercion",
    "NoLegacyGlobalRng",
    "NoMixedDbWattArithmetic",
    "NoScalarKernelListComp",
    "NoUnseededDefaultRng",
    "NoWallClockSeeding",
    "PublicModuleHasAll",
    "ResourceLeakOnPath",
    "SignalHandlerUnsafeCall",
    "SqliteCrossThread",
    "UnguardedSharedWrite",
    "ValidatedPhysicalConstructors",
    "concurrency",
    "determinism",
    "hygiene",
    "numerics",
    "physics",
]
