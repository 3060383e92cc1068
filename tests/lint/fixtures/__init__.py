"""Shared per-rule fixtures for the reprolint tests.

Each shipped rule gets one :class:`RuleFixture` with three minimal
sources: ``bad`` (the rule fires, and *only* that rule), ``good`` (the
idiomatic fix, fully clean), and ``suppressed`` (the bad snippet with an
inline ``# reprolint: disable=...`` comment).  The static-analysis gate
asserts the table covers every registered rule, so adding a rule without
a fixture fails the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from textwrap import dedent


@dataclass(frozen=True)
class RuleFixture:
    rule_id: str
    #: Virtual path used for linting; chosen to satisfy the rule's scope.
    path: str
    bad: str
    good: str
    suppressed: str
    #: Companion ``(path, source)`` modules linted alongside every variant;
    #: used by cross-module (project) rules.  Must themselves be clean.
    extra_files: tuple[tuple[str, str], ...] = ()


def _src(text: str) -> str:
    return dedent(text).lstrip("\n")


RULE_FIXTURES: tuple[RuleFixture, ...] = (
    RuleFixture(
        rule_id="RL-D001",
        path="src/repro/sim/snippet.py",
        bad=_src(
            """
            import random

            __all__ = ["draw"]


            def draw() -> float:
                return random.random()
            """
        ),
        good=_src(
            """
            import numpy as np

            __all__ = ["draw"]


            def draw(rng: np.random.Generator) -> float:
                return float(rng.random())
            """
        ),
        suppressed=_src(
            """
            import random

            __all__ = ["draw"]


            def draw() -> float:
                return random.random()  # reprolint: disable=RL-D001
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-D002",
        path="src/repro/sim/snippet.py",
        bad=_src(
            """
            import numpy as np

            __all__ = ["fresh"]


            def fresh() -> np.random.Generator:
                return np.random.default_rng()
            """
        ),
        good=_src(
            """
            import numpy as np

            __all__ = ["fresh"]


            def fresh(seed: int) -> np.random.Generator:
                return np.random.default_rng(seed)
            """
        ),
        suppressed=_src(
            """
            import numpy as np

            __all__ = ["fresh"]


            def fresh() -> np.random.Generator:
                return np.random.default_rng()  # reprolint: disable=RL-D002
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-D003",
        path="src/repro/sim/snippet.py",
        bad=_src(
            """
            import time

            __all__ = ["seed_now"]


            def seed_now() -> int:
                return int(time.time())
            """
        ),
        good=_src(
            """
            __all__ = ["seed_now"]


            def seed_now(configured_seed: int) -> int:
                return configured_seed
            """
        ),
        suppressed=_src(
            """
            import time

            __all__ = ["seed_now"]


            def seed_now() -> int:
                return int(time.time())  # reprolint: disable=RL-D003
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-D004",
        path="src/repro/sim/snippet.py",
        bad=_src(
            """
            import numpy as np

            __all__ = ["Planner"]


            class Planner:
                def __init__(self, seed: int | np.random.Generator = 0) -> None:
                    if isinstance(seed, np.random.Generator):
                        self._rng = seed
                    else:
                        self._rng = np.random.default_rng(seed)
            """
        ),
        good=_src(
            """
            import numpy as np

            from repro.utils.rng import coerce_rng

            __all__ = ["Planner"]


            class Planner:
                def __init__(self, seed: int | np.random.Generator = 0) -> None:
                    self._rng = coerce_rng(seed, "planner")
            """
        ),
        suppressed=_src(
            """
            import numpy as np

            __all__ = ["Planner"]


            class Planner:
                def __init__(self, seed: int | np.random.Generator = 0) -> None:
                    if isinstance(seed, np.random.Generator):  # reprolint: disable=RL-D004
                        self._rng = seed
                    else:
                        self._rng = np.random.default_rng(seed)
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-P001",
        path="src/repro/em/snippet.py",
        bad=_src(
            """
            __all__ = ["is_dead"]


            def is_dead(energy_j: float) -> bool:
                return energy_j == 0.0
            """
        ),
        good=_src(
            """
            __all__ = ["is_dead"]


            def is_dead(energy_j: float) -> bool:
                return energy_j <= 1e-12
            """
        ),
        suppressed=_src(
            """
            __all__ = ["is_dead"]


            def is_dead(energy_j: float) -> bool:
                return energy_j == 0.0  # reprolint: disable=RL-P001
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-P002",
        path="src/repro/em/snippet.py",
        bad=_src(
            """
            __all__ = ["total_power"]


            def total_power(tx_power_dbm: float, rx_power_w: float) -> float:
                return tx_power_dbm + rx_power_w
            """
        ),
        good=_src(
            """
            __all__ = ["total_power"]


            def total_power(tx_power_dbm: float, rx_power_w: float) -> float:
                tx_power_w = 10.0 ** ((tx_power_dbm - 30.0) / 10.0)
                return tx_power_w + rx_power_w
            """
        ),
        suppressed=_src(
            """
            __all__ = ["total_power"]


            def total_power(tx_power_dbm: float, rx_power_w: float) -> float:
                return tx_power_dbm + rx_power_w  # reprolint: disable=RL-P002
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-P003",
        path="src/repro/em/snippet.py",
        bad=_src(
            """
            __all__ = ["Antenna"]


            class Antenna:
                def __init__(self, gain: float) -> None:
                    self.gain = gain
            """
        ),
        good=_src(
            """
            from repro.utils.validation import check_positive

            __all__ = ["Antenna"]


            class Antenna:
                def __init__(self, gain: float) -> None:
                    self.gain = check_positive("gain", gain)
            """
        ),
        suppressed=_src(
            """
            __all__ = ["Antenna"]


            class Antenna:
                def __init__(self, gain: float) -> None:  # reprolint: disable=RL-P003
                    self.gain = gain
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-H003",
        path="src/repro/analysis/snippet.py",
        bad=_src(
            """
            def helper() -> int:
                return 1
            """
        ),
        good=_src(
            """
            __all__ = ["helper"]


            def helper() -> int:
                return 1
            """
        ),
        suppressed=_src(
            """
            # reprolint: disable=RL-H003
            def helper() -> int:
                return 1
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-H005",
        path="src/repro/em/snippet.py",
        bad=_src(
            """
            import numpy as np

            __all__ = ["harvest_all"]


            def harvest_all(rect, powers) -> np.ndarray:
                return np.array([rect.harvest(p) for p in powers])
            """
        ),
        good=_src(
            """
            import numpy as np

            __all__ = ["harvest_all"]


            def harvest_all(rect, powers) -> np.ndarray:
                return rect.harvest(np.asarray(powers, dtype=float))
            """
        ),
        suppressed=_src(
            """
            import numpy as np

            __all__ = ["harvest_all"]


            def harvest_all(rect, powers) -> np.ndarray:
                return np.array([rect.harvest(p) for p in powers])  # reprolint: disable=RL-H005
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-H004",
        path="src/repro/analysis/snippet.py",
        bad=_src(
            """
            __all__ = ["lookup"]


            def lookup(id: int) -> int:
                return id + 1
            """
        ),
        good=_src(
            """
            __all__ = ["lookup"]


            def lookup(node_id: int) -> int:
                return node_id + 1
            """
        ),
        suppressed=_src(
            """
            __all__ = ["lookup"]


            def lookup(id: int) -> int:  # reprolint: disable=RL-H004
                return id + 1
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-D005",
        path="src/repro/pkg/main.py",
        bad=_src(
            """
            import numpy as np

            from repro.pkg.helper import consume

            __all__: list[str] = []


            def run(seed: int) -> float:
                rng = np.random.default_rng(seed)
                return consume(rng)
            """
        ),
        good=_src(
            """
            from repro.pkg.helper import consume
            from repro.utils.rng import coerce_rng

            __all__: list[str] = []


            def run(seed: int) -> float:
                rng = coerce_rng(seed)
                return consume(rng)
            """
        ),
        suppressed=_src(
            """
            import numpy as np

            from repro.pkg.helper import consume

            __all__: list[str] = []


            def run(seed: int) -> float:
                rng = np.random.default_rng(seed)
                return consume(rng)  # reprolint: disable=RL-D005
            """
        ),
        extra_files=(
            (
                "src/repro/pkg/helper.py",
                _src(
                    """
                    __all__ = ["consume"]


                    def consume(rng) -> float:
                        return float(rng.standard_normal())
                    """
                ),
            ),
        ),
    ),
    RuleFixture(
        rule_id="RL-D006",
        path="src/repro/pkg/config.py",
        bad=_src(
            """
            import os

            from repro.utils.rng import make_rng

            __all__: list[str] = []


            def build():
                raw = int(os.environ["REPRO_SEED"])
                return make_rng(seed=raw)
            """
        ),
        good=_src(
            """
            import os

            from repro.utils.rng import make_rng
            from repro.utils.validation import check_non_negative

            __all__: list[str] = []


            def build():
                raw = check_non_negative(int(os.environ["REPRO_SEED"]), name="seed")
                return make_rng(seed=raw)
            """
        ),
        suppressed=_src(
            """
            import os

            from repro.utils.rng import make_rng

            __all__: list[str] = []


            def build():
                raw = int(os.environ["REPRO_SEED"])
                return make_rng(seed=raw)  # reprolint: disable=RL-D006
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-P004",
        path="src/repro/pkg/link.py",
        bad=_src(
            """
            from repro.pkg.conversions import noise_floor_dbm

            __all__: list[str] = []


            def margin(tx_power_w: float) -> float:
                noise = noise_floor_dbm(180.0)
                return tx_power_w - noise
            """
        ),
        good=_src(
            """
            from repro.pkg.conversions import noise_floor_dbm
            from repro.utils.units import dbm_to_w

            __all__: list[str] = []


            def margin(tx_power_w: float) -> float:
                noise_w = dbm_to_w(noise_floor_dbm(180.0))
                return tx_power_w - noise_w
            """
        ),
        suppressed=_src(
            """
            from repro.pkg.conversions import noise_floor_dbm

            __all__: list[str] = []


            def margin(tx_power_w: float) -> float:
                noise = noise_floor_dbm(180.0)
                return tx_power_w - noise  # reprolint: disable=RL-P004
            """
        ),
        extra_files=(
            (
                "src/repro/pkg/conversions.py",
                _src(
                    """
                    __all__ = ["noise_floor_dbm"]


                    def noise_floor_dbm(bandwidth_hz: float) -> float:
                        return -174.0 + 10.0
                    """
                ),
            ),
        ),
    ),
    RuleFixture(
        rule_id="RL-H006",
        path="src/repro/pkg/surface.py",
        bad=_src(
            """
            __all__ = ["thing", "missing"]


            def thing() -> int:
                return 1
            """
        ),
        good=_src(
            """
            __all__ = ["thing"]


            def thing() -> int:
                return 1
            """
        ),
        suppressed=_src(
            """
            __all__ = ["thing", "missing"]  # reprolint: disable=RL-H006


            def thing() -> int:
                return 1
            """
        ),
    ),
    RuleFixture(
        rule_id="RL-H007",
        path="src/repro/pkg/alpha.py",
        bad=_src(
            """
            from repro.pkg.beta import beat

            __all__: list[str] = []


            def alpha() -> int:
                return beat() + 1
            """
        ),
        good=_src(
            """
            import repro.pkg.gamma

            __all__: list[str] = []


            def alpha() -> int:
                return repro.pkg.gamma.base() + 1
            """
        ),
        suppressed=_src(
            """
            from repro.pkg.beta import beat  # reprolint: disable=RL-H007

            __all__: list[str] = []


            def alpha() -> int:
                return beat() + 1
            """
        ),
        extra_files=(
            (
                "src/repro/pkg/beta.py",
                _src(
                    """
                    from repro.pkg.alpha import alpha

                    __all__: list[str] = []


                    def beat() -> int:
                        return alpha() - 1
                    """
                ),
            ),
            (
                "src/repro/pkg/gamma.py",
                _src(
                    """
                    __all__: list[str] = []


                    def base() -> int:
                        return 42
                    """
                ),
            ),
        ),
    ),
)

# The concurrency and numerics packs' fixtures live in their own modules
# (the snippets are structurally larger); the imports sit below the table
# because those modules import RuleFixture/_src back from this package.
from tests.lint.fixtures.concurrency import CONCURRENCY_FIXTURES  # noqa: E402
from tests.lint.fixtures.numerics import NUMERICS_FIXTURES  # noqa: E402

RULE_FIXTURES = RULE_FIXTURES + CONCURRENCY_FIXTURES + NUMERICS_FIXTURES
