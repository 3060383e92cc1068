"""Per-rule fixture tests: each rule fires on a minimal offending snippet,
stays silent on the idiomatic fix, and honours suppression comments."""

import pytest

from repro.lint import lint_source, lint_sources

from tests.lint.fixtures import RULE_FIXTURES
from tests.lint.fixtures.numerics import NARROWING_PLANTINGS

_BY_ID = {fixture.rule_id: fixture for fixture in RULE_FIXTURES}


def _lint(fixture, source):
    """Lint one fixture variant together with its companion modules."""
    if not fixture.extra_files:
        return lint_source(source, fixture.path)
    return lint_sources([(fixture.path, source), *fixture.extra_files])


@pytest.mark.parametrize("fixture", RULE_FIXTURES, ids=lambda f: f.rule_id)
class TestRuleFixtures:
    def test_bad_snippet_fires_exactly_this_rule(self, fixture):
        findings = _lint(fixture, fixture.bad)
        assert findings, f"{fixture.rule_id} did not fire on its bad snippet"
        assert {f.rule_id for f in findings} == {fixture.rule_id}

    def test_good_snippet_is_fully_clean(self, fixture):
        assert _lint(fixture, fixture.good) == []

    def test_suppression_comment_silences_the_rule(self, fixture):
        assert _lint(fixture, fixture.suppressed) == []

    def test_findings_carry_location_and_message(self, fixture):
        finding = _lint(fixture, fixture.bad)[0]
        assert finding.path == fixture.path
        assert finding.line >= 1
        assert finding.message
        assert finding.rule_id in finding.format()


class TestDeterminismVariants:
    def test_numpy_legacy_global_call_fires(self):
        source = (
            "import numpy as np\n"
            "__all__ = ['draw']\n"
            "def draw():\n"
            "    return np.random.rand(3)\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert [f.rule_id for f in findings] == ["RL-D001"]

    def test_from_import_of_stdlib_random_fires(self):
        source = (
            "from random import randint\n"
            "__all__ = ['draw']\n"
            "def draw():\n"
            "    return randint(0, 10)\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert [f.rule_id for f in findings] == ["RL-D001"]

    def test_seed_union_param_never_coerced_nor_forwarded_fires(self):
        source = (
            "import numpy as np\n"
            "__all__ = ['run']\n"
            "def run(seed: int | np.random.Generator = 0) -> int:\n"
            "    return 1\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert [f.rule_id for f in findings] == ["RL-D004"]

    def test_seed_forwarded_to_callee_is_accepted(self):
        source = (
            "import numpy as np\n"
            "__all__ = ['run']\n"
            "def run(seed: int | np.random.Generator = 0):\n"
            "    return build(seed)\n"
        )
        assert lint_source(source, "src/repro/sim/mod.py") == []

    def test_determinism_rules_skip_test_modules(self):
        source = "import random\nrandom.seed(0)\n"
        assert lint_source(source, "tests/test_whatever.py") == []

    def test_monotonic_clock_fires_in_sim_code(self):
        source = (
            "import time\n"
            "__all__ = ['tick']\n"
            "def tick() -> float:\n"
            "    return time.perf_counter()\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert [f.rule_id for f in findings] == ["RL-D003"]

    def test_wall_clock_allowed_in_campaign_code(self):
        # RL-D003 is scoped out of repro.campaign: trial telemetry
        # legitimately measures real elapsed time.
        source = (
            "import time\n"
            "__all__ = ['now']\n"
            "def now() -> float:\n"
            "    return time.perf_counter()\n"
        )
        assert lint_source(source, "src/repro/campaign/mod.py") == []

    def test_wall_clock_allowed_in_service_code(self):
        # RL-D003 is also scoped out of repro.service: lease TTLs,
        # heartbeats and the usage ledger are wall-clock by definition.
        source = (
            "import time\n"
            "__all__ = ['lease_deadline']\n"
            "def lease_deadline(ttl_s: float) -> float:\n"
            "    return time.time() + ttl_s\n"
        )
        assert lint_source(source, "src/repro/service/mod.py") == []

    def test_other_determinism_rules_still_apply_in_campaign_code(self):
        # The campaign exemption is RL-D003 only; global-RNG use in
        # campaign code is still a finding.
        source = (
            "import random\n"
            "__all__ = ['draw']\n"
            "def draw() -> int:\n"
            "    return random.randint(0, 10)\n"
        )
        findings = lint_source(source, "src/repro/campaign/mod.py")
        assert [f.rule_id for f in findings] == ["RL-D001"]


class TestPhysicsVariants:
    def test_float_equality_outside_physical_dirs_is_allowed(self):
        source = (
            "__all__ = ['same']\n"
            "def same(x: float) -> bool:\n"
            "    return x == 0.0\n"
        )
        assert lint_source(source, "src/repro/analysis/mod.py") == []

    def test_db_minus_db_is_allowed(self):
        source = (
            "__all__ = ['margin']\n"
            "def margin(rx_dbm: float, floor_dbm: float) -> float:\n"
            "    return rx_dbm - floor_dbm\n"
        )
        assert lint_source(source, "src/repro/em/mod.py") == []

    def test_call_boundary_stops_unit_propagation(self):
        source = (
            "__all__ = ['total']\n"
            "def total(p_dbm: float, q_w: float) -> float:\n"
            "    return dbm_to_w(p_dbm) + q_w\n"
        )
        assert lint_source(source, "src/repro/em/mod.py") == []

    def test_record_dataclass_without_constructor_is_exempt(self):
        source = (
            "from dataclasses import dataclass\n"
            "__all__ = ['Sample']\n"
            "@dataclass\n"
            "class Sample:\n"
            "    power_w: float\n"
        )
        assert lint_source(source, "src/repro/em/mod.py") == []

    def test_post_init_field_validation_is_recognised(self):
        source = (
            "from dataclasses import dataclass\n"
            "from repro.utils.validation import check_positive\n"
            "__all__ = ['Model']\n"
            "@dataclass\n"
            "class Model:\n"
            "    width: float\n"
            "    def __post_init__(self) -> None:\n"
            "        check_positive('width', self.width)\n"
        )
        assert lint_source(source, "src/repro/network/mod.py") == []

    def test_post_init_missing_field_validation_fires(self):
        source = (
            "from dataclasses import dataclass\n"
            "__all__ = ['Model']\n"
            "@dataclass\n"
            "class Model:\n"
            "    width: float\n"
            "    def __post_init__(self) -> None:\n"
            "        pass\n"
        )
        findings = lint_source(source, "src/repro/network/mod.py")
        assert [f.rule_id for f in findings] == ["RL-P003"]
        assert "width" in findings[0].message


class TestHygieneVariants:
    def test_private_module_may_omit_all(self):
        source = "X = 1\n"
        assert lint_source(source, "src/repro/_internal.py") == []

    def test_multiple_findings_are_sorted_by_line(self):
        source = (
            "def f(id: int) -> int:\n"
            "    return id\n"
            "def g(x: float, type: str) -> bool:\n"
            "    return x == 0.5\n"
        )
        findings = lint_source(source, "src/repro/em/mod.py")
        ids = [f.rule_id for f in findings]
        assert sorted(ids) == ["RL-H003", "RL-H004", "RL-H004", "RL-P001"]
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestNumericsVariants:
    @pytest.mark.parametrize(
        "path, source, hazard",
        NARROWING_PLANTINGS.values(),
        ids=NARROWING_PLANTINGS.keys(),
    )
    def test_planted_narrowing_fires_on_its_line(self, path, source, hazard):
        line = 1 + next(
            i for i, text in enumerate(source.splitlines()) if hazard in text
        )
        findings = lint_source(source, path)
        assert [(f.rule_id, f.line) for f in findings] == [("RL-N001", line)]

    @pytest.mark.parametrize(
        "expr",
        [
            "np.zeros(3, dtype='float32')",
            "np.zeros(3).astype('int32')",
            "np.asarray([1, 2], dtype=np.uint16)",
            "np.arange(3, dtype=numpy.intc)",
            "np.single(1.5)",
        ],
    )
    def test_narrow_spellings_fire(self, expr):
        source = (
            "import numpy\n"
            "import numpy as np\n"
            "__all__ = ['make']\n"
            "def make():\n"
            f"    return {expr}\n"
        )
        findings = lint_source(source, "src/repro/network/mod.py")
        assert [(f.rule_id, f.line) for f in findings] == [("RL-N001", 5)]

    def test_from_import_of_a_narrow_dtype_fires(self):
        source = (
            "from numpy import float32\n"
            "__all__ = ['make']\n"
            "def make(x):\n"
            "    return float32(x)\n"
        )
        findings = lint_source(source, "src/repro/twin/mod.py")
        assert [(f.rule_id, f.line) for f in findings] == [("RL-N001", 4)]

    def test_wide_dtypes_and_lookalike_names_are_clean(self):
        source = (
            "import numpy as np\n"
            "__all__ = ['make']\n"
            "def make(half, n):\n"
            "    keys = np.arange(n, dtype=np.int64) // 2\n"
            "    return np.where(keys > 0, half, 1).astype('float64') + n / 2\n"
        )
        assert lint_source(source, "src/repro/core/mod.py") == []

    def test_narrowing_outside_the_bit_for_bit_layers_is_allowed(self):
        source = (
            "import numpy as np\n"
            "__all__ = ['compact']\n"
            "def compact(x):\n"
            "    return x.astype(np.float32)\n"
        )
        assert lint_source(source, "src/repro/analysis/mod.py") == []


class TestConcurrencyVariants:
    def test_check_same_thread_false_exempts_cross_thread_conn(self):
        # Opting out of sqlite's own thread check is an explicit claim
        # that the caller serialises access; RL-C001 must respect it.
        source = (
            "import sqlite3\n"
            "import threading\n"
            "__all__ = ['Worker']\n"
            "class Worker:\n"
            "    def __init__(self, path: str) -> None:\n"
            "        self.conn = sqlite3.connect(path, check_same_thread=False)\n"
            "        self._t = threading.Thread(target=self._loop, daemon=True)\n"
            "        self._t.start()\n"
            "    def _loop(self) -> None:\n"
            "        self.conn.execute('SELECT 1')\n"
            "    def summary(self) -> None:\n"
            "        self.conn.execute('SELECT 2')\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C001" not in {f.rule_id for f in findings}

    def test_conn_used_from_one_side_only_is_clean(self):
        source = (
            "import sqlite3\n"
            "import threading\n"
            "__all__ = ['Worker']\n"
            "class Worker:\n"
            "    def __init__(self, path: str) -> None:\n"
            "        self.conn = sqlite3.connect(path)\n"
            "        self._t = threading.Thread(target=self._loop, daemon=True)\n"
            "        self._t.start()\n"
            "    def _loop(self) -> None:\n"
            "        pass\n"
            "    def summary(self) -> None:\n"
            "        self.conn.execute('SELECT 2')\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C001" not in {f.rule_id for f in findings}

    def test_writes_in_init_are_happens_before_exempt(self):
        source = (
            "import threading\n"
            "__all__ = ['Counter']\n"
            "class Counter:\n"
            "    def __init__(self) -> None:\n"
            "        self.total = 0\n"
            "        self._t = threading.Thread(target=self._tick)\n"
            "        self._t.start()\n"
            "    def _tick(self) -> None:\n"
            "        print(self.total)\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C002" not in {f.rule_id for f in findings}

    def test_no_thread_entry_means_no_race(self):
        source = (
            "__all__ = ['Counter']\n"
            "class Counter:\n"
            "    def __init__(self) -> None:\n"
            "        self.total = 0\n"
            "    def tick(self) -> None:\n"
            "        self.total += 1\n"
        )
        assert lint_source(source, "src/repro/sim/mod.py") == []

    def test_daemon_thread_is_exempt_from_join_check(self):
        source = (
            "import threading\n"
            "__all__ = ['run']\n"
            "def run(work) -> None:\n"
            "    t = threading.Thread(target=work, daemon=True)\n"
            "    t.start()\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C005" not in {f.rule_id for f in findings}

    def test_escaped_thread_is_exempt_from_join_check(self):
        # Returning the handle transfers the join obligation to the
        # caller; the rule only flags locally-dropped threads.
        source = (
            "import threading\n"
            "__all__ = ['spawn']\n"
            "def spawn(work):\n"
            "    t = threading.Thread(target=work)\n"
            "    t.start()\n"
            "    return t\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C005" not in {f.rule_id for f in findings}

    def test_acquire_with_try_finally_release_is_clean(self):
        source = (
            "import threading\n"
            "__all__ = ['bump']\n"
            "_LOCK = threading.Lock()\n"
            "_N = 0\n"
            "def bump() -> None:\n"
            "    global _N\n"
            "    _LOCK.acquire()\n"
            "    try:\n"
            "        _N += 1\n"
            "    finally:\n"
            "        _LOCK.release()\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C005" not in {f.rule_id for f in findings}

    def test_bare_acquire_without_finally_fires(self):
        source = (
            "import threading\n"
            "__all__ = ['bump']\n"
            "_LOCK = threading.Lock()\n"
            "_N = 0\n"
            "def bump() -> None:\n"
            "    global _N\n"
            "    _LOCK.acquire()\n"
            "    _N += 1\n"
            "    _LOCK.release()\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C005" in {f.rule_id for f in findings}

    def test_resource_returned_to_caller_is_not_a_leak(self):
        source = (
            "__all__ = ['open_log']\n"
            "def open_log(path: str):\n"
            "    handle = open(path, 'a', encoding='utf-8')\n"
            "    return handle\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C004" not in {f.rule_id for f in findings}

    def test_signal_handler_setting_an_event_is_safe(self):
        source = (
            "import signal\n"
            "import threading\n"
            "__all__ = ['STOP', 'install']\n"
            "STOP = threading.Event()\n"
            "def _handler(signum, frame) -> None:\n"
            "    STOP.set()\n"
            "def install() -> None:\n"
            "    signal.signal(signal.SIGTERM, _handler)\n"
        )
        assert lint_source(source, "src/repro/sim/mod.py") == []

    def test_unsafe_call_reached_through_helper_fires(self):
        # The handler itself is clean; the logging call sits one edge
        # away — context propagation must carry the signal label there.
        source = (
            "import logging\n"
            "import signal\n"
            "__all__ = ['install']\n"
            "_LOG = logging.getLogger(__name__)\n"
            "def _note() -> None:\n"
            "    _LOG.warning('stopping')\n"
            "def _handler(signum, frame) -> None:\n"
            "    _note()\n"
            "def install() -> None:\n"
            "    signal.signal(signal.SIGTERM, _handler)\n"
        )
        findings = lint_source(source, "src/repro/sim/mod.py")
        assert "RL-C003" in {f.rule_id for f in findings}
