"""The built-in REP rules.

Each rule targets a determinism or correctness hazard this codebase has
actually hit (or must never hit): Magellan's analytics only mean
something if two identically-seeded runs emit identical traces, so
global RNG, wall clock, and unordered iteration are treated as bugs, not
style.  All rules are line-suppressible with ``# repro: noqa[RULE]``.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from collections.abc import Iterable, Iterator

from repro.qa.findings import Severity
from repro.qa.rules import (
    RawFinding,
    Rule,
    dotted_name,
    has_path_segment,
    is_test_module,
    register,
)

#: Functions on the ``random`` module that draw from the hidden global
#: Mersenne Twister.  ``random.Random``/``SystemRandom`` are excluded:
#: constructing an injected, seeded generator is exactly the fix.
GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "gammavariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "binomialvariate",
        "seed",
        "getstate",
        "setstate",
    }
)

#: Wall-clock reads that make a run depend on when it was launched.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Packages whose runtime must be driven purely by simulated time.  The
#: obs package is scoped in too: its only sanctioned wall-clock read is
#: the injectable seam in ``repro/obs/clock.py`` (audited noqa).  The
#: ingest package joins it: timeouts, backoff schedules and commit
#: timings must flow through the Clock seam (WallClock/LoopClock in
#: production, ManualClock in tests) so retry and breaker behaviour is
#: exactly reproducible.  The fleet package joins for the same reason:
#: supervisor liveness deadlines (heartbeat/progress timeouts, backoff
#: scheduling) read time only through the injected Clock, so hang
#: detection and restart cadence are testable with a ManualClock.  The
#: overlay package joins because partner policies run inside the
#: simulated exchange rounds: any wall-clock read there would leak real
#: time into partner selection and break campaign reproducibility.  The
#: soa package holds the incremental window analytics, which run on
#: simulated report timestamps exactly like ``core``, so it inherits the
#: same rules.
SIMULATED_TIME_SEGMENTS = frozenset(
    {"simulator", "traces", "core", "obs", "ingest", "fleet", "overlay", "soa"}
)

#: RNG methods whose result order depends on the order of their input.
ORDER_SENSITIVE_RNG_METHODS = frozenset({"choice", "choices", "sample", "shuffle"})


def _walk(node: ast.AST) -> Iterator[ast.AST]:
    yield from ast.walk(node)


@register
class GlobalRandomRule(Rule):
    """REP001: calls into the module-level (shared, unseeded) RNG."""

    rule_id = "REP001"
    title = "module-level or unseeded random stream"
    severity = Severity.ERROR
    rationale = (
        "The module-level random functions share one hidden generator whose "
        "state any import can perturb, and so does the random module handed "
        "to a callee; random.Random() with no seed draws from OS entropy.  "
        "Draw from an injected random.Random(seed) so runs replay bit-for-bit."
    )

    def check(self, tree: ast.Module, source: str, path: PurePath) -> Iterable[RawFinding]:
        for node in _walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name is not None
                    and name.startswith("random.")
                    and name.split(".", 1)[1] in GLOBAL_RANDOM_FNS
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{name}() draws from the shared global RNG; "
                        "use an injected random.Random(seed)",
                    )
                elif name == "random.Random" and not (node.args or node.keywords):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "random.Random() without a seed is seeded from OS "
                        "entropy; pass a seed derived from the run's",
                    )
                for arg in (*node.args, *(k.value for k in node.keywords)):
                    if isinstance(arg, ast.Name) and arg.id == "random":
                        yield (
                            arg.lineno,
                            arg.col_offset,
                            "passing the random module hands the callee the "
                            "shared global RNG; pass an injected random.Random",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = sorted(
                    alias.name for alias in node.names if alias.name in GLOBAL_RANDOM_FNS
                )
                if bad:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"importing {', '.join(bad)} from random binds the shared "
                        "global RNG; import random.Random and inject a seed",
                    )


@register
class WallClockRule(Rule):
    """REP002: wall-clock reads inside simulated-time packages."""

    rule_id = "REP002"
    title = "wall-clock read in simulated-time code"
    severity = Severity.ERROR
    rationale = (
        "simulator/, traces/, core/ and obs/ run on the event engine's "
        "virtual clock; reading the host clock makes traces differ "
        "between runs and machines (obs durations must flow through the "
        "injectable clock seam in repro/obs/clock.py)."
    )

    def applies_to(self, path: PurePath) -> bool:
        return has_path_segment(path, SIMULATED_TIME_SEGMENTS)

    def check(self, tree: ast.Module, source: str, path: PurePath) -> Iterable[RawFinding]:
        for node in _walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in WALL_CLOCK_CALLS:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{name}() reads the wall clock; simulated-time code "
                        "must take time from the event engine",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if f"time.{alias.name}" in WALL_CLOCK_CALLS
                )
                if bad:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"importing {', '.join(bad)} from time pulls the wall "
                        "clock into simulated-time code",
                    )


def _contains_sorted(node: ast.AST) -> bool:
    for sub in _walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id == "sorted":
                return True
    return False


def _unordered_node(sub: ast.AST) -> str | None:
    """A description of ``sub`` when it is itself an unordered collection."""
    if isinstance(sub, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(sub, ast.Call):
        if isinstance(sub.func, ast.Name) and sub.func.id in ("set", "frozenset"):
            return f"{sub.func.id}(...)"
        if isinstance(sub.func, ast.Attribute) and sub.func.attr in (
            "values",
            "keys",
            "items",
        ):
            base = dotted_name(sub.func.value) or "<expr>"
            return f"{base}.{sub.func.attr}()"
    return None


def _unordered_source(node: ast.AST) -> str | None:
    """A description of the first unordered collection inside ``node``."""
    for sub in _walk(node):
        culprit = _unordered_node(sub)
        if culprit is not None:
            return culprit
    return None


def _is_rng_name(node: ast.expr) -> bool:
    """``rng``, ``self._rng``, ``latency_rng``: an expression naming a stream."""
    name = dotted_name(node)
    if name is None:
        return False
    bare = name.rsplit(".", 1)[-1].lstrip("_").lower()
    return bare == "rng" or bare.endswith("_rng")


@register
class UnorderedRngFeedRule(Rule):
    """REP003: RNG selection fed by set/dict-view iteration order."""

    rule_id = "REP003"
    title = "RNG draw over unordered collection"
    severity = Severity.ERROR
    rationale = (
        "choice/sample/shuffle over a set (hash order, perturbable by "
        "PYTHONHASHSEED) or a dict view (insertion order, perturbable by "
        "unrelated code) couples the draw sequence to iteration order, "
        "also when the set is passed to a callee along with the stream; "
        "wrap the candidates in sorted(...) first."
    )

    def check(self, tree: ast.Module, source: str, path: PurePath) -> Iterable[RawFinding]:
        for node in _walk(tree):
            if not isinstance(node, ast.Call):
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(_is_rng_name(arg) for arg in args):
                for arg in args:
                    culprit = _unordered_node(arg)
                    if culprit is not None:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"passes {culprit} alongside an RNG stream: the "
                            "callee's draws may follow its iteration order; "
                            "sort it first",
                        )
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ORDER_SENSITIVE_RNG_METHODS or not node.args:
                continue
            receiver = dotted_name(node.func.value)
            if receiver == "random":
                continue  # REP001 already owns module-level calls
            candidates = node.args[0]
            if _contains_sorted(candidates):
                continue
            culprit = _unordered_source(candidates)
            if culprit is not None:
                yield (
                    node.lineno,
                    node.col_offset,
                    f".{node.func.attr}() over {culprit}: iteration order is "
                    "not a stable contract; sort the candidates first",
                )


@register
class FloatEqualityRule(Rule):
    """REP004: exact float equality comparisons."""

    rule_id = "REP004"
    title = "float == / != comparison"
    severity = Severity.WARNING
    rationale = (
        "Exact comparison against a float literal is almost always a "
        "tolerance bug in metric code; use repro.stats.near_zero or an "
        "epsilon band.  Test modules are exempt (fixtures pin exact values)."
    )

    def applies_to(self, path: PurePath) -> bool:
        return not is_test_module(path)

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is float

    def check(self, tree: ast.Module, source: str, path: PurePath) -> Iterable[RawFinding]:
        for node in _walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op in node.ops:
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(self._is_float_literal(operand) for operand in operands):
                    kind = "==" if isinstance(op, ast.Eq) else "!="
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"float {kind} comparison; compare within an epsilon "
                        "(e.g. repro.stats.near_zero)",
                    )
                    break


@register
class MissingReturnAnnotationRule(Rule):
    """REP007: public functions without a return annotation."""

    rule_id = "REP007"
    title = "missing return annotation on public function"
    severity = Severity.WARNING
    rationale = (
        "Un-annotated returns hide Any from mypy and readers; every "
        "public function states what it produces.  Private helpers and "
        "test modules are exempt."
    )

    def applies_to(self, path: PurePath) -> bool:
        return not is_test_module(path)

    def check(self, tree: ast.Module, source: str, path: PurePath) -> Iterable[RawFinding]:
        yield from self._scan(tree.body, nested=False)

    def _scan(self, body: Iterable[ast.stmt], *, nested: bool) -> Iterator[RawFinding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._scan(node.body, nested=nested)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not nested and self._needs_annotation(node):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"public function {node.name}() has no return annotation",
                    )
                # nested defs are implementation detail: skip, but recurse
                # so classes defined inside functions stay exempt too.
                yield from self._scan(node.body, nested=True)

    @staticmethod
    def _needs_annotation(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        if node.returns is not None or node.name.startswith("_"):
            return False
        decorators = {dotted_name(d) or "" for d in node.decorator_list}
        return not decorators & {"overload", "typing.overload"}


@register
class MutateWhileIterateRule(Rule):
    """REP008: mutating a dict/set while iterating over it."""

    rule_id = "REP008"
    title = "dict/set mutated during iteration"
    severity = Severity.ERROR
    rationale = (
        "del/pop on the container a for-loop is walking raises "
        "RuntimeError only *sometimes* — the silent cases skip entries "
        "nondeterministically.  Snapshot with list(...) first."
    )

    _MUTATORS = frozenset({"pop", "popitem", "clear", "remove", "discard", "add", "update"})

    def check(self, tree: ast.Module, source: str, path: PurePath) -> Iterable[RawFinding]:
        for node in _walk(tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            target = self._iterated_container(node.iter)
            if target is None:
                continue
            for sub in ast.walk(node):
                if sub is node.iter:
                    continue
                finding = self._mutation_of(sub, target)
                if finding is not None:
                    yield finding

    @staticmethod
    def _iterated_container(iter_expr: ast.expr) -> str | None:
        """Dotted name of the container being iterated directly (no copy)."""
        name = dotted_name(iter_expr)
        if name is not None:
            return name
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr in ("items", "keys", "values")
        ):
            return dotted_name(iter_expr.func.value)
        return None

    def _mutation_of(self, node: ast.AST, target: str) -> RawFinding | None:
        if isinstance(node, ast.Delete):
            for victim in node.targets:
                if (
                    isinstance(victim, ast.Subscript)
                    and dotted_name(victim.value) == target
                ):
                    return (
                        node.lineno,
                        node.col_offset,
                        f"del {target}[...] while iterating {target}; "
                        f"iterate over list({target}) instead",
                    )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._MUTATORS
            and dotted_name(node.func.value) == target
        ):
            return (
                node.lineno,
                node.col_offset,
                f"{target}.{node.func.attr}(...) while iterating {target}; "
                f"iterate over list({target}) instead",
            )
        return None
