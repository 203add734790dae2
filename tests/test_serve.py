"""Tests for ``repro.serve``: registry, micro-batcher, server, HTTP adapter.

The numerical heart of the serving layer is the claim that a coalesced
micro-batch launch returns *exactly* the answer each caller would have
gotten alone — the property tests below drive random interleavings of
concurrent mixed-shape requests against unbatched references, including a
poisoned batchmate that must fail in isolation.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import numpy as np
import pytest

import repro
from repro import ExecutionPolicy, ExponentialKernel, uniform_cube_points
from repro.observe import SpanTracer, find_spans
from repro.serve import (
    HealthRequest,
    InferenceServer,
    LogdetRequest,
    MatvecRequest,
    MetricsRequest,
    MicroBatcher,
    ModelNotFoundError,
    ModelRegistry,
    PredictRequest,
    RequestValidationError,
    ServeError,
    SolveRequest,
    request_from_wire,
    response_to_wire,
    serve_http,
)
from repro.serve.http import MAX_BODY_BYTES

N = 192
NOISE = 1e-2
TOL = 1e-9


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def serve_points():
    return uniform_cube_points(N, dim=2, seed=11)


@pytest.fixture(scope="module")
def serve_kernel():
    return ExponentialKernel(0.3)


@pytest.fixture(scope="module")
def serve_operator(serve_points, serve_kernel):
    return repro.compress(
        serve_points, serve_kernel, format="hss", tol=TOL, leaf_size=32, seed=5
    )


@pytest.fixture(scope="module")
def dense_matrix(serve_points, serve_kernel):
    return serve_kernel.evaluate(serve_points, serve_points)


def make_server(serve_operator, **server_kwargs) -> InferenceServer:
    server = InferenceServer(**server_kwargs)
    server.registry.register("m", serve_operator, noise=NOISE)
    return server


def gate_matmat(monkeypatch, operator):
    """Hold every ``matmat`` of ``operator``'s class on a worker thread until
    the returned gate is set; ``entered`` lists the width of each call."""
    entered, gate = [], threading.Event()
    real_matmat = type(operator).matmat

    def gated_matmat(self, block, *args, **kwargs):
        entered.append(block.shape[1])
        # The tests set the gate from the event loop; the timeout only turns
        # a loop that blocks instead of awaiting into a failure, not a hang.
        gate.wait(timeout=5.0)
        return real_matmat(self, block, *args, **kwargs)

    monkeypatch.setattr(type(operator), "matmat", gated_matmat)
    return entered, gate


async def until(condition):
    while not condition():
        await asyncio.sleep(0.001)


# --------------------------------------------------------------------- registry
class TestModelRegistry:
    def test_register_and_get(self, serve_operator):
        registry = ModelRegistry()
        model = registry.register("a", serve_operator, noise=NOISE)
        assert "a" in registry
        assert registry.get("a") is model
        assert registry.get("a").requests == 2
        assert registry.names() == ["a"]
        assert model.statistics()["format"] == serve_operator.statistics()["format"] == "h2"

    def test_get_unknown_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFoundError):
            registry.get("nope")

    def test_exactly_one_source_required(self, serve_operator, serve_points,
                                         serve_kernel):
        registry = ModelRegistry()
        with pytest.raises(ServeError):
            registry.register("a")
        with pytest.raises(ServeError):
            registry.register(
                "a", serve_operator, points=serve_points, kernel=serve_kernel
            )

    @pytest.mark.parametrize("kind", ["hodlr", "ndarray", "linear_operator"])
    def test_only_an_h2_matrix_is_served(self, serve_operator, dense_matrix, kind):
        """A served model is an H2Matrix: anything else is a ServeError
        naming its type, raised by the registry and the server alike before
        a model is built."""
        from repro.baselines import convert
        from repro.hmatrix import LinearOperator

        other = {
            "hodlr": lambda: convert(serve_operator, "hodlr"),
            "ndarray": lambda: dense_matrix,
            "linear_operator": lambda: LinearOperator((N, N), lambda x: x),
        }[kind]()
        registry = ModelRegistry()
        server = InferenceServer()
        for register in (registry.register, server.register):
            with pytest.raises(ServeError, match=type(other).__name__):
                register("a", operator=other, noise=NOISE)
        assert registry.names() == server.registry.names() == []
        run(server.aclose())

    def test_register_from_artifact_path(self, serve_operator, tmp_path):
        path = tmp_path / "m.repro"
        repro.save_operator(serve_operator, path)
        registry = ModelRegistry()
        model = registry.register("a", path=path, noise=NOISE)
        x = np.ones(N)
        np.testing.assert_allclose(
            model.operator.matvec(x), serve_operator.matvec(x), atol=1e-12
        )

    def test_register_from_cache_key(self, serve_operator, tmp_path,
                                     serve_points, serve_kernel):
        cache = repro.ArtifactCache(tmp_path)
        key = cache.key(serve_points, serve_kernel, tol=TOL, format="hss",
                        leaf_size=32, seed=5)
        cache.put(key, serve_operator)
        registry = ModelRegistry(cache=cache)
        model = registry.register("a", key=key)
        assert model.n == N
        with pytest.raises(ModelNotFoundError):
            registry.register("b", key="0" * 64)
        with pytest.raises(ServeError):
            ModelRegistry().register("c", key=key)  # no cache configured

    @pytest.mark.parametrize("source", ["path", "key"])
    def test_loaded_model_applies_under_the_registering_policy(
        self, serve_operator, serve_points, serve_kernel, tmp_path, source
    ):
        """A model loaded by path or key is bound to the policy that
        registered it: it applies on that policy's backend instance and
        records its ``apply`` span into that policy's tracer."""
        cache = repro.ArtifactCache(tmp_path)
        key = cache.key(serve_points, serve_kernel, tol=TOL, format="hss",
                        leaf_size=32, seed=5)
        cache.put(key, serve_operator)
        tracer = SpanTracer()
        policy = ExecutionPolicy(backend="serial", tracer=tracer)
        registry = ModelRegistry(policy=policy, cache=cache)
        found = {"path": {"path": cache.path_for(key)}, "key": {"key": key}}
        model = registry.register("a", **found[source])
        assert model.operator.apply_backend is policy.resolve_backend()
        y = model.operator.matvec(np.ones(N))
        (span,) = find_spans(tracer, name="apply")
        assert span.attributes["backend"] == "serial"
        np.testing.assert_allclose(y, serve_operator.matvec(np.ones(N)), atol=1e-12)

    def test_loaded_model_is_probed_at_its_build_tolerance(
        self, serve_points, serve_kernel, tmp_path
    ):
        """An artifact records the tolerance it was built at, and the health
        probe of a load reads it rather than ``register(tol=)``."""
        from repro import HealthThresholds

        points = uniform_cube_points(600, dim=2, seed=11)
        kernel = ExponentialKernel(0.2)
        loose = repro.compress(points, kernel, format="hss", tol=1e-2, seed=0)
        assert loose.tolerance == 1e-2
        path = tmp_path / "loose.repro"
        repro.save_operator(loose, path)
        assert repro.load_operator(path).tolerance == 1e-2
        registry = ModelRegistry(policy=ExecutionPolicy(health=HealthThresholds()))
        model = registry.register("a", path=path, kernel=kernel)
        assert model.health.tol == 1e-2
        assert not model.health.flagged

    def test_register_from_points_uses_cache(self, serve_points, serve_kernel,
                                             tmp_path):
        cache = repro.ArtifactCache(tmp_path)
        registry = ModelRegistry(cache=cache)
        registry.register("a", points=serve_points, kernel=serve_kernel,
                          tol=TOL, leaf_size=32, seed=5)
        assert cache.misses == 1
        registry.register("b", points=serve_points, kernel=serve_kernel,
                          tol=TOL, leaf_size=32, seed=5)
        assert cache.hits == 1

    def test_ttl_eviction(self, serve_operator):
        registry = ModelRegistry(ttl_seconds=60.0)
        model = registry.register("a", serve_operator)
        model.last_used -= 120.0  # idle past the TTL
        with pytest.raises(ModelNotFoundError):
            registry.get("a")
        assert registry.evictions == 1

    def test_lru_max_models_eviction(self, serve_operator):
        registry = ModelRegistry(max_models=2)
        registry.register("a", serve_operator)
        registry.register("b", serve_operator)
        registry.get("a")  # refresh: "b" becomes the LRU entry
        registry.register("c", serve_operator)
        assert registry.names() == ["a", "c"]

    def test_byte_budget_eviction_keeps_most_recent(self, serve_operator):
        # A served model's bytes: the operator and its apply plan's own operands.
        per_model = ModelRegistry().register("probe", serve_operator).memory_bytes()
        assert per_model > serve_operator.memory_bytes()["total"]
        registry = ModelRegistry(max_bytes=int(per_model * 1.5))
        registry.register("a", serve_operator)
        registry.register("b", serve_operator)
        # Over budget: the LRU entry goes, but never the last survivor.
        assert registry.names() == ["b"]

    def test_registry_counts_models_bytes_and_evictions(self, serve_operator):
        registry = ModelRegistry()
        model = registry.register("a", serve_operator)
        stats = registry.statistics()
        assert (stats["count"], stats["bytes"]) == (1, model.memory_bytes())
        assert registry.evict("a")
        assert not registry.evict("a")
        stats = registry.statistics()
        assert (stats["count"], stats["bytes"], stats["evictions"]) == (0, 0, 1)

    def test_lazy_factorization_and_logdet(self, serve_operator, dense_matrix):
        registry = ModelRegistry()
        model = registry.register("a", serve_operator, noise=NOISE)
        assert not model.factored
        sign, logabs = model.slogdet()
        assert model.factored
        assert isinstance(model.factorization(), repro.HSSFactorization)
        ref_sign, ref_logabs = np.linalg.slogdet(
            dense_matrix + NOISE * np.eye(N)
        )
        assert sign == ref_sign
        assert logabs == pytest.approx(ref_logabs, rel=1e-5)
        # the factorization bytes join the model's footprint
        assert model.memory_bytes() > serve_operator.memory_bytes()["total"]

    def test_health_probe_on_load(self, serve_points, serve_kernel):
        from repro import HealthThresholds

        policy = ExecutionPolicy(health=HealthThresholds())
        registry = ModelRegistry(policy=policy)
        model = registry.register(
            "a", points=serve_points, kernel=serve_kernel, tol=TOL,
            leaf_size=32, seed=5,
        )
        assert model.health is not None
        assert model.health.source == "constructed"  # no cache: a miss
        assert not model.health.flagged
        stats = registry.statistics()
        assert "health" in stats["models"]["a"]

    def test_one_health_probe_per_registration(
        self, serve_operator, serve_points, serve_kernel, tmp_path
    ):
        """``points=`` keeps the probe of what compress constructed (or
        loaded); ``operator=`` / ``path=`` / ``key=`` probe once, as loaded."""
        from repro import HealthThresholds

        tracer = SpanTracer()
        cache = repro.ArtifactCache(tmp_path / "cache")
        registry = ModelRegistry(
            policy=ExecutionPolicy(tracer=tracer, health=HealthThresholds()),
            cache=cache,
        )

        def probes():
            events = list(tracer.orphan_events)
            stack = list(tracer.roots)
            while stack:
                span = stack.pop()
                events.extend(span.events)
                stack.extend(span.children)
            return [
                e.attributes["source"]
                for e in events if e.name == "health.operator_probe"
            ]

        def probed_sources(name, **source):
            before = len(probes())
            model = registry.register(name, kernel=serve_kernel, tol=TOL, **source)
            assert model.health is not None
            sources = probes()[before:]
            assert sources == [model.health.source]
            return sources[0]

        points = dict(points=serve_points, leaf_size=32, seed=5)
        assert probed_sources("miss", **points) == "constructed"
        assert probed_sources("hit", **points) == "loaded"
        key = cache.key(serve_points, serve_kernel, tol=TOL, format="hss",
                        leaf_size=32, seed=5)
        cache.put(key, serve_operator)
        path = tmp_path / "m.repro"
        repro.save_operator(serve_operator, path)
        for source in (dict(operator=serve_operator), dict(path=path),
                       dict(key=key)):
            assert probed_sources("other", **source) == "loaded"

    @pytest.mark.parametrize("mode", ["strict", "warn", "recover"])
    def test_corrupted_cache_key_follows_the_integrity_mode(
        self, mode, serve_operator, serve_points, serve_kernel, tmp_path
    ):
        """A ``key=`` registration reads the cache under the policy's
        integrity mode: never a silently corrupted model."""
        from repro.resilience import ArtifactIntegrityError, FaultInjector

        cache = repro.ArtifactCache(tmp_path)
        key = cache.key(serve_points, serve_kernel, tol=TOL, format="hss",
                        leaf_size=32, seed=5)
        cache.put(key, serve_operator)
        injector = FaultInjector.from_spec("corrupt-artifact-buffer:count=64")
        assert injector.corrupt_artifact(cache.path_for(key))
        registry = ModelRegistry(
            policy=ExecutionPolicy(recovery=mode), cache=cache
        )
        expected = ArtifactIntegrityError if mode == "strict" else ModelNotFoundError
        with pytest.raises(expected):
            registry.register("bad", key=key)
        assert "bad" not in registry
        # strict leaves the evidence in place; warn / recover evict it.
        assert cache.path_for(key).exists() == (mode == "strict")


# ------------------------------------------------------------------ micro-batch
class TestReadyAtRegistration:
    """A served model takes no lock: registration builds everything a first
    apply would — a loaded model's apply plan adopts the mapped operands it
    was stored as, and its backend is resolved — and the compiled apply and
    the HSS solve allocate their buffers per call.  So concurrent first
    requests of one model return the serial answers bit for bit."""

    def test_loaded_model_serves_concurrent_first_requests(
        self, serve_operator, tmp_path
    ):
        from repro.batched.backend import BatchedBackend

        path = tmp_path / "m.repro"
        repro.save_operator(serve_operator, path)
        server = InferenceServer(batching=False)
        model = server.register("m", path=path, noise=NOISE)
        operator = model.operator
        plan = operator._plan
        assert plan is not None
        assert isinstance(operator.apply_backend, BatchedBackend)
        assert not model.factored

        reference = repro.load_operator(path)
        factorization = repro.factorize(reference, shift=NOISE)
        rng = np.random.default_rng(17)
        blocks = [rng.standard_normal((N, 1 + i % 4)) for i in range(24)]
        serial = [(reference.matmat(b), factorization.solve(b)) for b in blocks]

        async def main():
            requests = []
            for b in blocks:
                requests += [MatvecRequest(model="m", x=b), SolveRequest(model="m", b=b)]
            return await asyncio.gather(*[server.handle(r) for r in requests])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            responses = run(main())
        finally:
            sys.setswitchinterval(interval)
            run(server.aclose())
        assert operator._plan is plan
        for i, (y_ref, x_ref) in enumerate(serial):
            assert np.array_equal(responses[2 * i].y, y_ref)
            assert np.array_equal(responses[2 * i + 1].x, x_ref)


class TestMicroBatcher:
    def test_coalesces_concurrent_requests_into_one_launch(self, serve_operator):
        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        batcher = MicroBatcher(max_batch=64)
        rng = np.random.default_rng(0)
        payloads = [rng.standard_normal(N) for _ in range(12)]

        async def main():
            return await asyncio.gather(
                *[batcher.submit(model, "matvec", p) for p in payloads]
            )

        results = run(main())
        assert batcher.launches == 1
        for (y, batch_size, _), p in zip(results, payloads):
            assert batch_size == 12
            np.testing.assert_allclose(
                y, serve_operator.matvec(p), atol=1e-11
            )
        summary = batcher.metrics.histogram("serve.batch.requests").summary()
        assert summary["count"] == 1 and summary["max"] == 12
        batcher.close()

    def test_max_batch_flushes_without_waiting(self, serve_operator):
        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        batcher = MicroBatcher(max_batch=4)
        rng = np.random.default_rng(1)

        async def main():
            return await asyncio.wait_for(
                asyncio.gather(
                    *[batcher.submit(model, "matvec", rng.standard_normal(N))
                      for _ in range(8)]
                ),
                timeout=5.0,
            )

        results = run(main())
        assert len(results) == 8
        assert batcher.launches == 2  # two launches of max_batch columns
        batcher.close()

    def test_late_arrivals_coalesce_into_the_next_launch(
        self, serve_operator, monkeypatch
    ):
        """Requests admitted while a launch holds the worker wait for it to
        return, then share one launch."""
        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        batcher = MicroBatcher(max_batch=64)
        rng = np.random.default_rng(9)
        payloads = [rng.standard_normal(N) for _ in range(4)]
        entered, gate = gate_matmat(monkeypatch, serve_operator)

        async def main():
            first = asyncio.ensure_future(
                batcher.submit(model, "matvec", payloads[0])
            )
            await until(lambda: entered)  # A's launch holds the worker
            late = [asyncio.ensure_future(batcher.submit(model, "matvec", p))
                    for p in payloads[1:]]
            await asyncio.sleep(0)  # B, C and D are admitted behind it
            gate.set()
            return await asyncio.gather(first, *late)

        results = run(main())
        monkeypatch.undo()
        assert batcher.launches == 2
        assert entered == [1, 3]
        assert [batch_size for _, batch_size, _ in results] == [1, 3, 3, 3]
        for (y, _, _), p in zip(results, payloads):
            np.testing.assert_allclose(y, serve_operator.matvec(p), atol=1e-11)
        batcher.close()

    def test_closed_loop_clients_share_every_launch(self, serve_operator):
        """The benchmark's traffic: two clients that each send their next
        request after their reply are woken by the same launch, so they share
        every launch."""
        server = make_server(serve_operator)
        payloads = np.random.default_rng(10).standard_normal((2, 10, N))

        async def client(c):
            return [await server.handle(MatvecRequest(model="m", x=x))
                    for x in payloads[c]]

        async def main():
            return await asyncio.gather(client(0), client(1))

        responses = run(main())
        assert server.batcher.launches == 10
        assert [r.batch_size for rs in responses for r in rs] == [2] * 20
        # One queue-time observation per launch.
        queue_ms = server.batcher.metrics.histogram("serve.batch.queue_ms")
        assert queue_ms.summary()["count"] == 10
        for c, rs in enumerate(responses):
            for r, x in zip(rs, payloads[c]):
                np.testing.assert_allclose(
                    r.y, serve_operator.matvec(x), atol=1e-11
                )
        run(server.aclose())

    def test_lone_request_arms_no_timer(self, serve_operator):
        """A lone request launches on the next loop tick: it is served on an
        event loop where arming a timer stops the loop and raises."""

        class TimerlessLoop(asyncio.SelectorEventLoop):
            def call_later(self, *args, **kwargs):
                self.stop()
                raise AssertionError("the batcher armed a timer")

        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        batcher = MicroBatcher()
        x = np.random.default_rng(11).standard_normal(N)
        loop = TimerlessLoop()
        try:
            y, batch_size, _ = loop.run_until_complete(
                batcher.submit(model, "matvec", x)
            )
        finally:
            loop.close()
        assert batch_size == 1 and batcher.launches == 1
        np.testing.assert_allclose(y, serve_operator.matvec(x), atol=1e-11)
        batcher.close()

    def test_disabled_batching_runs_requests_alone(self, serve_operator):
        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        batcher = MicroBatcher(enabled=False)
        rng = np.random.default_rng(2)
        payloads = [rng.standard_normal(N) for _ in range(6)]

        async def main():
            return await asyncio.gather(
                *[batcher.submit(model, "solve", p) for p in payloads]
            )

        results = run(main())
        assert batcher.launches == 6
        for (x, batch_size, _), p in zip(results, payloads):
            assert batch_size == 1
            np.testing.assert_allclose(
                x, model.factorization().solve(p), atol=1e-10
            )
        batcher.close()

    def test_shape_validation_fails_fast(self, serve_operator):
        registry = ModelRegistry()
        model = registry.register("m", serve_operator)
        batcher = MicroBatcher()

        async def main():
            with pytest.raises(RequestValidationError):
                await batcher.submit(model, "matvec", np.ones(N + 1))
            with pytest.raises(RequestValidationError):
                await batcher.submit(model, "matvec", np.ones(N) + 1j)
            with pytest.raises(RequestValidationError):
                await batcher.submit(model, "matvec", np.ones((N, 0)))

        run(main())
        batcher.close()

    @pytest.mark.parametrize("kind", ["matvec", "solve", "predict"])
    def test_interleaving_property_each_caller_gets_its_own_columns(
        self, serve_operator, kind
    ):
        """Any interleaving of k mixed-shape requests returns each caller its
        own column(s), bit-for-bit consistent with its position in the batch.
        """
        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        model.factorization()  # build once outside the timed windows
        rng = np.random.default_rng(42)

        def reference(payload):
            if kind == "matvec":
                return model.operator.matmat(np.atleast_2d(payload.T).T)
            solved = model.factorization().solve(
                payload if payload.ndim == 2 else payload[:, None]
            )
            if kind == "predict":
                return model.operator.matmat(solved)
            return solved

        for round_index in range(3):
            k = int(rng.integers(5, 14))
            payloads = []
            for _ in range(k):
                width = int(rng.integers(0, 3))  # 0 → vector, else (N, width)
                if width == 0:
                    payloads.append(rng.standard_normal(N))
                else:
                    payloads.append(rng.standard_normal((N, width)))
            delays = rng.uniform(0.0, 0.004, size=k)
            batcher = MicroBatcher(max_batch=64)

            async def client(payload, delay):
                await asyncio.sleep(delay)
                return await batcher.submit(model, kind, payload)

            async def main():
                return await asyncio.gather(
                    *[client(p, d) for p, d in zip(payloads, delays)]
                )

            results = run(main())
            for (value, _batch_size, _), payload in zip(results, payloads):
                expected = reference(payload)
                if payload.ndim == 1:
                    expected = expected[:, 0]
                assert value.shape == payload.shape
                np.testing.assert_allclose(value, expected, atol=1e-9)
            batcher.close()

    def test_error_isolation_nonfinite_member_fails_alone(self, serve_operator):
        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        batcher = MicroBatcher(max_batch=64)
        rng = np.random.default_rng(7)
        good = [rng.standard_normal(N) for _ in range(5)]
        poisoned = rng.standard_normal(N)
        poisoned[3] = np.nan

        async def main():
            return await asyncio.gather(
                *[batcher.submit(model, "solve", p) for p in good],
                batcher.submit(model, "solve", poisoned),
                return_exceptions=True,
            )

        results = run(main())
        *good_results, bad = results
        assert isinstance(bad, RequestValidationError)
        for (x, batch_size, _), p in zip(good_results, good):
            assert batch_size == 5  # the poisoned member never joined
            np.testing.assert_allclose(
                x, model.factorization().solve(p), atol=1e-10
            )
        batcher.close()

    def test_error_isolation_failing_launch_retries_individually(
        self, serve_operator, monkeypatch
    ):
        """A launch-level failure falls back to per-request execution, so the
        batchmates of a poisoned request still get their answers."""
        registry = ModelRegistry()
        model = registry.register("m", serve_operator, noise=NOISE)
        batcher = MicroBatcher(max_batch=64)
        rng = np.random.default_rng(8)
        payloads = [rng.standard_normal(N) for _ in range(4)]
        real_matmat = type(serve_operator).matmat

        def flaky_matmat(self, block, *args, **kwargs):
            if block.ndim == 2 and block.shape[1] > 1:
                raise RuntimeError("injected batch-level fault")
            return real_matmat(self, block, *args, **kwargs)

        monkeypatch.setattr(type(serve_operator), "matmat", flaky_matmat)

        async def main():
            return await asyncio.gather(
                *[batcher.submit(model, "matvec", p) for p in payloads]
            )

        results = run(main())
        assert batcher.metrics.counter("serve.batch.fallbacks").value == 1
        monkeypatch.undo()
        for (y, batch_size, _), p in zip(results, payloads):
            assert batch_size == 1  # answered by the individual retry
            np.testing.assert_allclose(y, serve_operator.matvec(p), atol=1e-11)
        batcher.close()


class TestStrongModel:
    """A strong-admissibility model answers ``solve`` and ``logdet``: its
    factorization is the HSS factorization of its re-compression onto the
    weak partition."""

    N = 1024

    def test_strong_model_solves_and_logdets(self):
        points = uniform_cube_points(self.N, dim=2, seed=13)
        kernel = ExponentialKernel(0.2)
        operator = repro.compress(
            points, kernel, format="h2", tol=1e-6, leaf_size=32, seed=5
        )
        assert operator.weak_partition_defect() is not None
        server = InferenceServer()
        server.register("strong", operator, noise=NOISE)
        model = server.registry.get("strong")
        assert isinstance(model.factorization(), repro.HSSFactorization)

        dense = kernel.evaluate(points, points) + NOISE * np.eye(self.N)
        b = np.random.default_rng(14).standard_normal(self.N)
        response = run(server.handle(SolveRequest(model="strong", b=b, tol=1e-9)))
        assert response.converged and response.method == "direct"
        residual = np.linalg.norm(dense @ response.x - b) / np.linalg.norm(b)
        assert residual < 1e-3
        # The factorization is of a re-compression: the answer is polished
        # against the operator, and the residual served is the one measured.
        x = response.x
        measured = np.linalg.norm(b - operator.matvec(x) - NOISE * x) / np.linalg.norm(b)
        assert response.final_residual == pytest.approx(measured, rel=1e-6)
        assert response.final_residual <= 1e-9
        y = np.random.default_rng(15).standard_normal(self.N)
        predict = run(server.handle(PredictRequest(model="strong", y=y)))
        k_h2 = operator.to_dense()
        expected = k_h2 @ np.linalg.solve(k_h2 + NOISE * np.eye(self.N), y)
        error = np.linalg.norm(predict.mean - expected) / np.linalg.norm(expected)
        assert error <= 1e-8

        logdet = run(server.handle(LogdetRequest(model="strong")))
        ref_sign, ref_logdet = np.linalg.slogdet(dense)
        assert logdet.sign == ref_sign == 1.0
        assert logdet.logdet == pytest.approx(ref_logdet, rel=1e-6)
        run(server.aclose())

    def test_coalesced_solves_polish_to_their_own_tol(self):
        """Two requests sharing one launch are each polished to their own
        ``tol``: the loose one is not held to the strict one's."""
        points = uniform_cube_points(self.N, dim=2, seed=13)
        operator = repro.compress(
            points, ExponentialKernel(0.2), format="h2", tol=1e-6,
            leaf_size=32, seed=5,
        )
        server = InferenceServer()
        server.register("strong", operator, noise=NOISE)
        rhs = np.random.default_rng(16).standard_normal((2, self.N))
        tols = (1e-5, 1e-10)

        async def main():
            return await asyncio.gather(*[
                server.handle(SolveRequest(model="strong", b=b, tol=tol))
                for b, tol in zip(rhs, tols)
            ])

        responses = run(main())
        run(server.aclose())
        for response, b, tol in zip(responses, rhs, tols):
            assert response.batch_size == 2 and response.converged
            x = response.x
            measured = np.linalg.norm(b - operator.matvec(x) - NOISE * x)
            assert response.final_residual == pytest.approx(
                measured / np.linalg.norm(b), rel=1e-6
            )
            assert response.final_residual <= tol
        assert responses[0].final_residual > tols[1]


# --------------------------------------------------------------------- server
class TestInferenceServer:
    def test_solve_direct_matches_factorization(self, serve_operator):
        server = make_server(serve_operator)
        b = np.linspace(-1.0, 1.0, N)
        response = run(server.handle(SolveRequest(model="m", b=b)))
        model = server.registry.get("m")
        np.testing.assert_allclose(
            response.x, model.factorization().solve(b), atol=1e-12
        )
        assert response.converged and response.method == "direct"
        assert response.latency_ms > 0.0
        assert response.model == "m" and response.request_id
        run(server.aclose())

    def test_aclose_answers_every_admitted_request(
        self, serve_operator, monkeypatch
    ):
        """Shutdown strands no admitted request: aclose() awaits the launches
        in flight, including one for a model the registry has since
        replaced under the same name."""
        server = make_server(serve_operator)
        old = server.registry.get("m")
        rng = np.random.default_rng(12)
        payloads = [rng.standard_normal(N) for _ in range(4)]
        entered, gate = gate_matmat(monkeypatch, serve_operator)

        async def main():
            admitted = [
                asyncio.ensure_future(server.batcher.submit(old, "matvec", p))
                for p in payloads[:3]
            ]
            await until(lambda: len(entered) == 1)
            new = server.register("m", serve_operator, noise=NOISE)
            admitted.append(asyncio.ensure_future(
                server.batcher.submit(new, "matvec", payloads[3])
            ))
            await until(lambda: len(entered) == 2)  # both launches in flight
            closing = asyncio.ensure_future(server.aclose())
            await asyncio.sleep(0)  # aclose() is draining
            gate.set()
            await closing
            return admitted

        admitted = run(main())
        monkeypatch.undo()
        assert entered == [3, 1]
        for future, p in zip(admitted, payloads):
            assert future.done() and not future.cancelled()
            y, _, _ = future.result()
            np.testing.assert_allclose(y, serve_operator.matvec(p), atol=1e-11)

    def test_solve_cg_matches_direct(self, serve_operator):
        server = make_server(serve_operator)
        b = np.sin(np.arange(N) / 7.0)
        direct = run(server.handle(SolveRequest(model="m", b=b)))
        cg = run(server.handle(SolveRequest(model="m", b=b, method="cg",
                                            tol=1e-12)))
        assert cg.converged and cg.iterations >= 1
        np.testing.assert_allclose(cg.x, direct.x, atol=1e-8)
        run(server.aclose())

    def test_predict_is_posterior_mean(self, serve_operator, dense_matrix):
        server = make_server(serve_operator)
        y = np.cos(np.arange(N) / 5.0)
        response = run(server.handle(PredictRequest(model="m", y=y)))
        expected = dense_matrix @ np.linalg.solve(
            dense_matrix + NOISE * np.eye(N), y
        )
        np.testing.assert_allclose(response.mean, expected, atol=1e-5)
        run(server.aclose())

    def test_logdet_matches_numpy(self, serve_operator, dense_matrix):
        server = make_server(serve_operator)
        response = run(server.handle(LogdetRequest(model="m")))
        _, ref = np.linalg.slogdet(dense_matrix + NOISE * np.eye(N))
        assert response.sign == 1.0
        assert response.logdet == pytest.approx(ref, rel=1e-5)
        run(server.aclose())

    def test_unknown_model_counts_an_error(self, serve_operator):
        server = make_server(serve_operator)

        async def main():
            with pytest.raises(ModelNotFoundError):
                await server.handle(SolveRequest(model="ghost", b=np.ones(N)))

        run(main())
        registry = server.batcher.metrics
        assert registry.counter("serve.errors").value == 1
        assert registry.counter("serve.errors.solve").value == 1
        run(server.aclose())

    def test_concurrent_solves_batch_and_match_unbatched(self, serve_operator):
        batched = make_server(serve_operator, max_batch=64)
        unbatched = make_server(serve_operator, batching=False)
        rng = np.random.default_rng(3)
        payloads = [rng.standard_normal(N) for _ in range(16)]

        async def fire(server):
            return await asyncio.gather(
                *[server.handle(SolveRequest(model="m", b=b)) for b in payloads]
            )

        batched_responses = run(fire(batched))
        unbatched_responses = run(fire(unbatched))
        assert any(r.batched for r in batched_responses)
        assert max(r.batch_size for r in batched_responses) > 1
        assert all(r.batch_size == 1 for r in unbatched_responses)
        for rb, ru in zip(batched_responses, unbatched_responses):
            np.testing.assert_allclose(rb.x, ru.x, atol=1e-9)
        run(batched.aclose())
        run(unbatched.aclose())

    def test_health_endpoint(self, serve_operator):
        server = make_server(serve_operator)
        response = run(server.health())
        assert response.status == "ok"
        assert response.uptime_seconds >= 0.0
        assert "m" in response.models
        assert response.models["m"]["n"] == N

        async def missing():
            with pytest.raises(ModelNotFoundError):
                await server.health(HealthRequest(model="ghost"))

        run(missing())
        run(server.aclose())

    def test_metrics_endpoint_scrapes_serving_telemetry(self, serve_operator):
        server = make_server(serve_operator)

        async def main():
            await server.handle(SolveRequest(model="m", b=np.ones(N)))
            return await server.metrics()

        response = run(main())
        text = response.text
        assert text.rstrip().endswith("# EOF")
        assert "repro_serve_solve_latency_ms" in text
        assert 'quantile="0.99"' in text
        assert "repro_serve_requests_solve_total 1\n" in text
        assert "repro_serve_batch_launches_total 1\n" in text
        assert "openmetrics" in response.content_type
        run(server.aclose())

    def test_metrics_scrape_reads_the_registry_and_its_cache(
        self, serve_operator, serve_points, serve_kernel, tmp_path
    ):
        """Model count, bytes and evictions come from the ModelRegistry, and
        cache hits and misses from its ArtifactCache, at scrape time."""
        cache = repro.ArtifactCache(tmp_path)
        server = InferenceServer(ModelRegistry(cache=cache, max_models=1))
        for name in ("a", "b"):  # a miss, then a hit that evicts "a"
            server.register(name, points=serve_points, kernel=serve_kernel,
                            tol=TOL, leaf_size=32, seed=5)
        assert (cache.hits, cache.misses, server.registry.evictions) == (1, 1, 1)
        model_bytes = server.registry.get("b").memory_bytes()

        async def scrape():
            return (await server.metrics()).text

        first = run(scrape())
        for line in ("repro_serve_models_loaded 1",
                     f"repro_serve_models_bytes {model_bytes}",
                     "repro_serve_models_evicted_total 1",
                     "repro_persist_cache_hits_total 1",
                     "repro_persist_cache_misses_total 1"):
            assert line + "\n" in first
        server.registry.evict("b")
        second = run(scrape())
        assert "repro_serve_models_loaded 0\n" in second
        assert "repro_serve_models_evicted_total 2\n" in second
        assert "repro_persist_cache_hits_total 1\n" in second
        run(server.aclose())

    @pytest.mark.parametrize("path", ["evict", "ttl", "max_models", "max_bytes"])
    def test_each_eviction_is_counted_once_and_scraped(self, serve_operator, path):
        limits = {"ttl": dict(ttl_seconds=60.0), "max_models": dict(max_models=1),
                  "max_bytes": dict(max_bytes=1)}.get(path, {})
        server = InferenceServer(ModelRegistry(**limits))
        first = server.register("a", serve_operator)
        if path == "evict":
            assert server.registry.evict("a")
        elif path == "ttl":
            first.last_used -= 120.0  # idle past the TTL
        server.register("b", serve_operator)  # sweeps the budgets
        assert server.registry.names() == ["b"]
        assert server.registry.evictions == 1
        text = run(server.metrics()).text
        assert "repro_serve_models_evicted_total 1\n" in text
        assert "repro_serve_models_loaded 1\n" in text
        run(server.aclose())

    @pytest.mark.parametrize("batching", [True, False])
    def test_two_servers_share_no_count(self, serve_points, serve_kernel, batching):
        """Two servers in one process, each with its own policy and tracer,
        serve matvec and solve requests concurrently: each one's /metrics
        text and tracer hold its own requests only."""
        servers, tracers = [], []
        for _ in range(2):
            tracer = SpanTracer()
            policy = ExecutionPolicy(tracer=tracer)
            server = InferenceServer(policy=policy, batching=batching)
            server.register("m", points=serve_points, kernel=serve_kernel,
                            tol=TOL, leaf_size=32, seed=5, noise=NOISE)
            servers.append(server)
            tracers.append(tracer)
        plan = {0: (3, 1), 1: (5, 2)}  # server -> (matvecs, solves)
        rng = np.random.default_rng(12)

        async def traffic(index):
            server = servers[index]
            matvecs, solves = plan[index]
            requests = (
                [MatvecRequest(model="m", x=rng.standard_normal(N))
                 for _ in range(matvecs)]
                + [SolveRequest(model="m", b=rng.standard_normal(N))
                   for _ in range(solves)]
            )
            await asyncio.gather(*[server.handle(r) for r in requests])
            return (await server.metrics()).text

        async def main():
            return await asyncio.gather(traffic(0), traffic(1))

        texts = run(main())
        for index, text in enumerate(texts):
            matvecs, solves = plan[index]
            assert f"repro_serve_requests_matvec_total {matvecs}\n" in text
            assert f"repro_serve_requests_solve_total {solves}\n" in text
            # The scrape is a request too, counted before it renders.
            assert f"repro_serve_requests_total {matvecs + solves + 1}\n" in text
            assert f"repro_serve_matvec_latency_ms_count {matvecs}\n" in text
            assert f"repro_serve_batch_requests_sum {matvecs + solves}\n" in text
            spans = find_spans(tracers[index], name="serve.request")
            endpoints = sorted(span.attributes["endpoint"] for span in spans)
            assert endpoints == sorted(
                ["matvec"] * matvecs + ["solve"] * solves + ["metrics"]
            )
            batches = find_spans(tracers[index], name="serve.batch")
            assert sum(span.attributes["requests"] for span in batches) == (
                matvecs + solves if batching else 0
            )
        for server in servers:
            run(server.aclose())

    def test_request_spans_are_recorded(self, serve_operator):
        tracer = SpanTracer()
        policy = ExecutionPolicy(tracer=tracer)
        server = InferenceServer(policy=policy)
        server.registry.register("m", serve_operator, noise=NOISE,
                                 policy=policy)

        async def main():
            await asyncio.gather(
                *[server.handle(SolveRequest(model="m",
                                             b=np.full(N, float(i + 1))))
                  for i in range(4)]
            )

        run(main())
        names = set()

        def walk(span):
            names.add(span.name)
            for child in span.children:
                walk(child)

        for root in tracer.roots:
            walk(root)
        assert "serve.request" in names
        assert "serve.batch" in names
        run(server.aclose())

    def test_spans_nest_per_request_and_per_worker(self, serve_operator, tmp_path):
        """Concurrent requests each open their own ``serve.request`` span, and
        the ``apply`` a pool worker runs nests under its ``serve.batch``."""
        path = tmp_path / "m.repro"
        repro.save_operator(serve_operator, path)
        tracer = SpanTracer()
        server = InferenceServer(policy=ExecutionPolicy(tracer=tracer))
        server.register("m", path=path, noise=NOISE)
        rng = np.random.default_rng(4)

        async def main():
            await asyncio.gather(*[
                server.handle(MatvecRequest(model="m", x=rng.standard_normal(N)))
                for _ in range(16)
            ])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run(main())
        finally:
            sys.setswitchinterval(interval)
            run(server.aclose())

        def ancestors(span):
            while span.parent is not None:
                span = span.parent
                yield span.name

        spans = [span for root in tracer.roots for span in root.walk()]
        requests = [span for span in spans if span.name == "serve.request"]
        applies = [span for span in spans if span.name == "apply"]
        assert len(requests) == 16
        assert not any("serve.request" in ancestors(span) for span in requests)
        assert applies
        assert all("serve.batch" in ancestors(span) for span in applies)

    def test_batches_are_roots_carrying_their_request_ids(self, serve_operator,
                                                          tmp_path):
        """Each coalesced launch is a root ``serve.batch`` span naming the
        requests it carried, and the root spans count every launch once."""
        path = tmp_path / "m.repro"
        repro.save_operator(serve_operator, path)
        tracer = SpanTracer()
        policy = ExecutionPolicy(tracer=tracer)
        server = InferenceServer(policy=policy, max_batch=8)
        server.register("m", path=path, noise=NOISE)
        counter = policy.launch_counter()
        rng = np.random.default_rng(5)
        requests = [
            MatvecRequest(model="m", x=rng.standard_normal(N)) for _ in range(64)
        ]
        before = counter.total()

        async def main():
            await asyncio.gather(*[server.handle(request) for request in requests])

        try:
            run(main())
        finally:
            run(server.aclose())
        batches = find_spans(tracer, name="serve.batch")
        assert len(batches) >= 64 // 8
        assert all(span.parent is None for span in batches)
        carried = [rid for span in batches for rid in span.attributes["request_ids"]]
        assert sorted(carried) == sorted(request.request_id for request in requests)
        assert sum(root.total_launches for root in tracer.roots) == (
            counter.total() - before
        )

    def test_strict_recovery_raises_on_unconverged_cg(self, serve_operator):
        from repro import SolveDidNotConvergeError

        server = make_server(
            serve_operator, policy=ExecutionPolicy(recovery="strict")
        )

        async def main():
            with pytest.raises(SolveDidNotConvergeError):
                await server.handle(SolveRequest(
                    model="m", b=np.ones(N), method="cg", tol=1e-14, maxiter=0,
                ))

        run(main())
        run(server.aclose())

    def test_recover_mode_escalates_unconverged_cg(self, serve_operator):
        server = make_server(
            serve_operator, policy=ExecutionPolicy(recovery="recover")
        )
        b = np.ones(N)
        response = run(server.handle(SolveRequest(
            model="m", b=b, method="cg", tol=1e-10, maxiter=0,
        )))
        assert response.converged
        model = server.registry.get("m")
        np.testing.assert_allclose(
            response.x, model.factorization().solve(b), atol=1e-8
        )
        run(server.aclose())

    def test_statistics(self, serve_operator):
        server = make_server(serve_operator)
        run(server.handle(MatvecRequest(model="m", x=np.ones(N))))
        stats = server.statistics()
        assert stats["batching"]["launches"] == 1
        assert stats["registry"]["count"] == 1
        run(server.aclose())


# ------------------------------------------------------------------ wire codec
class TestWireCodec:
    def test_round_trip_solve(self):
        request = request_from_wire(
            "solve", {"model": "m", "b": [1.0, 2.0], "method": "cg",
                      "tol": 1e-8, "request_id": "abc"}
        )
        assert request.model == "m" and request.method == "cg"
        assert request.tol == 1e-8 and request.request_id == "abc"
        np.testing.assert_array_equal(request.b, [1.0, 2.0])

    def test_validation_errors(self):
        with pytest.raises(RequestValidationError):
            request_from_wire("nope", {})
        with pytest.raises(RequestValidationError):
            request_from_wire("solve", {"model": "m"})  # missing b
        with pytest.raises(RequestValidationError):
            request_from_wire("solve", {"model": "m", "b": "strings"})
        with pytest.raises(RequestValidationError):
            request_from_wire("solve", {"model": "m", "b": [1.0],
                                        "method": "magic"})
        with pytest.raises(RequestValidationError):
            request_from_wire("matvec", {"model": 3, "x": [1.0]})
        for bad in ({"tol": None}, {"tol": -1}, {"maxiter": [3]}, {"maxiter": 0}):
            with pytest.raises(RequestValidationError):
                request_from_wire("solve", {"model": "m", "b": [1.0], **bad})

    def test_tol_and_maxiter_bounds(self):
        """The smallest valid values pass; a JSON boolean is not a number."""
        request = request_from_wire(
            "solve", {"model": "m", "b": [1.0], "tol": 1, "maxiter": 1}
        )
        assert request.tol == 1.0 and isinstance(request.tol, float)
        assert request.maxiter == 1
        for bad in ({"tol": True}, {"tol": float("inf")}, {"maxiter": 2.0}):
            with pytest.raises(RequestValidationError):
                request_from_wire("solve", {"model": "m", "b": [1.0], **bad})

    def test_response_to_wire_serializes_arrays(self):
        from repro.serve import SolveResponse

        wire = response_to_wire(SolveResponse(
            model="m", request_id="r", x=np.array([1.0, 2.0]), iterations=3,
        ))
        assert wire["x"] == [1.0, 2.0]
        assert wire["iterations"] == 3
        assert wire["endpoint"] == "solve"


# ----------------------------------------------------------------------- http
class TestHttpAdapter:
    @staticmethod
    async def _request(port, method, path, payload=None):
        import json

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        header, _, content = raw.partition(b"\r\n\r\n")
        status = int(header.split(None, 2)[1])
        return status, content

    def test_solve_round_trip(self, serve_operator):
        import json

        server = make_server(serve_operator)

        async def main():
            http = await serve_http(server)
            b = np.linspace(0.0, 1.0, N)
            status, content = await self._request(
                http.port, "POST", "/v1/solve", {"model": "m", "b": b.tolist()}
            )
            await http.aclose()
            await server.aclose()
            return status, json.loads(content), b

        status, data, b = run(main())
        assert status == 200
        model = server.registry.get("m")
        np.testing.assert_allclose(
            np.asarray(data["x"]), model.factorization().solve(b), atol=1e-10
        )

    def test_health_metrics_and_errors(self, serve_operator):
        import json

        server = make_server(serve_operator)

        async def main():
            http = await serve_http(server)
            port = http.port
            results = {}
            results["health"] = await self._request(port, "GET", "/v1/health")
            results["metrics"] = await self._request(port, "GET", "/metrics")
            results["missing_model"] = await self._request(
                port, "POST", "/v1/solve", {"model": "ghost", "b": [1.0]}
            )
            results["bad_shape"] = await self._request(
                port, "POST", "/v1/solve", {"model": "m", "b": [1.0, 2.0]}
            )
            results["no_route"] = await self._request(port, "GET", "/nope")
            results["wrong_method"] = await self._request(
                port, "GET", "/v1/solve"
            )
            await http.aclose()
            await server.aclose()
            return results

        results = run(main())
        status, content = results["health"]
        assert status == 200
        assert json.loads(content)["status"] == "ok"
        status, content = results["metrics"]
        assert status == 200
        assert content.decode().rstrip().endswith("# EOF")
        assert results["missing_model"][0] == 404
        assert results["bad_shape"][0] == 400
        assert results["no_route"][0] == 404
        assert results["wrong_method"][0] == 405

    @pytest.mark.parametrize(
        "raw, status",
        [
            pytest.param(
                "POST /v1/solve HTTP/1.1\r\nContent-Length: "
                f"{MAX_BODY_BYTES + 1}\r\n\r\n",
                413, id="oversized",
            ),
            pytest.param("GARBAGE\r\n\r\n", 400, id="bad_request_line"),
            pytest.param(
                "POST /v1/solve HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                400, id="non_integer_length",
            ),
            pytest.param(
                "POST /v1/solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                400, id="negative_length",
            ),
        ],
    )
    def test_unframeable_request_gets_its_error(
        self, serve_operator, caplog, raw, status
    ):
        """A request the adapter cannot frame gets its 400/413 with a JSON
        error and ``Connection: close``; the oversized body is never read,
        nothing reaches asyncio's unhandled-exception log, and the adapter
        keeps serving new connections."""
        import json
        import logging

        server = make_server(serve_operator)

        async def main():
            http = await serve_http(server)
            reader, writer = await asyncio.open_connection("127.0.0.1", http.port)
            writer.write(raw.encode())
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            after = await self._request(http.port, "GET", "/v1/health")
            await http.aclose()
            await server.aclose()
            return reply, after

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            reply, after = run(main())
        head, _, content = reply.partition(b"\r\n\r\n")
        assert int(head.split(None, 2)[1]) == status
        assert b"Connection: close" in head
        assert json.loads(content)["error"]
        assert not [r for r in caplog.records if r.name == "asyncio"]
        assert after[0] == 200


# ------------------------------------------------------- end-to-end launch count
@pytest.mark.slow
def test_micro_batched_throughput_beats_unbatched(serve_operator):
    """The serving gate, pinned on what a micro-batching throughput gain
    stands for: three gathered waves of 32 solves take one launch per wave
    batched and one per request unbatched, with the same answers.  The
    measured throughputs are the benchmark's ``serve_rps`` against
    ``serve.unbatched_rps`` (traced run of ``benchmarks/e2e/run.py``)."""
    rng = np.random.default_rng(0)
    payloads = [rng.standard_normal(N) for _ in range(32)]

    def waves(batching: bool):
        server = make_server(serve_operator, batching=batching, max_batch=64)

        async def fire():
            return await asyncio.gather(
                *[server.handle(SolveRequest(model="m", b=b))
                  for b in payloads]
            )

        answers = [run(fire()) for _ in range(3)]
        run(server.aclose())
        return server.batcher.launches, answers

    unbatched_launches, unbatched = waves(False)
    batched_launches, batched = waves(True)
    assert (batched_launches, unbatched_launches) == (3, 96)
    for wave_batched, wave_unbatched in zip(batched, unbatched):
        for rb, ru in zip(wave_batched, wave_unbatched):
            assert np.linalg.norm(rb.x - ru.x) <= 1e-10 * np.linalg.norm(ru.x)
