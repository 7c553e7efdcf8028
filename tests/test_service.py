"""The evaluation service: protocol, admission, pool recovery, HTTP surface.

Everything except the two :class:`WorkerPool` process tests runs with an
injected ``run_job`` stub, so coalescing, shedding, caching, draining, and
the wire protocol are exercised deterministically — gated by asyncio
events, never by sleeps.  The pool tests use real spawned processes with a
worker that kills itself exactly once (a deterministic stand-in for an OOM
kill), so recovery is asserted without racing a signal against a running
job.
"""

import asyncio
import dataclasses
import os
import signal

import pytest

from repro.eval.cache import ResultCache
from repro.eval.parallel import _execute_job, build_predictor, job_cache_key
from repro.fuzz.generate import TopologyFactory
from repro.service import (
    EvalService,
    JobSpec,
    JobTable,
    LatencyHistogram,
    ProtocolError,
    QueueFull,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceDraining,
    ServiceMetrics,
    WorkerPool,
    WorkerPoolBroken,
    parse_job_spec,
    parse_jobs_body,
)
from repro.service.server import MAX_BODY_BYTES

SPEC = {
    "predictor": "b2",
    "workload": "biased",
    "backend": "trace",
    "scale": 0.2,
    "max_instructions": 2000,
}


@pytest.fixture(scope="module")
def run_result():
    """One real RunResult (tiny trace-backend run) for the stub runners."""
    return _execute_job(parse_job_spec(SPEC).prepare().eval_job)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_minimal_spec_gets_defaults(self):
        spec = parse_job_spec({"predictor": "b2", "workload": "biased"})
        assert spec == JobSpec(predictor="b2", workload="biased")
        assert spec.backend == "cycle" and spec.scale == 0.5

    def test_missing_and_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="missing required"):
            parse_job_spec({"predictor": "b2"})
        with pytest.raises(ProtocolError, match="unknown job spec field"):
            parse_job_spec({**SPEC, "workers": 4})

    def test_type_and_bound_validation(self):
        with pytest.raises(ProtocolError, match="must be int"):
            parse_job_spec({**SPEC, "max_instructions": "many"})
        with pytest.raises(ProtocolError, match="must be positive"):
            parse_job_spec({**SPEC, "max_instructions": 0})
        with pytest.raises(ProtocolError, match="'scale' must be positive"):
            parse_job_spec({**SPEC, "scale": -1.0})
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            parse_job_spec(["b2"])

    def test_batch_body(self):
        specs = parse_jobs_body({"jobs": [SPEC, SPEC]})
        assert len(specs) == 2 and specs[0] == specs[1]
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_jobs_body({"jobs": []})
        with pytest.raises(ProtocolError, match="unknown batch field"):
            parse_jobs_body({"jobs": [SPEC], "priority": 9})

    def test_prepare_rejects_unsatisfiable_specs(self):
        with pytest.raises(ProtocolError, match="unknown backend"):
            parse_job_spec({**SPEC, "backend": "gpu"}).prepare()
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_job_spec({**SPEC, "workload": "nonesuch"}).prepare()
        with pytest.raises(ProtocolError, match="unparsable topology"):
            parse_job_spec({**SPEC, "predictor": "no such ^ thing"}).prepare()
        with pytest.raises(ProtocolError, match="stored trace not found"):
            parse_job_spec({**SPEC, "workload": "missing.npz"}).prepare()

    def test_equal_specs_share_one_cache_key(self):
        explicit = parse_job_spec(dict(SPEC))
        defaulted = parse_job_spec(
            {k: SPEC[k] for k in ("predictor", "workload", "backend",
                                  "scale", "max_instructions")}
        )
        assert explicit.normalized() == defaulted.normalized()
        assert explicit.prepare().cache_key == defaulted.prepare().cache_key

    def test_topology_string_prepares_and_pickles(self):
        import pickle

        prepared = parse_job_spec({**SPEC, "predictor": "BIM1"}).prepare()
        clone = pickle.loads(pickle.dumps(prepared.eval_job))
        assert build_predictor(clone.spec).describe() == "BIM1"

    def test_topology_cache_key_matches_factory_job(self):
        """A raw-topology job keys like the same job with a factory spec,
        so switching the spec's type leaves warm cache entries valid."""
        topology = "GTAG3 > BTB2 > BIM2"
        prepared = parse_job_spec({**SPEC, "predictor": topology}).prepare()
        factory_job = dataclasses.replace(
            prepared.eval_job, spec=TopologyFactory(topology)
        )
        assert prepared.eval_job.spec == topology
        assert prepared.cache_key == job_cache_key(factory_job)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_summary(self):
        h = LatencyHistogram()
        assert h.quantile(0.5) is None
        for ms in (1, 1, 2, 100):
            h.record(ms / 1000.0)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["max_ms"] == pytest.approx(100.0)
        assert snap["p50_ms"] <= snap["p99_ms"] <= snap["max_ms"]
        assert sum(snap["buckets"].values()) == 4

    def test_snapshot_mirrors_counters(self):
        metrics = ServiceMetrics()
        metrics.cache_hits += 3
        metrics.cache_misses += 1
        metrics.record_latency("trace", 0.25)
        snap = metrics.snapshot()
        assert snap["cache_hits"] == 3
        assert snap["cache_hit_rate"] == pytest.approx(0.75)
        assert snap["latency_by_backend"]["trace"]["count"] == 1


# ----------------------------------------------------------------------
# JobTable admission (stub runner, gated by events, no sleeps)
# ----------------------------------------------------------------------
def _gated_runner(gate, result):
    async def run(eval_job):
        await gate.wait()
        return result

    return run


class TestJobTable:
    def test_duplicates_coalesce_to_one_execution(self, tmp_path, run_result):
        async def main():
            gate = asyncio.Event()
            cache = ResultCache(tmp_path / "cache")
            table = JobTable(cache=cache, run_job=_gated_runner(gate, run_result))
            table.start(dispatchers=2)
            spec = parse_job_spec(SPEC)
            leader = table.submit(spec)
            followers = [table.submit(spec) for _ in range(3)]
            assert all(f.coalesced for f in followers)
            assert table.metrics.dedup_coalesced == 3
            assert table.backlog == 1  # followers consume no queue slot
            gate.set()
            await followers[-1].done.wait()
            assert table.metrics.executions == 1
            assert {j.state for j in (leader, *followers)} == {"done"}
            assert all(j.result is run_result for j in (leader, *followers))

            # The execution warmed the cache: a fresh submission of the
            # same spec completes synchronously without a worker.
            warm = table.submit(spec)
            assert warm.cache_hit and warm.done.is_set()
            assert table.metrics.cache_hits == 1
            assert table.metrics.executions == 1
            await table.drain()

        asyncio.run(main())

    def test_high_water_sheds_but_never_sheds_followers(self, run_result):
        async def main():
            gate = asyncio.Event()
            table = JobTable(
                run_job=_gated_runner(gate, run_result), high_water=1
            )
            table.start(dispatchers=1)
            spec_a = parse_job_spec(SPEC)
            spec_b = parse_job_spec({**SPEC, "max_instructions": 1000})
            table.submit(spec_a)
            with pytest.raises(QueueFull) as excinfo:
                table.submit(spec_b)
            assert excinfo.value.retry_after >= 1.0
            assert table.metrics.jobs_shed == 1
            # An identical duplicate still coalesces at the high-water mark.
            follower = table.submit(spec_a)
            assert follower.coalesced
            gate.set()
            await follower.done.wait()
            # Capacity freed: the previously shed spec is admitted now.
            assert table.submit(spec_b) is not None
            await table.drain()

        asyncio.run(main())

    def test_failures_propagate_to_followers(self):
        async def main():
            async def boom(eval_job):
                raise ValueError("synthetic backend failure")

            table = JobTable(run_job=boom)
            table.start(dispatchers=1)
            spec = parse_job_spec(SPEC)
            leader = table.submit(spec)
            follower = table.submit(spec)
            await follower.done.wait()
            assert leader.state == follower.state == "failed"
            assert "synthetic backend failure" in follower.error
            assert table.metrics.jobs_failed == 2
            await table.drain()

        asyncio.run(main())

    def test_drain_finishes_backlog_then_rejects(self, run_result):
        async def main():
            gate = asyncio.Event()
            table = JobTable(run_job=_gated_runner(gate, run_result))
            table.start(dispatchers=1)
            job = table.submit(parse_job_spec(SPEC))
            drainer = asyncio.create_task(table.drain())
            await asyncio.sleep(0)  # let the drainer sample the backlog
            gate.set()
            assert await drainer == 1
            assert job.state == "done"
            with pytest.raises(ServiceDraining):
                table.submit(parse_job_spec(SPEC))

        asyncio.run(main())

    def test_completed_history_is_bounded(self, run_result):
        async def main():
            async def instant(eval_job):
                return run_result

            table = JobTable(run_job=instant, max_jobs=4)
            table.start(dispatchers=1)
            jobs = []
            for bound in range(100, 110):
                job = table.submit(
                    parse_job_spec({**SPEC, "max_instructions": bound})
                )
                await job.done.wait()
                jobs.append(job)
            assert len(table._jobs) <= 4
            assert table.get(jobs[0].id) is None  # oldest evicted
            assert table.get(jobs[-1].id) is jobs[-1]
            await table.drain()

        asyncio.run(main())


# ----------------------------------------------------------------------
# WorkerPool recovery (real spawned processes)
# ----------------------------------------------------------------------
def _die_once_then_answer(flag_path):
    """First execution SIGKILLs its own worker; the retry answers."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("died\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return 42


def _always_die():
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerPool:
    def test_job_survives_worker_death(self, tmp_path):
        async def main():
            metrics = ServiceMetrics()
            pool = WorkerPool(workers=1, max_retries=2, metrics=metrics)
            try:
                flag = str(tmp_path / "died.flag")
                assert await pool.run(_die_once_then_answer, flag) == 42
                assert metrics.worker_restarts == 1
                assert metrics.worker_retries == 1
                assert pool.generation == 1
            finally:
                pool.shutdown()

        asyncio.run(main())

    def test_retry_budget_exhaustion_raises(self):
        async def main():
            pool = WorkerPool(workers=1, max_retries=0)
            try:
                with pytest.raises(WorkerPoolBroken):
                    await pool.run(_always_die)
            finally:
                pool.shutdown()

        asyncio.run(main())


# ----------------------------------------------------------------------
# HTTP surface (real sockets, stub runner)
# ----------------------------------------------------------------------
async def _start_service(run_job, **config_kwargs):
    service = EvalService(
        ServiceConfig(port=0, quiet=True, **config_kwargs), run_job=run_job
    )
    serve_task = asyncio.create_task(service.serve())
    while service._server is None:
        await asyncio.sleep(0)
    port = service._server.sockets[0].getsockname()[1]
    return service, serve_task, ServiceClient(port=port, timeout=30.0)


class TestHttpServer:
    def test_submit_roundtrip_and_introspection(self, tmp_path, run_result):
        async def main():
            async def instant(eval_job):
                return run_result

            service, serve_task, client = await _start_service(
                instant, cache_dir=str(tmp_path / "cache")
            )
            view = await client.submit(SPEC)
            final = await client.wait_job(view["id"])
            assert final["state"] == "done"
            assert final["result"]["instructions"] > 0
            assert final["result"]["backend"] == "trace"
            assert 0.0 <= final["result"]["branch_accuracy"] <= 1.0

            # Resubmission is a warm hit: terminal in the POST response.
            warm = await client.submit(SPEC)
            assert warm["state"] == "done" and warm["cache_hit"]

            health = await client.healthz()
            assert health["status"] == "ok" and health["backlog"] == 0
            metrics = await client.metrics()
            assert metrics["cache_hits"] == 1
            assert metrics["executions"] == 1
            assert metrics["cache"]["entries"] == 1
            assert metrics["cache_hit_latency"]["count"] == 1

            service.request_shutdown()
            assert await serve_task == 0

        asyncio.run(main())

    def test_duplicate_batch_coalesces_over_http(self, run_result):
        async def main():
            gate = asyncio.Event()
            service, serve_task, client = await _start_service(
                _gated_runner(gate, run_result)
            )
            batch = await client.submit_batch([SPEC, SPEC, SPEC])
            assert batch["accepted"] == 3
            flags = [job["coalesced"] for job in batch["jobs"]]
            assert flags == [False, True, True]
            gate.set()
            for job in batch["jobs"]:
                assert (await client.wait_job(job["id"]))["state"] == "done"
            metrics = await client.metrics()
            assert metrics["executions"] == 1
            assert metrics["dedup_coalesced"] == 2
            service.request_shutdown()
            assert await serve_task == 0

        asyncio.run(main())

    def test_client_errors_and_shedding(self, run_result):
        async def main():
            gate = asyncio.Event()
            service, serve_task, client = await _start_service(
                _gated_runner(gate, run_result), high_water=1
            )
            with pytest.raises(ServiceClientError) as excinfo:
                await client.submit({"predictor": "b2"})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceClientError) as excinfo:
                await client.job("job-999999")
            assert excinfo.value.status == 404
            status, _, _ = await client.request("PUT", "/jobs")
            assert status == 405
            status, _, _ = await client.request("GET", "/nonesuch")
            assert status == 404
            # An oversized declared body is refused from the headers alone:
            # send none, and the server must still answer 413.
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(
                f"POST /jobs HTTP/1.1\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode("latin-1")
            )
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(-1), 10)
            writer.close()
            await writer.wait_closed()
            assert reply.split(None, 2)[1] == b"413"

            await client.submit(SPEC)  # occupies the single backlog slot
            with pytest.raises(ServiceClientError) as excinfo:
                await client.submit({**SPEC, "max_instructions": 1000})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1.0
            assert (await client.metrics())["jobs_shed"] == 1

            gate.set()
            service.request_shutdown()
            assert await serve_task == 0

        asyncio.run(main())

    def test_sigterm_drains_inflight_job_before_exit(self, run_result):
        async def main():
            gate = asyncio.Event()
            service, serve_task, client = await _start_service(
                _gated_runner(gate, run_result)
            )
            view = await client.submit(SPEC)
            # The loop's SIGTERM handler is request_shutdown; deliver the
            # real signal rather than calling it, to cover the wiring.
            os.kill(os.getpid(), signal.SIGTERM)
            gate.set()
            assert await serve_task == 0
            job = service.table.get(view["id"])
            assert job is not None and job.state == "done"
            assert service.metrics.jobs_completed == 1

        asyncio.run(main())
