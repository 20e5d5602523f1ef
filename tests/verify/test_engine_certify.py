"""Engine-level certification: ``Engine(certify=True)`` attaches LP
certificates to fresh solves, re-checks cache hits, and never perturbs
the cache key — certified and uncertified runs share entries."""

import json

import pytest

from repro.cache import DesignCache, cache_key
from repro.experiments.engine import DesignTask, Engine
from repro.verify import Certificate, CertificationError, recheck_cached_doc


@pytest.fixture(autouse=True)
def _fast(monkeypatch):
    monkeypatch.setenv("REPRO_FAST", "1")
    monkeypatch.setenv("REPRO_JOBS", "1")


@pytest.fixture
def cache(tmp_path):
    return DesignCache(tmp_path / "designs")


def _task(**overrides):
    spec = {"kind": "twoturn", "k": 3, "label": "certify-test"}
    spec.update(overrides)
    return DesignTask(**spec)


class TestCertifiedSolve:
    def test_fresh_solve_attaches_certificates(self, cache):
        result = Engine(jobs=1, cache=cache, certify=True).run_one(_task())
        assert not result.cache_hit
        certs = result.doc["certificates"]
        assert certs  # 2TURN is a two-stage lexicographic design
        for doc in certs:
            assert Certificate.from_doc(doc).valid

    def test_uncertified_solve_has_no_certificates(self, cache):
        result = Engine(jobs=1, cache=cache, certify=False).run_one(_task())
        assert "certificates" not in result.doc

    def test_certify_not_in_cache_key(self, cache):
        # certified then uncertified: second run must hit the same entry
        Engine(jobs=1, cache=cache, certify=True).run_one(_task())
        result = Engine(jobs=1, cache=cache, certify=False).run_one(_task())
        assert result.cache_hit
        # ...and the entry still carries its certificates
        assert result.doc["certificates"]

    def test_uncertified_entry_upgradeable(self, cache):
        # uncertified first: a later certified run re-checks the entry's
        # flows/load (no certificates to validate) and accepts it
        Engine(jobs=1, cache=cache, certify=False).run_one(_task())
        result = Engine(jobs=1, cache=cache, certify=True).run_one(_task())
        assert result.cache_hit

    def test_warm_certified_hit_passes(self, cache):
        engine = Engine(jobs=1, cache=cache, certify=True)
        engine.run_one(_task())
        result = engine.run_one(_task())
        assert result.cache_hit

    def test_lexicographic_wc_opt_rechecks(self, cache):
        # The full-LP lexicographic stage re-solves stage 1's model in
        # place; a cold rebuild solved by IPM left flows whose conservation
        # residual (5.5e-8 at k=5) failed the cached doc's recheck.
        task = DesignTask(kind="wc_opt", k=5, label="wc_opt-k5")
        Engine(jobs=1, cache=cache, certify=True).run_one(task)
        report = recheck_cached_doc(cache.get(cache_key(task.cache_payload())))
        assert report.passed, report.render()


class TestCorruptedCache:
    def _corrupt(self, cache, task, mutate):
        key = cache_key(task.cache_payload())
        path = cache._path(key)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))

    def test_tampered_load_raises(self, cache):
        task = _task()
        Engine(jobs=1, cache=cache, certify=True).run_one(task)

        def halve_load(doc):
            doc["load"] *= 0.5

        self._corrupt(cache, task, halve_load)
        with pytest.raises(CertificationError, match="re-certification"):
            Engine(jobs=1, cache=cache, certify=True).run_one(task)

    def test_tampered_certificate_raises(self, cache):
        task = _task()
        Engine(jobs=1, cache=cache, certify=True).run_one(task)

        def bump_dual(doc):
            doc["certificates"][0]["dual_objective"] += 1.0

        self._corrupt(cache, task, bump_dual)
        with pytest.raises(CertificationError):
            Engine(jobs=1, cache=cache, certify=True).run_one(task)

    def test_uncertified_engine_trusts_cache(self, cache):
        task = _task()
        Engine(jobs=1, cache=cache, certify=True).run_one(task)

        def halve_load(doc):
            doc["load"] *= 0.5

        self._corrupt(cache, task, halve_load)
        result = Engine(jobs=1, cache=cache, certify=False).run_one(task)
        assert result.cache_hit  # documented trade-off: no recheck


class TestPoolPath:
    def test_certified_pool_solves(self, cache):
        # two distinct tasks through the process pool, certify threaded
        # into the workers via functools.partial
        tasks = [
            _task(label="a"),
            DesignTask(kind="wc_point", k=3, ratio=1.0, label="b"),
        ]
        results = Engine(jobs=2, cache=cache, certify=True).run(tasks)
        assert [r.cache_hit for r in results] == [False, False]
        for result in results:
            for doc in result.doc["certificates"]:
                assert Certificate.from_doc(doc).valid
