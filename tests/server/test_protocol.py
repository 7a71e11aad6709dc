"""Job spec canonicalization, content-hash keys, stable results."""

import pytest

from repro.runner.jobs import JobResult, SweepJob
from repro.server import JobSpec, canonical_json
from repro.server.protocol import stable_sweep_result


class TestCanonicalization:
    def test_defaults_fill_in(self):
        spec = JobSpec.create(
            "sweep", {"workload": "mini", "width": 32}
        )
        assert spec.params["effort"] == "medium"
        assert spec.params["wt"] == 0.5

    def test_equivalent_submissions_share_a_key(self):
        # one spells out the defaults, the other relies on them — the
        # coalescing key must not see the difference
        a = JobSpec.create("sweep", {"workload": "mini", "width": 32})
        b = JobSpec.create(
            "sweep",
            {"workload": "mini", "width": 32, "wt": 0.5,
             "effort": "medium"},
        )
        assert a.job_key == b.job_key

    def test_distinct_jobs_distinct_keys(self):
        a = JobSpec.create("sweep", {"workload": "mini", "width": 8})
        b = JobSpec.create("sweep", {"workload": "mini", "width": 16})
        c = JobSpec.create("optimize", {"workload": "mini", "width": 8})
        assert len({a.job_key, b.job_key, c.job_key}) == 3

    def test_kinds_never_alias(self):
        # comparable params under different kinds must never collide
        sweep = JobSpec.create("sweep", {"workload": "mini", "width": 32})
        opt = JobSpec.create("optimize", {"workload": "mini", "width": 32})
        assert sweep.job_key != opt.job_key

    def test_roundtrip(self):
        spec = JobSpec.create(
            "optimize", {"workload": "mini", "budget": 50}
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.job_key == spec.job_key


class TestOptimizeWireFormat:
    """The optimize wire format is frozen: canonical keys, defaults and
    job keys (``CACHE_VERSION`` 6) must not move."""

    @pytest.mark.parametrize("params, key", [
        ({"workload": "mini"},
         "bb3ff38887f79903d654e368fc871e6b7edbaf2b746f4ca061602044106e4d3b"),
        ({"workload": "big8m", "width": 8, "strategy": "anneal",
          "budget": 60, "effort": "quick"},
         "9d1f7289c3c9a7c10e27a9bbe64af239585738114e02b935adbcd133aec9ff99"),
        ({"workload": "big12mp", "power_budget": 113, "strategy": "tabu",
          "budget": 100, "search_seed": 3, "wt": 0.3},
         "d7cbd7d8dd2880cb334640d38df577060f1bdd77ccecec89a23259f0b33e4eaf"),
    ])
    def test_job_keys_are_pinned(self, params, key):
        assert JobSpec.create("optimize", params).job_key == key

    def test_canonical_keys_and_defaults(self):
        spec = JobSpec.create("optimize", {"workload": "mini"})
        assert spec.params == {
            "workload": "mini", "width": 32, "strategy": "anneal",
            "budget": 200, "wt": 0.5, "seed": None, "search_seed": 0,
            "power_budget": None, "effort": "medium", "scenario": None,
        }
        assert list(spec.params) == [
            "workload", "width", "strategy", "budget", "wt", "seed",
            "search_seed", "power_budget", "effort", "scenario",
        ]

    def test_optimize_request_is_a_strategy_sweep_job(self):
        spec = JobSpec.create(
            "optimize", {"workload": "mini", "strategy": "tabu"}
        )
        job = spec.to_optimize_params()
        assert isinstance(job, SweepJob)
        assert job == spec.to_sweep_job()
        assert (job.strategy, job.budget) == ("tabu", 200)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec.create("dance", {})

    def test_unknown_sweep_param(self):
        with pytest.raises(ValueError, match="bogus"):
            JobSpec.create(
                "sweep", {"workload": "mini", "width": 8, "bogus": 1}
            )

    def test_missing_workload_and_scenario(self):
        # width defaults (32) so a bare preset name is a valid spec;
        # what cannot be omitted is the SOC source itself
        with pytest.raises(ValueError, match="workload name or a scenario"):
            JobSpec.create("sweep", {"width": 8})
        assert JobSpec.create("sweep", {"workload": "mini"}).params[
            "width"
        ] == 32

    def test_unknown_workload_rejected_at_admission(self):
        with pytest.raises(ValueError, match="no_such_preset"):
            JobSpec.create("sweep", {"workload": "no_such_preset"})

    def test_bad_optimize_values(self):
        with pytest.raises(ValueError, match="budget"):
            JobSpec.create(
                "optimize", {"workload": "mini", "budget": 0}
            )
        with pytest.raises(ValueError, match="strategy"):
            JobSpec.create(
                "optimize", {"workload": "mini", "strategy": "magic"}
            )
        with pytest.raises(ValueError, match="strategy"):
            JobSpec.create("optimize", {"workload": "mini", "strategy": ""})
        # the paper-flow and packer knobs are sweep-only
        for key, value in (("delta", 0.1), ("exhaustive", True),
                           ("shuffles", 2), ("improvement_passes", 1),
                           ("bogus", 1)):
            with pytest.raises(ValueError, match=key):
                JobSpec.create("optimize", {"workload": "mini", key: value})

    def test_non_dict_params(self):
        with pytest.raises(ValueError, match="object"):
            JobSpec.create("sweep", ["workload"])

    def test_kind_accessors_guard(self):
        spec = JobSpec.create("sweep", {"workload": "mini", "width": 8})
        with pytest.raises(ValueError, match="not an optimize job"):
            spec.to_optimize_params()


class TestStableResults:
    def test_volatile_fields_stripped(self):
        spec = JobSpec.create("sweep", {"workload": "mini", "width": 8})
        result = JobResult(
            job=SweepJob(workload="mini", width=8),
            total_cost=42.0, elapsed_s=1.23, cache_hit=True,
            retries=3,
        )
        stable = stable_sweep_result(spec, result)
        assert stable["total_cost"] == 42.0
        for volatile in ("elapsed_s", "cache_hit", "retries",
                         "pack_stats", "cache_stats"):
            assert volatile not in stable

    def test_stable_record_is_run_independent(self):
        # two runs of the same job with different runtime accounting
        # must serialize to the same bytes
        spec = JobSpec.create("sweep", {"workload": "mini", "width": 8})
        job = spec.to_sweep_job()
        cold = JobResult(job=job, total_cost=42.0, elapsed_s=4.5,
                         cache_hit=False)
        warm = JobResult(job=job, total_cost=42.0, elapsed_s=0.001,
                         cache_hit=True, retries=2)
        assert canonical_json(stable_sweep_result(spec, cold)) == \
            canonical_json(stable_sweep_result(spec, warm))
