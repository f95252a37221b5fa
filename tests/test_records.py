"""The package's immutable value classes: construction, equality, hash, repr, copies.

Pins what callers can rely on for each of the seven classes, whatever they
are built from: keyword and positional construction, the ``Name(field=...)``
repr, equality and hash over the fields, refusal to set or delete an
attribute, and round trips through pickle and the copy module.
"""

import copy
import pickle
import re

import pytest

from prwtest import (
    BinomialParams,
    FwerOutcome,
    FwerPlan,
    LossDistribution,
    McReport,
    PValueReport,
    TestSpec,
    bentkus_pvalue,
    prw_pvalue,
)

# class, positional arguments, the same by keyword, repr
CASES = {
    "binomial": (BinomialParams, (10, 0.5), {"n": 10, "p": 0.5}, "BinomialParams(n=10, p=0.5)"),
    "spec": (TestSpec, (100, 0.1), {"alpha": 0.1, "n": 100},
             "TestSpec(n=100, alpha=0.1, gamma=10, t_max=0.09)"),
    "report": (PValueReport, (0.05, 0.1, 100, 0.25, 0.5, 0.75),
               {"rhat": 0.05, "alpha": 0.1, "n": 100, "prw": 0.25, "bentkus": 0.5,
                "hoeffding_tight": 0.75},
               "PValueReport(rhat=0.05, alpha=0.1, n=100, prw=0.25, bentkus=0.5, "
               "hoeffding_tight=0.75)"),
    "plan": (FwerPlan, ((0.01, 0.2), 0.05, (0.25, 0.75)),
             {"pvalues": [0.01, 0.2], "delta": 0.05, "weights": [0.25, 0.75]},
             "FwerPlan(pvalues=(0.01, 0.2), delta=0.05, weights=(0.25, 0.75))"),
    "plan-unweighted": (FwerPlan, ((0.01,), 0.05), {"pvalues": (0.01,), "delta": 0.05},
                        "FwerPlan(pvalues=(0.01,), delta=0.05, weights=None)"),
    "outcome": (FwerOutcome, ((True, False), (0.0125, 0.05)),
                {"rejected": (True, False), "local_levels": (0.0125, 0.05)},
                "FwerOutcome(rejected=(True, False), local_levels=(0.0125, 0.05))"),
    "dist": (LossDistribution, ("beta", (2.0, 3.0), 0.4),
             {"kind": "beta", "params": (2.0, 3.0), "mean": 0.4},
             "LossDistribution(kind='beta', params=(2.0, 3.0), mean=0.4)"),
    "mc-report": (McReport, ((0.1,), (0.05,), (0.01,), 100, 0),
                  {"delta_grid": (0.1,), "exceedance": (0.05,), "stderr": (0.01,),
                   "reps": 100, "seed": 0},
                  "McReport(delta_grid=(0.1,), exceedance=(0.05,), stderr=(0.01,), reps=100, "
                  "seed=0)"),
}


def make(case):
    cls, args, _, _ = CASES[case]
    return cls(*args)


def field_names(case):
    return re.findall(r"(\w+)=", CASES[case][3])


def field_names_of(cls):
    return next(field_names(case) for case in CASES if CASES[case][0] is cls)


@pytest.mark.parametrize("case", CASES)
class TestRecord:
    def test_position_and_keyword_agree(self, case):
        cls, args, kwargs, text = CASES[case]
        by_position, by_keyword = cls(*args), cls(**kwargs)
        assert repr(by_position) == repr(by_keyword) == text
        assert by_position == by_keyword

    def test_unknown_keyword(self, case):
        cls, args, _, _ = CASES[case]
        with pytest.raises(TypeError):
            cls(*args, colour="red")

    def test_equal_instances_hash_alike(self, case):
        first, second = make(case), make(case)
        assert first == second and not first != second
        assert first is not second
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1

    def test_unequal_across_classes(self, case):
        record = make(case)
        for other in CASES:
            if CASES[other][0] is not CASES[case][0]:
                assert record != make(other)
                assert make(other) != record
        values = tuple(getattr(record, name) for name in field_names(case))
        assert record != values
        # classes that take any field values can copy another class's values
        for cls in (FwerOutcome, LossDistribution, McReport):
            if cls is not type(record) and len(field_names_of(cls)) == len(values):
                assert record != cls(*values) and cls(*values) != record

    def test_fields_cannot_be_set_or_deleted(self, case):
        record = make(case)
        for name in (*field_names(case), "unknown"):
            with pytest.raises(Exception) as raised:
                setattr(record, name, 1)
            assert isinstance(raised.value, AttributeError)
            with pytest.raises(Exception) as raised:
                delattr(record, name)
            assert isinstance(raised.value, AttributeError)
        assert repr(record) == CASES[case][3]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, case, protocol):
        record = make(case)
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is type(record)
        assert restored == record and hash(restored) == hash(record)
        assert repr(restored) == repr(record)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, case, duplicate):
        record = make(case)
        restored = duplicate(record)
        assert type(restored) is type(record)
        assert restored == record and hash(restored) == hash(record)
        assert repr(restored) == repr(record)


RHATS = (0.0, 0.01, 0.03, 0.05, 0.0899999999, 0.09, 0.2, 1.0)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda spec: pickle.loads(pickle.dumps(spec))
])
@pytest.mark.parametrize("queried", [False, True])
def test_a_copied_spec_answers_like_its_original(duplicate, queried):
    spec = TestSpec(100, 0.1)
    if queried:  # the copy is taken after its law's step record holds values
        for rhat in RHATS[::2]:
            prw_pvalue(rhat, spec)
            bentkus_pvalue(rhat, spec, clamp=False)
    twin = duplicate(spec)
    for rhat in RHATS:
        for clamp in (True, False):
            assert prw_pvalue(rhat, twin, clamp=clamp) == prw_pvalue(rhat, spec, clamp=clamp)
            assert (bentkus_pvalue(rhat, twin, clamp=clamp)
                    == bentkus_pvalue(rhat, spec, clamp=clamp))
    assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
