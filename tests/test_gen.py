"""Seeded-generator tests: deterministic, valid, bounded, varied."""

import pytest

from bsgate import gen
from bsgate.gen import random_complex
from bsgate.parser import print_complex
from bsgate.surface import validate


@pytest.mark.parametrize("seed", [0, 1, 17, 99])
def test_same_seed_same_complex(seed):
    assert print_complex(random_complex(seed)) == \
        print_complex(random_complex(seed))


def test_every_seed_validates_and_respects_the_budget():
    for seed in range(120):
        cx = random_complex(seed)
        assert validate(cx).ok(), (seed, validate(cx).violations)
        assert 1 <= len(cx.sectors) <= 6
        assert len(cx.dps) <= 4


def test_custom_budget_is_respected():
    for seed in range(30):
        cx = random_complex(seed, max_sectors=2, max_dps=0)
        assert len(cx.sectors) <= 2
        assert len(cx.dps) == 0


def test_seeds_cover_many_distinct_structures():
    bodies = set()
    for seed in range(40):
        # drop the name line: distinctness should come from structure
        bodies.add("\n".join(print_complex(random_complex(seed))
                             .splitlines()[1:]))
    assert len(bodies) >= 25


def test_identifiers_never_collide():
    for seed in range(40):
        cx = random_complex(seed)
        ids = ([s.id for s in cx.sectors] + [g.id for g in cx.segments]
               + [d.id for d in cx.dps])
        assert len(ids) == len(set(ids))


def test_blocks_are_parsed_once_at_import(monkeypatch):
    before = random_complex(0)

    def refuse(text):
        raise AssertionError("random_complex parsed a block template")

    monkeypatch.setattr(gen, "parse_complex", refuse)
    assert random_complex(0) == before
