"""Unit tests for the greatest/least fixpoint engine."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.fixpoint import (
    explain_membership,
    greatest_fixpoint,
    greatest_fixpoint_naive,
    least_fixpoint,
    object_signature,
)
from repro.core.notation import parse_program
from repro.core.typing_program import Direction, TypingProgram, make_rule
from repro.graph.builder import DatabaseBuilder
from repro.perf import PerfRecorder

SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs the GFP on the DBG ``Q_D``, then maintains Stage 1 across a
#: pinned edit batch, then runs Stage 1 on ``make_scaled(1000)``, and
#: prints the three runs' work counters.  On DBG nearly every
#: bisimulation class is one object, so Stage 1's representatives are
#: checked on ``make_scaled``, whose classes are large: representatives
#: taken in set order there change its ``gfp.*`` counters with the seed.
_COUNTERS_SCRIPT = textwrap.dedent(
    """
    import json
    import random

    from benchmarks.bench_scalability import make_scaled
    from repro.core.delta import Stage1Maintainer
    from repro.core.fixpoint import greatest_fixpoint
    from repro.core.perfect import build_object_program, minimal_perfect_typing
    from repro.perf import PerfRecorder
    from repro.synth.datasets import make_dbg

    db = make_dbg(seed=1998)
    perf = PerfRecorder()
    greatest_fixpoint(build_object_program(db), db, perf=perf)
    maintainer = Stage1Maintainer(db, minimal_perfect_typing(db))
    edges = random.Random(26).sample(sorted(db.edges()), 2)
    with db.track_changes() as log:
        db.remove_link(edges[0].src, edges[0].dst, edges[0].label)
        db.add_link(edges[1].src, edges[1].dst, "extra_" + edges[1].label)
    maintainer.apply(log, perf=perf)
    stage1 = PerfRecorder()
    minimal_perfect_typing(make_scaled(1000), perf=stage1)
    out = {
        name: value
        for name, value in perf.to_dict()["counters"].items()
        if name.startswith(("gfp.", "delta."))
    }
    out.update(
        ("stage1 " + name, value)
        for name, value in stage1.to_dict()["counters"].items()
        if name.startswith("gfp.")
    )
    print(json.dumps(out))
    """
)


class TestPaperSemantics:
    def test_p0_greatest_fixpoint(self, figure2_db, p0_program):
        """Section 2: GFP of P0 is {person(g), person(j), firm(a), firm(m)}."""
        result = greatest_fixpoint(p0_program, figure2_db)
        assert result.members("person") == {"g", "j"}
        assert result.members("firm") == {"a", "m"}

    def test_p0_least_fixpoint_classifies_nothing(self, figure2_db, p0_program):
        """Section 2: "a least fixpoint semantics would fail to classify
        any object" for the recursive P0."""
        result = least_fixpoint(p0_program, figure2_db)
        assert result.members("person") == frozenset()
        assert result.members("firm") == frozenset()

    def test_nonrecursive_gfp_equals_lfp(self, regular_people_db):
        """Section 4.1: for non-recursive programs GFP == LFP."""
        program = TypingProgram([make_rule("person", atomic=["name", "email"])])
        assert not program.is_recursive()
        gfp = greatest_fixpoint(program, regular_people_db)
        lfp = least_fixpoint(program, regular_people_db)
        assert gfp.extents == lfp.extents
        assert len(gfp.members("person")) == 10

    def test_atomic_objects_never_typed(self, figure2_db, p0_program):
        result = greatest_fixpoint(p0_program, figure2_db)
        for members in result.extents.values():
            assert all(figure2_db.is_complex(o) for o in members)


class TestEngineAgreement:
    def test_optimised_matches_naive(self, figure2_db, p0_program):
        fast = greatest_fixpoint(p0_program, figure2_db)
        slow = greatest_fixpoint_naive(p0_program, figure2_db)
        assert fast.extents == slow.extents

    def test_agreement_on_figure4(self, figure4_db):
        program = parse_program(
            """
            t1 = ->a^t2
            t2 = ->b^0, <-a^t1
            t3 = ->b^0, ->c^0, <-a^t1
            """
        )
        fast = greatest_fixpoint(program, figure4_db)
        slow = greatest_fixpoint_naive(program, figure4_db)
        assert fast.extents == slow.extents
        assert fast.members("t2") == {"o2", "o3", "o4"}
        assert fast.members("t3") == {"o4"}

    def test_agreement_on_self_recursive(self):
        db = (
            DatabaseBuilder()
            .link("a", "b", "next")
            .link("b", "c", "next")
            .link("c", "a", "next")  # cycle
            .link("x", "y", "next")  # chain that dies out
            .build()
        )
        program = TypingProgram([make_rule("node", outgoing=[("next", "node")])])
        fast = greatest_fixpoint(program, db)
        slow = greatest_fixpoint_naive(program, db)
        assert fast.extents == slow.extents
        # Only the cycle members can be 'node' forever.
        assert fast.members("node") == {"a", "b", "c"}


class TestMechanics:
    def test_empty_body_contains_all_complex(self, figure2_db):
        program = TypingProgram([make_rule("anything")])
        result = greatest_fixpoint(program, figure2_db)
        assert result.members("anything") == set(figure2_db.complex_objects())

    def test_empty_program(self, figure2_db):
        result = greatest_fixpoint(TypingProgram.empty(), figure2_db)
        assert result.extents == {}

    def test_types_of_and_assignment(self, figure2_db, p0_program):
        result = greatest_fixpoint(p0_program, figure2_db)
        assert result.types_of("g") == {"person"}
        assignment = result.assignment()
        assert assignment["m"] == {"firm"}
        assert "gn" not in assignment  # atomic

    def test_types_of_and_assignment_overlapping_extents(self):
        """Extents overlap (no negation: a richer object satisfies the
        poorer rule too); ``types_of`` and ``assignment`` must report
        every containing type, and the two views must invert exactly."""
        db = (
            DatabaseBuilder()
            .attr("rich", "name", "n1")
            .attr("rich", "email", "e1")
            .attr("poor", "name", "n2")
            .build()
        )
        program = parse_program("t1 = ->name^0\nt2 = ->name^0, ->email^0")
        result = greatest_fixpoint(program, db)
        assert result.members("t1") == {"rich", "poor"}
        assert result.members("t2") == {"rich"}
        assert result.types_of("rich") == {"t1", "t2"}
        assert result.types_of("poor") == {"t1"}
        assert result.types_of("n1") == frozenset()  # atomic
        assignment = result.assignment()
        assert assignment == {
            "rich": frozenset({"t1", "t2"}),
            "poor": frozenset({"t1"}),
        }
        # The inverted map and the extents are two views of one relation.
        for name in program.type_names():
            assert result.members(name) == {
                obj for obj, types in assignment.items() if name in types
            }

    def test_nonempty_types(self, figure2_db):
        program = parse_program("ghost = ->no-such-label^0\nreal = ->name^0")
        result = greatest_fixpoint(program, figure2_db)
        assert result.nonempty_types() == {"real"}

    def test_object_signature(self, figure2_db):
        sig = object_signature(figure2_db, "g")
        assert (Direction.OUT, "name", "a") in sig
        assert (Direction.OUT, "name", "a:string") in sig  # sorted kind
        assert (Direction.OUT, "is-manager-of", "c") in sig
        assert (Direction.IN, "is-managed-by", "c") in sig


class TestPerfCounters:
    def test_gfp_records_work_counters(self, figure2_db, p0_program):
        perf = PerfRecorder()
        result = greatest_fixpoint(p0_program, figure2_db, perf=perf)
        assert result.members("person") == {"g", "j"}
        # Counts *distinct* raw signatures (g/j share one, a/m another).
        assert 0 < perf.counter("gfp.signatures") <= figure2_db.num_complex
        assert perf.counter("gfp.signatures") == 2
        # Both types verified at least once, every member body-checked.
        assert perf.counter("gfp.type_rechecks") >= 2
        assert perf.counter("gfp.object_checks") > 0
        assert perf.counter("gfp.satisfaction_checks") > 0
        assert perf.elapsed("gfp.iterate") >= 0.0

    def test_dirty_tracking_does_less_work_than_rescan(self):
        """On a deletion cascade the engine re-examines only objects
        that lost a witness.  Down a 21-object chain the extent loses
        one object per round, so re-walking whole extents costs about
        ``n**2 / 2`` checks (210 here); dirty tracking stays within two
        checks per object."""
        builder = DatabaseBuilder()
        for i in range(20):
            builder.link(f"n{i}", f"n{i + 1}", "next")
        db = builder.build()
        program = TypingProgram([make_rule("node", outgoing=[("next", "node")])])
        perf = PerfRecorder()
        result = greatest_fixpoint(program, db, perf=perf)
        assert result.members("node") == frozenset()  # chain dies out
        checks = perf.counter("gfp.satisfaction_checks")
        assert 0 < checks <= 2 * db.num_complex

    def test_work_counters_do_not_depend_on_hash_seed(self):
        """Object ids and type names are strings, so any set-ordered
        worklist would change its work with ``PYTHONHASHSEED``, and so
        would Stage 1 representatives taken in set order.  The GFP, the
        Stage 1 maintainer and Stage 1 on the quotient must report the
        same counters in two interpreters with different hash seeds."""

        def run(seed):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC), str(SRC.parent)]
                + [p for p in [env.get("PYTHONPATH")] if p]
            )
            proc = subprocess.run(
                [sys.executable, "-c", _COUNTERS_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        first, second = run("0"), run("2")
        assert first == second
        assert first["gfp.satisfaction_checks"] > 0
        assert first["delta.satisfaction_checks"] > 0
        assert first["stage1 gfp.satisfaction_checks"] > 0

    def test_null_recorder_default_records_nothing(self, figure2_db, p0_program):
        from repro.perf import NULL_RECORDER

        greatest_fixpoint(p0_program, figure2_db)
        assert NULL_RECORDER.to_dict() == {
            "counters": {}, "peaks": {}, "timers": {},
        }


class TestExplanations:
    def test_explain_witnesses(self, figure2_db, p0_program):
        result = greatest_fixpoint(p0_program, figure2_db)
        supports = explain_membership(
            p0_program, figure2_db, result.extents, "g", "person"
        )
        by_label = {s.link.label: s.witnesses for s in supports}
        assert by_label["is-manager-of"] == ("m",)
        assert by_label["name"] == ("gn",)

    def test_explain_missing_support(self, figure2_db, p0_program):
        # Pretend firms do not exist: person's manager link has no witness.
        fake_extents = {"person": frozenset({"g"}), "firm": frozenset()}
        supports = explain_membership(
            p0_program, figure2_db, fake_extents, "g", "person"
        )
        by_label = {s.link.label: s.witnesses for s in supports}
        assert by_label["is-manager-of"] == ()
