"""Property-based equivalence of the bitset kernel and the set oracle.

The bitset link-space kernel (:mod:`repro.core.linkspace`) is a pure
change of representation: every consumer must produce *identical*
results with ``use_bitset=True`` (the default) and ``use_bitset=False``
(the frozenset oracle path).  This suite pins that on random inputs at
every level:

* the kernel's mask arithmetic against frozenset semantics, including
  universes wider than one 64-bit word and distances recomputed after
  a retarget mints new bits;
* :class:`GreedyMerger` merge traces (absorber, absorbed, cost and
  manhattan per record) across all merge policies, and against a
  brute-force argmin over every live pair on frozenset bodies for every
  policy, paper distance, empty-type setting and frozen subset;
* the full Stage 1 -> 3 pipeline (program, assignment, defect) and the
  Figure 6 sweep on random databases with twins (so Stage 1's classes
  have several members and class-level edge kinds several edges),
  under each recast, merge, role, empty-type, sort and prior knob,
  against the frozenset path and against the same run with Stage 1's
  classes withheld;
* the sweep's carried sample state against the bulk kernels
  (``recast_masks``, ``defect_masks``) on the same merger state and
  the same classes at every sample, with several merges between
  samples and objects the fallback places;
* the cluster machinery (k-median, agglomeration) fed by
  :class:`CachedBodyDistance` vs a plain closure over raw bodies.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hierarchy import agglomerate
from repro.cluster.jump import defining_attributes
from repro.cluster.kmedian import greedy_k_median
from repro.core.clustering import EMPTY_TYPE, GreedyMerger, MergePolicy
from repro.core.defect import defect_masks
from repro.core.distance import manhattan_bodies, named_distances
from repro.core.fixpoint import greatest_fixpoint
from repro.core.linkspace import BodyKernel, CachedBodyDistance, LinkSpace
from repro.core.notation import parse_program
from repro.core.pipeline import SchemaExtractor
from repro.core.prior import PriorKnowledge
from repro.core.recast import LocalIndex, RecastMode, recast_masks
from repro.core.sensitivity import _CarriedSample, sample_grid
from repro.core.sorts import sorted_local_rule
from repro.core.typing_program import TypedLink, TypeRule, TypingProgram
from repro.graph.database import Database
from repro.perf import PerfRecorder
from tests.property.test_property_bisim import (
    sort_twin_databases,
    twin_databases,
)

labels = st.sampled_from(["a", "b", "c", "d"])
objects = st.sampled_from([f"o{i}" for i in range(6)])


@st.composite
def bodies(draw):
    links = set()
    for label in draw(st.lists(labels, max_size=3, unique=True)):
        links.add(TypedLink.to_atomic(label))
    for _ in range(draw(st.integers(0, 2))):
        form = draw(st.integers(0, 1))
        label = draw(labels)
        target = f"t{draw(st.integers(0, 4))}"
        if form == 0:
            links.add(TypedLink.outgoing(label, target))
        else:
            links.add(TypedLink.incoming(label, target))
    return frozenset(links)


@st.composite
def wide_bodies(draw):
    """Bodies over 40 labels: random programs routinely intern more
    than 64 links, so masks span several words."""
    links = set()
    for _ in range(draw(st.integers(0, 12))):
        label = f"l{draw(st.integers(0, 39))}"
        target = draw(st.integers(-1, 4))
        if target < 0:
            links.add(TypedLink.to_atomic(label))
        elif draw(st.booleans()):
            links.add(TypedLink.outgoing(label, f"t{target}"))
        else:
            links.add(TypedLink.incoming(label, f"t{target}"))
    return frozenset(links)


any_bodies = st.one_of(bodies(), wide_bodies())


@st.composite
def programs_with_weights(draw, body_strategy=bodies(), max_types=6):
    n = draw(st.integers(2, max_types))
    rules = []
    weights = {}
    for i in range(n):
        name = f"t{i}"
        body = set(draw(body_strategy))
        # Keep inter-type references inside the program's own names.
        body = {
            link
            for link in body
            if link.is_atomic_target or int(link.target[1:]) < n
        }
        rules.append(TypeRule(name, frozenset(body)))
        weights[name] = draw(st.integers(1, 50))
    return TypingProgram(rules), weights


@st.composite
def databases(draw):
    db = Database()
    db.add_atomic("leaf", 0)
    for _ in range(draw(st.integers(2, 14))):
        src = draw(objects)
        dst = draw(st.one_of(objects, st.just("leaf")))
        if src == dst:
            continue
        db.add_link(src, dst, draw(labels))
    if db.num_complex == 0:
        db.add_complex("o0")
    return db


class TestKernelMatchesSetSemantics:
    @given(any_bodies, any_bodies)
    def test_manhattan(self, b1, b2):
        space = LinkSpace()
        m1, m2 = space.encode(b1), space.encode(b2)
        assert BodyKernel.manhattan(m1, m2) == manhattan_bodies(b1, b2)

    @given(any_bodies, any_bodies)
    def test_covered(self, b1, b2):
        space = LinkSpace()
        m1, m2 = space.encode(b1), space.encode(b2)
        assert BodyKernel.covered(m1, m2) == (b1 <= b2)

    @given(bodies(), bodies())
    def test_union_and_intersection(self, b1, b2):
        space = LinkSpace()
        m1, m2 = space.encode(b1), space.encode(b2)
        assert space.decode(BodyKernel.union(m1, m2)) == b1 | b2
        assert space.decode(BodyKernel.intersection(m1, m2)) == b1 & b2

    @given(any_bodies, any_bodies, st.integers(0, 4), st.integers(0, 4))
    def test_retarget_matches_rename(self, body, other, old_i, new_i):
        space = LinkSpace()
        mask, other_mask = space.encode(body), space.encode(other)
        old, new = f"t{old_i}", f"t{new_i}"
        expected = frozenset(link.rename({old: new}) for link in body)
        moved = space.retarget(mask, old, new)
        assert space.decode(moved) == expected
        # Retargeting may intern new bits; distances recomputed on the
        # grown universe still match the renamed sets.
        renamed_other = frozenset(link.rename({old: new}) for link in other)
        moved_other = space.retarget(other_mask, old, new)
        assert BodyKernel.manhattan(moved, moved_other) == manhattan_bodies(
            expected, renamed_other
        )

    @given(bodies(), st.integers(0, 4))
    def test_retarget_drop_matches_filter(self, body, old_i):
        space = LinkSpace()
        mask = space.encode(body)
        old = f"t{old_i}"
        expected = frozenset(
            link for link in body if link.is_atomic_target or link.target != old
        )
        assert space.decode(space.retarget(mask, old, None)) == expected

    @given(st.lists(st.tuples(bodies(), st.floats(0.5, 20.0)), min_size=1, max_size=5))
    def test_defining_mask_matches_jump_function(self, members):
        space = LinkSpace()
        encoded = [(space.encode(body), weight) for body, weight in members]
        assert space.decode(BodyKernel.defining_mask(encoded)) == (
            defining_attributes(members)
        )

    @given(st.lists(st.tuples(bodies(), st.floats(0.5, 20.0)), min_size=1, max_size=5))
    def test_weighted_center_matches_set_tally(self, members):
        space = LinkSpace()
        encoded = [(space.encode(body), weight) for body, weight in members]
        total = sum(weight for _, weight in members)
        support = {}
        for body, weight in members:
            for link in body:
                support[link] = support.get(link, 0.0) + weight
        expected = frozenset(
            link for link, s in support.items() if 2 * s >= total
        )
        assert space.decode(BodyKernel.weighted_center(encoded)) == expected


def brute_force_stage2(program, weights, k, **options):
    """Stage 2 by exhaustive argmin: the paper's greedy loop, verbatim.

    Before every merge it prices every live ordered pair and every
    empty-type move on frozenset bodies and executes the cheapest
    ``(cost, absorber, absorbed)`` with :meth:`GreedyMerger.replay`
    on a ``use_bitset=False`` merger.  Quadratic per step, so test-only.
    """
    merger = GreedyMerger(program, weights, use_bitset=False, **options)
    distance = options["distance"]
    while merger.num_types > k:
        bodies = {r.name: r.body for r in merger.current_program().rules()}
        live = merger.current_weights()
        candidates = []
        for absorbed, body in bodies.items():
            if absorbed in merger.frozen:
                continue
            if merger.allow_empty_type:
                cost = distance(merger.empty_weight, live[absorbed], len(body))
                candidates.append((cost, EMPTY_TYPE, absorbed))
            for absorber, other in bodies.items():
                if absorber != absorbed:
                    d = len(other ^ body)
                    cost = distance(live[absorber], live[absorbed], d)
                    candidates.append((cost, absorber, absorbed))
        cost, absorber, absorbed = min(candidates)
        merger.replay([(absorber, absorbed)])
        assert merger.records[-1].cost == cost
    return merger.result()


class TestMergerTraceEquivalence:
    @pytest.mark.parametrize("policy", list(MergePolicy))
    @pytest.mark.parametrize(
        "distance_name", sorted(named_distances(1))
    )
    @given(
        # Up to 12 types: a row repriced upward must sometimes lose to a
        # column the merge left alone, which small programs rarely show.
        pw=st.one_of(
            programs_with_weights(max_types=12),
            programs_with_weights(wide_bodies(), max_types=12),
        ),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_argmin(
        self, policy, distance_name, pw, data
    ):
        program, weights = pw
        names = sorted(program.type_names())
        frozen = data.draw(st.sets(st.sampled_from(names)), label="frozen")
        options = dict(
            distance=named_distances(len(program.typed_links()))[
                distance_name
            ],
            policy=policy,
            allow_empty_type=data.draw(st.booleans(), label="empty"),
            empty_weight=data.draw(
                st.one_of(st.none(), st.floats(0.5, 20.0)),
                label="empty_weight",
            ),
            frozen=frozen,
        )
        # Frozen types are never absorbed, so they bound the reachable k.
        k = data.draw(st.integers(max(1, len(frozen)), len(names)), label="k")
        use_bitset = data.draw(st.booleans(), label="use_bitset")
        got = GreedyMerger(
            program, weights, use_bitset=use_bitset, **options
        ).run_to(k)
        want = brute_force_stage2(program, weights, k, **options)
        assert [
            (r.absorber, r.absorbed, r.cost, r.manhattan) for r in got.records
        ] == [
            (r.absorber, r.absorbed, r.cost, r.manhattan) for r in want.records
        ]
        assert got.program == want.program
        assert got.weights == want.weights
        assert got.merge_map == want.merge_map

    @given(
        st.one_of(
            programs_with_weights(), programs_with_weights(wide_bodies())
        ),
        st.sampled_from(list(MergePolicy)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_traces_and_programs(self, pw, policy, data):
        program, weights = pw
        k = data.draw(st.integers(1, len(program)))
        bitset = GreedyMerger(
            program, weights, policy=policy, use_bitset=True
        ).run_to(k)
        plain = GreedyMerger(
            program, weights, policy=policy, use_bitset=False
        ).run_to(k)
        assert bitset.program == plain.program
        assert bitset.weights == plain.weights
        assert bitset.merge_map == plain.merge_map
        assert [
            (r.absorber, r.absorbed, r.cost, r.manhattan)
            for r in bitset.records
        ] == [
            (r.absorber, r.absorbed, r.cost, r.manhattan)
            for r in plain.records
        ]

    @given(programs_with_weights())
    @settings(max_examples=30, deadline=None)
    def test_empty_type_path_equivalent(self, pw):
        program, weights = pw
        bitset = GreedyMerger(
            program, weights, allow_empty_type=True, empty_weight=1.0,
            use_bitset=True,
        ).run_to(1)
        plain = GreedyMerger(
            program, weights, allow_empty_type=True, empty_weight=1.0,
            use_bitset=False,
        ).run_to(1)
        assert bitset.program == plain.program
        assert [
            (r.absorber, r.absorbed, r.cost) for r in bitset.records
        ] == [(r.absorber, r.absorbed, r.cost) for r in plain.records]


#: The knobs the pipeline equivalence runs under, one at a time.
PIPELINE_KNOBS = {
    "plain": {},
    "roles": {"use_roles": True},
    "empty_type": {"allow_empty_type": True},
    "no_fallback": {"fallback": "none"},
    "strict": {"recast_mode": RecastMode.STRICT},
    "sorted": {"local_rule_fn": sorted_local_rule},
    "union": {"policy": MergePolicy.UNION},
    "weighted_center": {"policy": MergePolicy.WEIGHTED_CENTER},
    "prior": {},
}


def _knob_case(knob, data):
    """A database and the extractor options for ``knob``.  Every knob
    draws twins (bisimilar copies, so Stage 1's classes have several
    members and class-level edge kinds several edges); the sorted knob
    adds a sort twin (an object that differs from another only in the
    sorts of its atomic targets); the prior knob adds a known type,
    frozen in Stage 2, with one known member, sometimes a twin, which
    makes the start not class-constant."""
    base = sort_twin_databases() if knob == "sorted" else databases()
    db = data.draw(twin_databases(base))
    options = dict(PIPELINE_KNOBS[knob])
    if knob == "prior":
        options["prior"] = PriorKnowledge(
            program=parse_program("known = ->a^0"),
            assignment={
                data.draw(st.sampled_from(sorted(db.complex_objects()))):
                    {"known"}
            },
            weight_boost=1.0,
        )
    return db, options


def _withheld(extractor):
    """``extractor``'s Stage 1 without its classes: Stages 2–3 then run
    on the identity partition."""
    return replace(extractor.stage1(), representative=None)


class _Reach:
    """Counts, over a property test's examples, how often the class
    code was reached: a class with several members, a class-level edge
    kind with several edges, and a start that is not class-constant."""

    def __init__(self):
        self.classes = self.counts = self.split = 0

    def record(self, db, stage1, start):
        index = LocalIndex(db, LinkSpace(), classes=stage1.representative)
        self.classes += max(index.size, default=0) > 1
        self.counts += any(
            count > 1 for edges in index.out for *_, count in edges
        )
        self.split += any(
            start.get(obj) != start.get(rep)
            for obj, rep in stage1.representative.items()
        )

    def check(self, knob):
        assert self.classes > 0, "no class had several members"
        assert self.counts > 0, "no edge kind counted several edges"
        if knob == "prior":
            assert self.split > 0, "every start was class-constant"


class TestPipelineEquivalence:
    """The production run, on Stage 1's classes, against the frozenset
    oracle (``use_bitset=False``) and against the same run with the
    classes withheld (the identity partition)."""

    @pytest.mark.parametrize("knob", sorted(PIPELINE_KNOBS))
    def test_extract_identical(self, knob):
        reach = _Reach()

        @given(st.data())
        @settings(max_examples=25, deadline=None)
        def run(data):
            db, options = _knob_case(knob, data)
            probe = SchemaExtractor(db, use_bitset=True, **options)
            stage1 = probe.stage1()
            reach.record(db, stage1, probe._starting_point(stage1)[1])
            k = data.draw(st.integers(1, len(stage1.program)))
            bitset = probe.extract(k=k)
            withheld = SchemaExtractor(
                db, stage1=_withheld(probe), **options
            ).extract(k=k)
            plain = SchemaExtractor(db, use_bitset=False, **options).extract(
                k=k
            )
            for other in (plain, withheld):
                assert bitset.program == other.program
                assert bitset.assignment == other.assignment
                assert bitset.recast_result == other.recast_result
                assert bitset.defect.total == other.defect.total
                assert bitset.defect.excess.count == other.defect.excess.count

        run()
        reach.check(knob)

    @pytest.mark.parametrize("knob", sorted(PIPELINE_KNOBS))
    def test_sweep_identical(self, knob):
        reach = _Reach()

        @given(st.data())
        @settings(max_examples=150, deadline=None)
        def run(data):
            db, options = _knob_case(knob, data)
            probe = SchemaExtractor(db, use_bitset=True, **options)
            stage1 = probe.stage1()
            reach.record(db, stage1, probe._starting_point(stage1)[1])
            bitset = probe.sweep()
            withheld = SchemaExtractor(
                db, stage1=_withheld(probe), **options
            ).sweep()
            plain = SchemaExtractor(db, use_bitset=False, **options).sweep()
            assert bitset.points == plain.points
            assert bitset.points == withheld.points

        run()
        reach.check(knob)


class TestCarriedSample:
    """The sweep carries each sample's state to the next and re-derives
    only what the merges since touched; at every sample it must equal
    the bulk kernels run from scratch on the same merger state."""

    @staticmethod
    def _bulk(db, space, classes, bodies, merge_map, start, members,
              fallback):
        """Final types and ``(excess, deficit)`` from scratch, on an
        index of their own over the same classes."""
        index = LocalIndex(db, space, classes=classes)
        home = [
            None if homes is None else frozenset(
                merge_map[t] for t in homes if merge_map.get(t) is not None
            )
            for homes in (start.get(obj) for obj in index.objects)
        ]
        final, placed, _, _ = recast_masks(
            index, list(bodies.items()), home, members, fallback
        )
        _, excess, deficit = defect_masks(index, bodies, final)
        return final, placed, (sum(excess), sum(deficit))

    @pytest.mark.parametrize("knob", sorted(PIPELINE_KNOBS))
    def test_matches_bulk_kernels_at_every_sample(self, knob):
        reached = {"samples": 0, "gaps": 0, "placed": 0, "failed": 0}
        reach = _Reach()

        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def run(data):
            db, options = _knob_case(knob, data)
            extractor = SchemaExtractor(db, **options)
            stage1 = extractor.stage1()
            program, assignment, weights, frozen, _ = (
                extractor._starting_point(stage1)
            )
            # Objects left out of the home assignment keep only the
            # rules they cover, and the fallback places them when they
            # cover none.  Objects re-homed away from their Stage 1
            # type have edges no starting body holds, so merges mint
            # bits their neighbours' local pictures must pick up.  Half
            # the time both apply to whole classes, so the start stays
            # class-constant and the sample runs on the classes.
            unhomed = data.draw(
                st.sets(st.sampled_from(sorted(assignment))), label="unhomed"
            )
            rehomed = data.draw(
                st.dictionaries(
                    st.sampled_from(sorted(assignment)),
                    st.sampled_from(sorted(program.type_names())),
                    max_size=3,
                ),
                label="rehomed",
            )
            rep = stage1.representative
            if data.draw(st.booleans(), label="by class"):
                dropped = {rep[obj] for obj in unhomed}
                unhomed = {obj for obj in rep if rep[obj] in dropped}
                moved = {rep[obj]: name for obj, name in rehomed.items()}
                rehomed = {obj: moved[rep[obj]] for obj in rep if rep[obj] in moved}
            start = {
                obj: frozenset([rehomed[obj]]) if obj in rehomed else homes
                for obj, homes in assignment.items()
                if obj not in unhomed
            }
            reach.record(db, stage1, start)
            classes = stage1.classes_for(start)
            mode = options.get("recast_mode", RecastMode.HOME_GUIDED)
            fallback = options.get("fallback", "closest")
            merger = GreedyMerger(
                program,
                weights,
                distance=extractor._resolve_distance(stage1),
                policy=options.get("policy", MergePolicy.ABSORB),
                allow_empty_type=options.get("allow_empty_type", False),
                frozen=frozen,
            )
            step = data.draw(st.integers(1, 3), label="step")
            sample_at = data.draw(
                st.one_of(
                    st.none(), st.sets(st.integers(1, merger.num_types))
                ),
                label="sample_at",
            )
            ks = sample_grid(
                merger.num_types, 1, None, step, sample_at, len(frozen)
            )
            space = merger.link_space
            index = LocalIndex(db, space, classes=classes)
            carried = _CarriedSample(
                index,
                space,
                [start.get(obj) for obj in index.objects],
                fallback,
                PerfRecorder(),
            )
            last = None
            while True:
                if merger.num_types in ks:
                    bodies, merge_map = merger.bodies, merger.merge_map()
                    members = None
                    if mode is RecastMode.STRICT:
                        members = index.members(
                            greatest_fixpoint(
                                merger.current_program(), db
                            ).extents
                        )
                    final = list(carried.recast(bodies, merge_map, members))
                    measured = carried.defect()
                    want, placed, counts = self._bulk(
                        db, space, classes, bodies, merge_map, start,
                        members, fallback,
                    )
                    assert final == want
                    assert measured == counts
                    reached["samples"] += 1
                    reached["placed"] += bool(placed)
                    # A homed object placed by the fallback: STRICT's
                    # GFP dropped it from every type.
                    reached["failed"] += any(
                        index.objects[i] in start for i in placed
                    )
                    if last is not None and last - merger.num_types > 1:
                        reached["gaps"] += 1
                    last = merger.num_types
                if merger.num_types <= min(ks, default=merger.num_types):
                    break
                merger.step()

        run()
        reach.check(knob)
        assert reached["samples"] > 0
        assert reached["gaps"] > 0, "no sample followed several merges"
        if knob != "no_fallback":
            assert reached["placed"] > 0, "the fallback placed no object"
        if knob == "strict":
            assert reached["failed"] > 0, "every homed object kept a type"

    def test_bit_interned_between_samples(self):
        """``q`` keeps its home ``T`` while ``A`` merges into ``T``.  The
        retarget mints ``->l^T`` in ``R``'s body, a link no body held
        before, and ``p``, whose edge to ``q`` witnesses it, now covers
        ``R``: its local picture changed although no home moved."""
        db = Database()
        db.add_atomic("leaf", 0)
        db.add_link("p", "q", "l")
        db.add_link("p", "leaf", "m")
        db.add_link("q", "leaf", "x")
        program = parse_program(
            """
            T = ->x^0
            A = ->y^0
            R = ->l^A
            S = ->m^0
            """
        )
        start = {"p": frozenset(["S"]), "q": frozenset(["T"])}
        merger = GreedyMerger(program, {name: 1 for name in "TARS"})
        space = merger.link_space
        index = LocalIndex(db, space)
        carried = _CarriedSample(
            index, space, [start.get(obj) for obj in index.objects],
            "closest", PerfRecorder(),
        )
        p = index.position["p"]
        for pairs in ([], [("T", "A")]):
            merger.replay(pairs)
            bodies, merge_map = merger.bodies, merger.merge_map()
            final = list(carried.recast(bodies, merge_map))
            measured = carried.defect()
            want, _, counts = self._bulk(
                db, space, None, bodies, merge_map, start, None, "closest"
            )
            assert final == want
            assert measured == counts
        assert "R" in final[p]


class TestClusterMachineryEquivalence:
    @given(st.lists(bodies(), min_size=2, max_size=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kmedian_with_cached_body_distance(self, point_bodies, data):
        k = data.draw(st.integers(1, len(point_bodies)))
        weights = [1.0] * len(point_bodies)

        def closure(i, j):
            return float(manhattan_bodies(point_bodies[i], point_bodies[j]))

        via_kernel = greedy_k_median(
            weights, k, CachedBodyDistance(point_bodies),
            cache_distances=False,
        )
        via_closure = greedy_k_median(weights, k, closure)
        assert via_kernel.medians == via_closure.medians
        assert via_kernel.assignment == via_closure.assignment
        assert via_kernel.cost == via_closure.cost

    @given(
        st.lists(bodies(), min_size=2, max_size=6),
        st.sampled_from(["single", "complete", "average", "weighted"]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_agglomerate_with_cached_body_distance(
        self, point_bodies, linkage, data
    ):
        k = data.draw(st.integers(1, len(point_bodies)))

        def closure(i, j):
            return float(manhattan_bodies(point_bodies[i], point_bodies[j]))

        via_kernel = agglomerate(
            len(point_bodies), k, CachedBodyDistance(point_bodies),
            linkage=linkage, cache_distances=False,
        )
        via_closure = agglomerate(
            len(point_bodies), k, closure, linkage=linkage
        )
        assert via_kernel == via_closure
