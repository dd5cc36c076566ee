"""The per-object Stage 1: the oracle for Stage 1 on the quotient."""

from repro.core.fixpoint import greatest_fixpoint
from repro.core.perfect import (
    build_object_program,
    collapse_object_fixpoint,
    local_rule,
)


def per_object_stage1(db, local_rule_fn=None):
    """Stage 1 as Section 4 states it: the GFP of ``Q_D`` over every
    complex object, then the per-object collapse."""
    build = local_rule_fn if local_rule_fn is not None else local_rule
    return collapse_object_fixpoint(
        db, build, greatest_fixpoint(build_object_program(db, build), db)
    )


def stage1_fields(typing):
    """Every field of a :class:`PerfectTyping` but the ``q_iterations``
    diagnostic, which counts the work of whichever GFP ran."""
    return typing.program, typing.home_type, typing.extents, typing.weights


def wrapped_local_rule(db, obj):
    """A rule builder Stage 1 does not know: it delegates to the plain
    local rule, so Stage 1 must start from its rules' atomic links."""
    return local_rule(db, obj)
