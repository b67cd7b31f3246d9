"""Figure 3: the trace event and annotation schema."""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.experiments.registry import ExperimentResult, register
from repro.trace.annotations import ANNOTATION_DESCRIPTIONS, ANNOTATION_NAMES
from repro.trace.events import EVENT_DESCRIPTIONS, EVENT_TYPES


@register("fig03", "Trace event and annotation types", "Figure 3")
def run(profile: str, session) -> ExperimentResult:
    """Render the event/annotation tables (static; profile ignored)."""
    events = format_table(
        ("Event type", "Details"),
        [(name, EVENT_DESCRIPTIONS[name]) for name in EVENT_TYPES],
        title="Figure 3 (events)",
    )
    annotations = format_table(
        ("Annotation type", "Details"),
        [(name, ANNOTATION_DESCRIPTIONS[name]) for name in ANNOTATION_NAMES],
        title="Figure 3 (annotations)",
    )
    text = events + "\n\n" + annotations
    return ExperimentResult(
        "fig03",
        text,
        data={"events": list(EVENT_TYPES), "annotations": list(ANNOTATION_NAMES)},
    )
