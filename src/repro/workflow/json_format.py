"""JSON workflow format.

Section IV-D: "the workflow is given in a JSON format which will be
translated into an HOCL workflow prior to execution".  This module defines
that user-facing format and its (de)serialisation.  The schema is:

.. code-block:: json

    {
      "name": "my-workflow",
      "tasks": [
        {"name": "T1", "service": "s1", "inputs": ["input"], "duration": 1.0,
         "depends_on": [], "metadata": {}},
        {"name": "T2", "service": "s2", "depends_on": ["T1"]}
      ],
      "adaptations": [
        {"name": "replace-T2",
         "replaced": ["T2"],
         "trigger_on": ["T2"],
         "entry_sources": {"T2p": ["T1"]},
         "replacement": {"name": "alt", "tasks": [
             {"name": "T2p", "service": "s2-alt", "depends_on": []}]}}
      ]
    }

``workflow_from_json`` accepts a JSON string, a parsed dictionary or a file
path; ``workflow_to_json`` is its inverse (round-trip safe).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from .adaptive import AdaptationSpec
from .dag import Task, Workflow
from .errors import JSONFormatError

__all__ = ["workflow_from_json", "workflow_to_json", "workflow_to_dict", "workflow_from_dict"]


def _json_safe(value: Any, context: str) -> Any:
    """Canonical JSON form of a task input / metadata value.

    ``json.dumps`` silently mutates some values (tuples become lists) and
    raises deep inside the encoder on others (numpy integers); scenario
    generators stamp exactly that kind of cost-profile metadata.  Converting
    *before* serialisation makes the round-trip lossless — the canonical form
    is what both the file and the parsed workflow carry — and turns the rest
    into a :class:`JSONFormatError` naming the offending task field.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item, context) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item, context) for item in value]
    # numpy arrays (tolist) and scalars (item) without importing numpy here;
    # tolist first so a 1-element array stays a list instead of collapsing
    # to item()'s scalar
    for attribute in ("tolist", "item"):
        converter = getattr(value, attribute, None)
        if callable(converter):
            try:
                return _json_safe(converter(), context)
            except (TypeError, ValueError):
                continue
    raise JSONFormatError(
        f"{context}: value {value!r} of type {type(value).__name__} is not JSON-serialisable"
    )


def workflow_to_dict(workflow: Workflow) -> dict[str, Any]:
    """Serialise a workflow (and its adaptations) into a JSON-compatible dict.

    Inputs and metadata are normalised to their canonical JSON form
    (tuples/arrays to lists, numpy scalars to Python scalars), so
    ``workflow_from_dict(workflow_to_dict(w))`` reproduces the document
    exactly; values with no JSON form raise :class:`JSONFormatError` here
    instead of deep inside ``json.dumps``.
    """
    document: dict[str, Any] = {
        "name": workflow.name,
        "tasks": [
            {
                "name": task.name,
                "service": task.service,
                "inputs": _json_safe(list(task.inputs), f"task {task.name!r} inputs"),
                "duration": float(task.duration),
                "depends_on": workflow.predecessors(task.name),
                "metadata": _json_safe(dict(task.metadata), f"task {task.name!r} metadata"),
            }
            for task in workflow
        ],
    }
    if workflow.adaptations:
        document["adaptations"] = [
            {
                "name": spec.name,
                "replaced": list(spec.replaced),
                "trigger_on": spec.trigger_tasks(),
                "entry_sources": {key: list(value) for key, value in spec.entry_sources.items()},
                "clear_destination_inputs": spec.clear_destination_inputs,
                "replacement": workflow_to_dict(spec.replacement),
            }
            for spec in workflow.adaptations
        ]
    return document


def workflow_to_json(workflow: Workflow, path: str | Path | None = None, indent: int = 2) -> str:
    """Serialise a workflow to a JSON string, optionally writing it to ``path``."""
    text = json.dumps(workflow_to_dict(workflow), indent=indent)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


#: key -> JSON type, per level.  A key outside its table is a typo that would
#: otherwise be dropped in silence (``sources`` for ``depends_on``).
_DOCUMENT: dict[str, Any] = {"name": str, "tasks": list, "adaptations": list}
_TASK: dict[str, Any] = dict(
    name=str, service=str, inputs=list, duration=(int, float), depends_on=list, metadata=Mapping
)
_ADAPTATION: dict[str, Any] = dict(
    name=str, replaced=list, trigger_on=list, entry_sources=Mapping, clear_destination_inputs=bool, replacement=Mapping
)
_KINDS = {str: "a string", list: "a list", Mapping: "an object", bool: "true or false", (int, float): "a number"}


def _checked(value: Any, schema: dict[str, Any], context: str) -> Mapping[str, Any]:
    """``value``, checked to be an object whose every key is in ``schema`` and
    holds a value of the JSON type the schema gives it."""
    if not isinstance(value, Mapping):
        raise JSONFormatError(f"{context}: expected an object, got {value!r:.40}")
    for key, item in value.items():
        kind = schema.get(key)
        if kind is None or not isinstance(item, kind) or (isinstance(item, bool) and kind is not bool):
            named = f"{context} {value['name']!r}" if isinstance(value.get("name"), str) else context
            if kind is None:
                raise JSONFormatError(f"{named}: unknown key {key!r}; known keys: {', '.join(schema)}")
            raise JSONFormatError(f"{named}: {key!r} must be {_KINDS[kind]}, got {item!r:.40}")
    return value


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise JSONFormatError(f"{context}: missing required key {key!r}")
    return mapping[key]


def workflow_from_dict(document: Mapping[str, Any]) -> Workflow:
    """Build a workflow from a parsed JSON document.

    Unknown keys (at document, task and adaptation level) and values of the
    wrong JSON type are rejected with a :class:`JSONFormatError` naming the
    workflow, the task and the field: a document is run as written or not
    at all.
    """
    _checked(document, _DOCUMENT, "workflow document")
    name = document.get("name", "workflow")
    context = f"workflow {name!r}"
    tasks = _require(document, "tasks", context)
    if not tasks:
        raise JSONFormatError(f"{context}: 'tasks' must be a non-empty list")

    workflow = Workflow(name=name)
    dependencies: list[tuple[str, str]] = []
    for entry in tasks:
        _checked(entry, _TASK, f"{context} task")
        task_name = _require(entry, "name", f"{context} task")
        task = Task(
            name=task_name,
            service=_require(entry, "service", f"{context} task {task_name!r}"),
            inputs=list(entry.get("inputs", ())),
            duration=float(entry.get("duration", 0.0)),
            metadata=dict(entry.get("metadata", ())),
        )
        workflow.add_task(task)
        for source in entry.get("depends_on", ()):
            dependencies.append((source, task_name))
    for source, destination in dependencies:
        workflow.add_dependency(source, destination)

    specs: list[AdaptationSpec] = []
    for adaptation in document.get("adaptations", ()):
        _checked(adaptation, _ADAPTATION, f"{context} adaptation")
        spec_name = _require(adaptation, "name", f"{context} adaptation")
        where = f"{context} adaptation {spec_name!r}"
        entry_sources = {}
        for entry_task, sources in adaptation.get("entry_sources", {}).items():
            if not isinstance(sources, list):
                raise JSONFormatError(f"{where}: 'entry_sources' of {entry_task!r} must be a list, got {sources!r:.40}")
            entry_sources[entry_task] = list(sources)
        specs.append(AdaptationSpec(
            name=spec_name,
            replaced=list(_require(adaptation, "replaced", where)),
            replacement=workflow_from_dict(_require(adaptation, "replacement", where)),
            entry_sources=entry_sources,
            trigger_on=list(adaptation.get("trigger_on", ())) or None,
            clear_destination_inputs=adaptation.get("clear_destination_inputs", False),
        ))
    # each specification is checked once, as it is attached to the valid workflow
    workflow.validate()
    for spec in specs:
        workflow.add_adaptation(spec)
    return workflow


def workflow_from_json(source: str | Path | Mapping[str, Any]) -> Workflow:
    """Build a workflow from a JSON string, a file path or a parsed dict."""
    if isinstance(source, Mapping):
        return workflow_from_dict(source)
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and source.endswith(".json")):
        path = Path(source)
        if not path.exists():
            raise JSONFormatError(f"workflow file not found: {path}")
        text = path.read_text(encoding="utf-8")
    else:
        text = str(source)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JSONFormatError(f"invalid JSON workflow document: {exc}") from exc
    return workflow_from_dict(document)
