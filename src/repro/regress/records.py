"""Baseline behavior records: schema, governance states, transitions.

A *baseline record* pins the expected behavior of one previously-seen
simulation input, keyed by the input's semantic ID (for single-machine
points that is exactly the result-cache key, so the cache and the
firewall agree on identity by construction).  On disk a record is one
JSON file under ``benchmarks/baselines/``:

.. code-block:: text

    {
      "schema": 1,                  # BASELINE_SCHEMA_VERSION
      "sim_schema": 2,              # repro.sim.cache.SIM_SCHEMA_VERSION
      "semid": "<sha256>",          # == the addressing filename stem
      "kind": "point" | "multicore" | "experiment",
      "scenario": {...},            # human-readable input description
      "behavior": {...},            # the governed expected behavior
      "candidate_behavior": {...}|null,  # pending divergent recapture
      "status": "candidate" | "approved" | "retired",
      "history": [{"seq": 1, "action": "capture", "at": "...",
                   "note": "...", ...}, ...]   # append-only audit log
    }

Behavior dictionaries hold only deterministic simulation outputs —
cycle counts, retired instructions, a final-architectural-state hash,
a perf-counter signature, expectation outcomes — never host wall-clock
measurements, so a record verifies bit-identically on any machine.

Governance
----------

``status`` moves through an explicit lifecycle; anything else raises
:class:`BaselineTransitionError`:

* ``capture`` of an unseen input creates a ``candidate`` record.
* ``promote`` turns a candidate into ``approved`` (and, when a
  divergent recapture left a ``candidate_behavior``, installs that
  pending behavior as the governed one).  Promotion is the *only*
  green path for an intentional behavior change.
* ``retire`` ends a record's life (``candidate|approved → retired``);
  retired records are skipped by verification and can never be
  promoted back — re-capture mints a fresh candidate lifecycle in the
  audit history instead.

Every transition appends an entry to ``history``; the store enforces
that history is append-only (a save that rewrites or drops entries is
rejected), so the audit log is tamper-evident by construction.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.regress import semid as semid_mod

BASELINE_SCHEMA_VERSION = 1

STATUS_CANDIDATE = "candidate"
STATUS_APPROVED = "approved"
STATUS_RETIRED = "retired"
STATUSES = (STATUS_CANDIDATE, STATUS_APPROVED, STATUS_RETIRED)

KINDS = ("point", "multicore", "experiment")

# The full set of legal status transitions.  Promotion from ``approved``
# is legal only when a divergent recapture is pending (the status does
# not change, but the governed behavior does — see promote()).
ALLOWED_TRANSITIONS = frozenset({
    (STATUS_CANDIDATE, STATUS_APPROVED),   # promote
    (STATUS_CANDIDATE, STATUS_RETIRED),    # retire
    (STATUS_APPROVED, STATUS_RETIRED),     # retire
})


class BaselineSchemaError(ReproError):
    """A baseline record does not match the published schema."""


class BaselineTransitionError(ReproError):
    """An illegal governance transition was requested."""


class BaselineAuditError(ReproError):
    """The append-only audit history was violated."""


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


@dataclasses.dataclass
class BaselineRecord:
    """One governed behavior record (see the module docstring)."""

    semid: str
    kind: str
    scenario: Dict[str, Any]
    behavior: Dict[str, Any]
    status: str = STATUS_CANDIDATE
    candidate_behavior: Optional[Dict[str, Any]] = None
    history: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    schema: int = BASELINE_SCHEMA_VERSION
    sim_schema: Optional[int] = None

    # -- audit --------------------------------------------------------

    def log(self, action: str, note: str = "", **detail: Any) -> None:
        """Append one audit entry (the only way history may grow)."""
        entry: Dict[str, Any] = {
            "seq": len(self.history) + 1,
            "action": action,
            "at": _utc_now(),
            "note": note,
        }
        entry.update(detail)
        self.history.append(entry)

    # -- governance ---------------------------------------------------

    def _check_transition(self, new_status: str) -> None:
        if (self.status, new_status) not in ALLOWED_TRANSITIONS:
            raise BaselineTransitionError(
                f"illegal transition {self.status!r} -> {new_status!r} "
                f"for baseline {semid_mod.short_id(self.semid)} "
                f"(allowed: candidate->approved, candidate->retired, "
                f"approved->retired)"
            )

    def promote(self, note: str = "") -> str:
        """Approve this record's behavior; returns what happened.

        Either promotes a ``candidate`` record, or — when a divergent
        recapture left a pending ``candidate_behavior`` — installs the
        pending behavior as the governed one.  Retired records, and
        approved records with nothing pending, cannot be promoted.
        """
        if self.status == STATUS_RETIRED:
            raise BaselineTransitionError(
                f"baseline {semid_mod.short_id(self.semid)} is retired; "
                f"retired records cannot be promoted (re-capture instead)"
            )
        if self.candidate_behavior is not None:
            changed = sorted(
                field for field in
                set(self.behavior) | set(self.candidate_behavior)
                if self.behavior.get(field)
                != self.candidate_behavior.get(field)
            )
            previous_status = self.status
            if self.status == STATUS_CANDIDATE:
                self._check_transition(STATUS_APPROVED)
            self.behavior = self.candidate_behavior
            self.candidate_behavior = None
            self.status = STATUS_APPROVED
            self.log("promote", note, from_status=previous_status,
                     behavior_fields_changed=changed)
            return "promoted-recapture"
        if self.status == STATUS_APPROVED:
            raise BaselineTransitionError(
                f"baseline {semid_mod.short_id(self.semid)} is already "
                f"approved with no pending recapture; nothing to promote"
            )
        self._check_transition(STATUS_APPROVED)
        self.status = STATUS_APPROVED
        self.log("promote", note, from_status=STATUS_CANDIDATE)
        return "promoted"

    def retire(self, note: str = "") -> None:
        self._check_transition(STATUS_RETIRED)
        previous = self.status
        self.status = STATUS_RETIRED
        self.log("retire", note, from_status=previous)

    # -- comparison ---------------------------------------------------

    def diff_behavior(
            self, observed: Dict[str, Any]
    ) -> Dict[str, Tuple[Any, Any]]:
        """Field-wise ``{name: (expected, observed)}`` divergences."""
        return {
            field: (self.behavior.get(field), observed.get(field))
            for field in sorted(set(self.behavior) | set(observed))
            if self.behavior.get(field) != observed.get(field)
        }

    # -- (de)serialization --------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "schema": self.schema,
            "sim_schema": self.sim_schema,
            "semid": self.semid,
            "kind": self.kind,
            "scenario": self.scenario,
            "behavior": self.behavior,
            "candidate_behavior": self.candidate_behavior,
            "status": self.status,
            "history": self.history,
        }
        validate_record_doc(doc)
        return doc

    @classmethod
    def from_doc(cls, doc: Any) -> "BaselineRecord":
        validate_record_doc(doc)
        return cls(
            semid=doc["semid"],
            kind=doc["kind"],
            scenario=doc["scenario"],
            behavior=doc["behavior"],
            status=doc["status"],
            candidate_behavior=doc["candidate_behavior"],
            history=list(doc["history"]),
            schema=doc["schema"],
            sim_schema=doc["sim_schema"],
        )


_TOP_FIELDS: Dict[str, type] = {
    "schema": int,
    "semid": str,
    "kind": str,
    "scenario": dict,
    "behavior": dict,
    "status": str,
    "history": list,
}


def validate_record_doc(doc: Any) -> None:
    """Raise :class:`BaselineSchemaError` unless ``doc`` is a valid
    schema-versioned baseline record document."""
    if not isinstance(doc, dict):
        raise BaselineSchemaError("baseline record must be an object")
    for field, kind in _TOP_FIELDS.items():
        if field not in doc:
            raise BaselineSchemaError(
                f"baseline record is missing {field!r}"
            )
        if isinstance(doc[field], bool) or not isinstance(
                doc[field], kind):
            raise BaselineSchemaError(
                f"baseline record field {field!r} must be "
                f"{kind.__name__}, got {type(doc[field]).__name__}"
            )
    if doc["schema"] != BASELINE_SCHEMA_VERSION:
        raise BaselineSchemaError(
            f"unsupported baseline schema {doc['schema']!r} "
            f"(this library reads {BASELINE_SCHEMA_VERSION})"
        )
    if doc["status"] not in STATUSES:
        raise BaselineSchemaError(f"bad status {doc['status']!r}")
    if doc["kind"] not in KINDS:
        raise BaselineSchemaError(f"bad kind {doc['kind']!r}")
    if "candidate_behavior" not in doc or not isinstance(
            doc["candidate_behavior"], (dict, type(None))):
        raise BaselineSchemaError(
            "candidate_behavior must be an object or null"
        )
    if not isinstance(doc.get("sim_schema"), (int, type(None))) or \
            isinstance(doc.get("sim_schema"), bool):
        raise BaselineSchemaError("sim_schema must be an int or null")
    for index, entry in enumerate(doc["history"]):
        if not isinstance(entry, dict):
            raise BaselineSchemaError(
                f"history[{index}] must be an object"
            )
        for field in ("seq", "action", "at"):
            if field not in entry:
                raise BaselineSchemaError(
                    f"history[{index}] is missing {field!r}"
                )
        if entry["seq"] != index + 1:
            raise BaselineSchemaError(
                f"history[{index}] has seq {entry['seq']!r}, "
                f"expected {index + 1} (audit entries are dense and "
                f"append-only)"
            )
