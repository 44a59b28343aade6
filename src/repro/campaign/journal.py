"""Append-only campaign journal: checkpoint/restart for the harness itself.

The paper checkpoints distributed *applications*; this module applies
the same idea to the campaign executor. Every finalised cell outcome is
appended to a JSONL journal — one fsync'd line per cell, keyed by the
cell's label **and** its spec's content hash
(:meth:`~repro.campaign.spec.ScenarioSpec.content_hash`). A campaign
that is SIGKILL'd mid-flight restarts with ``--resume``: completed
cells are served from the journal (the executor skips them entirely)
and only unfinished cells re-execute, after which the merged artifact
is byte-identical to a clean run.

Durability model, in the spirit of the repo's two-phase checkpoint
store:

- **Append-only.** A record is one JSON line; nothing is ever
  rewritten in place.
- **fsync per record.** A cell is either durably finished or not
  finished; there is no in-between visible after a crash.
- **Torn-tail tolerance.** A SIGKILL can land mid-``write``, leaving a
  truncated final line. Loading ignores a torn *tail* (counting it in
  :attr:`CampaignJournal.torn_entries`) and the next append first
  truncates the file back to the last intact record, so the journal
  never accretes corruption. Garbage *before* the tail is refused
  loudly — silently dropping completed work would be worse than
  re-running it.
- **Content-keyed skip.** A journal entry only satisfies a cell whose
  key *and* content hash both match, so editing a campaign file
  invalidates exactly the edited cells (AutoCheck's minimal-state
  principle: recompute only what actually changed).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import SimulationError

#: Bumped whenever the journal record schema changes incompatibly;
#: a version-mismatched journal is refused rather than misread.
JOURNAL_VERSION = 1


class CampaignJournal:
    """An append-only, fsync'd, torn-tail-tolerant outcome journal.

    The executor calls :meth:`load` once (to learn what is already
    done), :meth:`record` per finalised cell, and :meth:`close` at the
    end. Entries live in memory as ``{key: (cell_hash, outcome_dict)}``
    after a load; duplicate keys keep the newest record (outcomes are
    deterministic, so duplicates are byte-identical in practice).
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.torn_entries = 0
        self._entries: dict[str, tuple[str, dict]] = {}
        self._loaded = False
        self._valid_bytes = 0
        self._fh = None

    # -- reading -----------------------------------------------------------------

    def load(self) -> dict[str, tuple[str, dict]]:
        """Read the journal into ``{key: (cell_hash, outcome_dict)}``.

        Idempotent. A missing file is an empty journal. A torn final
        line is tolerated (and counted); any earlier unparsable or
        malformed line raises :class:`~repro.errors.SimulationError`.
        """
        if self._loaded:
            return self._entries
        self._loaded = True
        if not self.path.exists():
            return self._entries
        raw = self.path.read_bytes()
        offset = 0
        lines = raw.split(b"\n")
        # A trailing newline yields a final empty chunk; real content
        # after the last newline is the torn-tail candidate.
        for index, line in enumerate(lines):
            is_last = index == len(lines) - 1
            if not line.strip():
                offset += len(line) + (0 if is_last else 1)
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                self._ingest(record)
            except (ValueError, KeyError, TypeError) as exc:
                if is_last:
                    self.torn_entries += 1
                    break
                raise SimulationError(
                    f"corrupt campaign journal {self.path}: unreadable "
                    f"record on line {index + 1} ({exc!r}); only the "
                    f"final line may be torn"
                ) from exc
            offset += len(line) + (0 if is_last else 1)
        self._valid_bytes = offset
        return self._entries

    def _ingest(self, record) -> None:
        """Fold one parsed journal record into the entry map."""
        if not isinstance(record, dict):
            raise ValueError(f"journal record is not an object: {record!r}")
        kind = record["kind"]
        if kind == "header":
            version = record["version"]
            if version != JOURNAL_VERSION:
                raise SimulationError(
                    f"campaign journal {self.path} has version {version}; "
                    f"this build reads version {JOURNAL_VERSION}"
                )
            return
        if kind != "cell":
            raise ValueError(f"unknown journal record kind {kind!r}")
        outcome = record["outcome"]
        if not isinstance(outcome, dict):
            raise ValueError("journal cell record outcome is not an object")
        self._entries[str(record["key"])] = (str(record["hash"]), outcome)

    def get(self, key: str, cell_hash: str) -> dict | None:
        """The journaled outcome for ``(key, cell_hash)``, or ``None``.

        Both the key and the content hash must match — a journal written
        against an edited spec never satisfies the new one.
        """
        entry = self._entries.get(key)
        if entry is None or entry[0] != cell_hash:
            return None
        return entry[1]

    def __len__(self) -> int:
        return len(self._entries)

    # -- writing -----------------------------------------------------------------

    def _open_for_append(self):
        if self._fh is not None:
            return self._fh
        self.load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._fh = open(self.path, "r+b")
            # Drop any torn tail so the next record starts on a clean
            # line boundary.
            self._fh.seek(self._valid_bytes)
            self._fh.truncate()
        else:
            self._fh = open(self.path, "xb")
            self._write_record(
                {"kind": "header", "version": JOURNAL_VERSION}
            )
        return self._fh

    def _write_record(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._fh.write(line.encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(self, key: str, cell_hash: str, outcome: dict) -> None:
        """Durably append one finalised cell outcome.

        The record is flushed and fsync'd before this returns: once a
        cell is reported finished, a SIGKILL cannot un-finish it.
        """
        self._open_for_append()
        self._write_record({
            "kind": "cell",
            "key": str(key),
            "hash": str(cell_hash),
            "outcome": outcome,
        })
        self._entries[str(key)] = (str(cell_hash), outcome)

    def close(self) -> None:
        """Close the underlying file handle (safe to call repeatedly)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        """Context-manager entry: the journal itself."""
        return self

    def __exit__(self, *_exc) -> None:
        """Context-manager exit: close the journal."""
        self.close()
