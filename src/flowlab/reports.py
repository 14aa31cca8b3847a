"""Verification report objects shared by the flow catalog and the check harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


class JsonRecord:
    """A record that ``to_jsonable`` turns into a dict, written as sorted,
    indented JSON text."""

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_jsonable(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


@dataclass
class VerificationReport(JsonRecord):
    """Outcome of one estimate check.

    ``passed`` is always ``max_defect <= tolerance``; ``witness`` records the
    worst-case sample point.
    """

    check_id: str
    max_defect: float
    tolerance: float
    witness: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.max_defect <= self.tolerance)

    def to_jsonable(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.check_id}: max_defect={self.max_defect:.6g} "
            f"tol={self.tolerance:.6g}"
        )
