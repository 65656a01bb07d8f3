"""Output checks: a corrupted input must count as a failed job, not a pass."""

import time

import run
from workloads import prepare_verify_bf


def _flip_first_payload_bit(path):
    header, payload, rest = path.read_text().split("\n", 2)
    flipped = format(int(payload[0], 16) ^ 1, "x")
    path.write_text("\n".join([header, flipped + payload[1:], rest]))


def test_clean_bent_input_passes(tmp_path):
    job = prepare_verify_bf(10, 7, tmp_path, None)
    record = run.run_job(job, tmp_path / "job")
    assert record["code"] == 0 and record["problems"] == []


def test_one_flipped_bit_counts_as_failure(tmp_path):
    job = prepare_verify_bf(10, 7, tmp_path, None)
    _flip_first_payload_bit(tmp_path / "input.bf")
    records = run.measure(job, tmp_path, 0, 0, time.monotonic())
    assert len(records) == run.MIN_JOBS
    assert all(r["code"] == 0 and r["problems"] for r in records)
