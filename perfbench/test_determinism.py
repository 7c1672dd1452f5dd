"""Two traced runs of each workload at the same seed must report identical
exact counts: index bytes, build and stream write bytes (wchar), read
syscalls (syscr), spill and compaction counts, list-cache hits and
evictions, the query layer's list and window counts, and the memorized
count. Builds the benchmark first; takes a few minutes.

    python3 -m unittest discover -s perfbench -p 'test_determinism.py'
"""

import unittest

import run

# Counts each workload must report (a subset of what it reports).
REQUIRED = {
    "memo_eval": ["memorized", "index_bytes", "build_write_bytes",
                  "query.read_syscalls", "query.io_bytes", "query.short_lists"],
    "serve_zipf": ["index_bytes", "build_write_bytes", "list_cache.hits",
                   "list_cache.evictions", "query.read_syscalls",
                   "query.shared_cache_hits"],
    "ingest_mix": ["index_bytes", "build_write_bytes", "ingest.spills",
                   "ingest.compactions", "ingest.stream_write_bytes",
                   "ingest.stream_read_syscalls", "query.io_bytes"],
}


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check(self, workload):
        first, second = (run.run_binary(self.binary, workload, 7, 2, 1)["counts"]
                         for _ in range(2))
        for key in REQUIRED[workload]:
            self.assertIn(key, first)
        self.assertEqual(first, second)

    def test_memo_eval(self):
        self.check("memo_eval")

    def test_serve_zipf(self):
        self.check("serve_zipf")

    def test_ingest_mix(self):
        self.check("ingest_mix")


if __name__ == "__main__":
    unittest.main()
