#!/usr/bin/env python3
"""Unit tests for lvplint's cross-TU project model (include-graph
resolution, class member/mutex indexing) and the pieces of the v2
checks that are easiest to get subtly wrong (guard classification,
manifest cycle detection).

The fixture tree lives in tests/lint_fixtures/project_model/ and is
consumed only here — the ``--expect`` ctests pin the end-to-end
behavior of each check, this file pins the model they share.

Run directly (``python3 tools/lint/test_lvplint.py``) or via the
``lvplint_project_model`` ctest (label ``lint``).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lvplint  # noqa: E402  (path set up above)

REPO = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)
FIXTURE = os.path.join(REPO, "tests", "lint_fixtures", "project_model")


def build():
    tree = lvplint.Tree(FIXTURE, lvplint.collect_files(FIXTURE))
    return tree, lvplint.project_model(tree)


class IncludeGraphTest(unittest.TestCase):
    def test_src_rooted_include_resolves(self):
        _, model = build()
        refs = {
            r.spec: r.resolved
            for r in model.includes["src/sim/cache.hh"]
        }
        self.assertEqual(refs["common/base.hh"], "src/common/base.hh")

    def test_directory_relative_include_resolves(self):
        _, model = build()
        refs = {
            r.spec: r.resolved
            for r in model.includes["src/sim/cache.hh"]
        }
        self.assertEqual(
            refs["cache_support.hh"], "src/sim/cache_support.hh"
        )

    def test_external_include_stays_unresolved(self):
        _, model = build()
        refs = {
            r.spec: r.resolved
            for r in model.includes["src/sim/cache.hh"]
        }
        self.assertIsNone(refs["vendor/not_in_tree.hh"])

    def test_model_is_cached_per_tree(self):
        tree, model = build()
        self.assertIs(lvplint.project_model(tree), model)


class MemberIndexTest(unittest.TestCase):
    def cache_class(self):
        _, model = build()
        for ci in model.classes:
            if ci.name == "Cache":
                return ci
        self.fail("class 'Cache' not indexed")

    def test_member_kinds(self):
        ci = self.cache_class()
        kinds = {m.name: m.kind for m in ci.members}
        self.assertEqual(
            kinds,
            {
                "mx": "mutex",
                "ready": "cv",
                "table": "plain",
                "hits": "atomic",
                "init": "once",
                "capacity": "plain",
                "scratch": "plain",
            },
        )

    def test_guard_extraction_survives_annotation_parens(self):
        # GUARDED_BY(mx) puts parentheses in the declaration; the
        # a scanner that reads any parenthesis as a function drops it, the
        # project-model scanner must keep it and record the guard.
        ci = self.cache_class()
        guards = {m.name: m.guards for m in ci.members}
        self.assertEqual(guards["table"], ("mx",))
        self.assertEqual(guards["scratch"], ())

    def test_methods_are_not_members(self):
        ci = self.cache_class()
        self.assertNotIn(
            "lookup", [m.name for m in ci.members]
        )

    def test_lock_discipline_flags_exactly_the_unguarded_member(self):
        ci = self.cache_class()
        check = lvplint.LockDisciplineCheck()
        findings = list(check.check_class(ci))
        self.assertEqual(len(findings), 1)
        self.assertIn("'scratch'", findings[0].message)
        # const members are immutable after construction: exempt.
        self.assertNotIn("'capacity'", findings[0].message)


class ModuleOfTest(unittest.TestCase):
    def test_src_paths_map_to_their_module(self):
        self.assertEqual(lvplint.module_of("src/sim/cache.hh"), "sim")
        self.assertEqual(
            lvplint.module_of("src/common/base.hh"), "common"
        )

    def test_non_src_paths_have_no_module(self):
        self.assertIsNone(lvplint.module_of("tests/test_qa.cc"))
        self.assertIsNone(lvplint.module_of("src/CMakeLists.txt"))


class ManifestCycleTest(unittest.TestCase):
    def test_cycle_detected(self):
        cyc = lvplint.LayeringCheck.find_cycle(
            {"a": {"b"}, "b": {"c"}, "c": {"a"}}
        )
        self.assertIsNotNone(cyc)
        self.assertEqual(cyc[0], cyc[-1])

    def test_dag_is_clean(self):
        self.assertIsNone(
            lvplint.LayeringCheck.find_cycle(
                {"a": set(), "b": {"a"}, "c": {"a", "b"}}
            )
        )


class LiveManifestTest(unittest.TestCase):
    def test_repo_manifest_is_an_acyclic_superset_of_live_edges(self):
        # The repo's own manifest must parse, be a DAG, and admit the
        # tree as it stands — run_checks on the repo root is the
        # end-to-end gate, but this pins the manifest file itself.
        findings = [
            f
            for f in lvplint.run_checks(REPO, ["layering"])
            if f.check == "layering"
        ]
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
