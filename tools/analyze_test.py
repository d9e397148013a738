#!/usr/bin/env python3
"""Unit tests for tools/analyze.py: each rule must fire on a seeded violation
and stay quiet on a clean miniature tree, so the analyze CTest is verified
rather than decorative. Stdlib only; wired into CTest as `analyze_selftest`."""

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import analyze  # noqa: E402


CLEAN_HEADER = """\
#ifndef CA_STORE_WIDGET_H_
#define CA_STORE_WIDGET_H_
namespace ca {}
#endif  // CA_STORE_WIDGET_H_
"""

CLEAN_SOURCE = """\
#include "src/store/widget.h"
namespace ca {
int Widget() { return 42; }  // "new" in a comment or string is fine: new
}
"""


class AnalyzeTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.store = self.root / "src" / "store"
        self.store.mkdir(parents=True)
        self.write("widget.h", CLEAN_HEADER)
        self.write("widget.cc", CLEAN_SOURCE)
        self.write("CMakeLists.txt", "add_library(ca_store widget.cc)\n")

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, text):
        (self.store / name).write_text(text)

    def write_layer(self, layer, name, text):
        d = self.root / "src" / layer
        d.mkdir(exist_ok=True)
        (d / name).write_text(text)
        cmake = d / "CMakeLists.txt"
        if not cmake.exists():
            cmake.write_text(f"add_library(ca_{layer} {name})\n")
        elif name not in cmake.read_text():
            cmake.write_text(cmake.read_text() + f"# {name}\n")

    def rules(self):
        return {v.rule for v in analyze.run_analysis(self.root)}

    def test_clean_tree_passes(self):
        self.assertEqual(analyze.run_analysis(self.root), [])

    # ---- header-guard ----

    def test_wrong_header_guard_fails(self):
        self.write("widget.h", CLEAN_HEADER.replace("CA_STORE_WIDGET_H_", "WIDGET_H"))
        self.assertIn("header-guard", self.rules())

    def test_missing_header_guard_fails(self):
        self.write("widget.h", "namespace ca {}\n")
        self.assertIn("header-guard", self.rules())

    def test_guard_derivation(self):
        self.assertEqual(
            analyze.expected_guard(pathlib.PurePath("src/common/thread_pool.h")),
            "CA_COMMON_THREAD_POOL_H_",
        )
        self.assertEqual(
            analyze.expected_guard(pathlib.PurePath("src/store/types.h")),
            "CA_STORE_TYPES_H_",
        )

    # ---- no-cout ----

    def test_cout_fails(self):
        self.write("widget.cc", '#include <iostream>\nvoid F() { std::cout << "x"; }\n')
        self.assertIn("no-cout", self.rules())

    def test_cout_allowed_in_logging(self):
        self.write_layer("common", "logging.cc", 'void F() { std::cout << "x"; }\n')
        self.assertNotIn("no-cout", self.rules())

    # ---- naked-new ----

    def test_naked_new_fails(self):
        self.write("widget.cc", "int* F() { return new int(1); }\n")
        self.assertIn("naked-new", self.rules())

    def test_new_in_comment_or_string_ok(self):
        self.write("widget.cc", 'const char* F() { return "new"; }  // the new path\n')
        self.assertNotIn("naked-new", self.rules())

    # ---- no-assert ----

    def test_assert_fails(self):
        self.write("widget.cc", "#include <cassert>\nvoid F(int x) { assert(x > 0); }\n")
        self.assertIn("no-assert", self.rules())

    def test_static_assert_ok(self):
        self.write("widget.cc", "static_assert(sizeof(int) == 4);\n")
        self.assertNotIn("no-assert", self.rules())

    # ---- cmake-listed ----

    def test_unlisted_cc_fails(self):
        self.write("orphan.cc", "namespace ca {}\n")
        self.assertIn("cmake-listed", self.rules())

    # ---- check-on-status (now repo-wide) ----

    def test_check_on_status_fails_in_store(self):
        self.write("widget.cc", "void F() { CA_CHECK(extent.ok()); }\n")
        self.assertIn("check-on-status", self.rules())

    def test_check_ok_fails_in_store(self):
        self.write("widget.cc", "void F() { CA_CHECK_OK(store.Put(1)); }\n")
        self.assertIn("check-on-status", self.rules())

    def test_check_on_status_fires_on_status_accessor(self):
        self.write("widget.cc", "void F() { CA_CHECK_EQ(r.status().code(), code); }\n")
        self.assertIn("check-on-status", self.rules())

    def test_check_on_plain_invariant_ok(self):
        self.write("widget.cc", "void F() { CA_CHECK(ptr != nullptr); }\n")
        self.assertNotIn("check-on-status", self.rules())

    def test_check_on_status_fires_outside_io_path_too(self):
        # The pass is repo-wide now: src/model is no longer exempt.
        self.write_layer("model", "layer.cc", "void F() { CA_CHECK(extent.ok()); }\n")
        self.assertIn("check-on-status", self.rules())

    def test_check_on_status_fires_across_wrapped_lines(self):
        # clang-format wraps long conditions; the Status accessor landing on
        # a continuation line must still be caught.
        self.write(
            "widget.cc",
            "void F() {\n"
            "  CA_CHECK(submission_queue.Drain(\n"
            "               pending_completions)\n"
            "               .ok());\n"
            "}\n",
        )
        self.assertIn("check-on-status", self.rules())

    def test_check_on_status_window_stops_at_statement_end(self):
        # The .ok() in the *next* statement must not implicate the CA_CHECK.
        self.write(
            "widget.cc",
            "void F() {\n"
            "  CA_CHECK(count > 0);\n"
            "  if (!result.ok()) { return; }\n"
            "}\n",
        )
        self.assertNotIn("check-on-status", self.rules())

    def test_check_on_status_fires_on_recovery_path(self):
        # Recovery returns Status by design (DESIGN.md §15): a corrupt
        # journal must degrade to misses or a reported error, never an
        # abort. Asserting the Status away defeats exactly that.
        self.write("widget.cc", "void F() { CA_CHECK(meta->Replay().ok()); }\n")
        self.assertIn("check-on-status", self.rules())

    def test_check_on_status_fires_on_fallible_open(self):
        self.write(
            "widget.cc",
            "void F() {\n"
            "  auto opened = AttentionStore::Open(config);\n"
            "  CA_CHECK(opened.ok());\n"
            "}\n",
        )
        self.assertIn("check-on-status", self.rules())

    def test_return_if_error_on_recovery_ok(self):
        # The sanctioned shape: propagate, do not assert.
        self.write(
            "widget.cc",
            "Status F() {\n"
            "  CA_RETURN_IF_ERROR(meta->Replay());\n"
            "  return Status::Ok();\n"
            "}\n",
        )
        self.assertNotIn("check-on-status", self.rules())

    def test_check_on_status_exempt_in_check_impl(self):
        self.write_layer(
            "common", "check.h",
            "#ifndef CA_COMMON_CHECK_H_\n#define CA_COMMON_CHECK_H_\n"
            "#define CA_CHECK_OK(expr) CA_CHECK((expr).ok())\n#endif  // CA_COMMON_CHECK_H_\n")
        self.assertNotIn("check-on-status", self.rules())

    # ---- no-raw-clock ----

    def test_raw_clock_fails_in_store(self):
        self.write(
            "widget.cc",
            "void F() { auto t = std::chrono::steady_clock::now(); (void)t; }\n",
        )
        self.assertIn("no-raw-clock", self.rules())

    def test_raw_clock_ignored_outside_io_path(self):
        self.write_layer(
            "model", "layer.cc",
            "void F() { auto t = std::chrono::steady_clock::now(); (void)t; }\n")
        self.assertNotIn("no-raw-clock", self.rules())

    def test_sleep_for_duration_ok(self):
        self.write(
            "widget.cc",
            "void F() { std::this_thread::sleep_for(std::chrono::microseconds(5)); }\n",
        )
        self.assertNotIn("no-raw-clock", self.rules())

    # ---- include-layering ----

    def test_upward_include_fails(self):
        self.write("widget.cc", '#include "src/core/engine.h"\nnamespace ca {}\n')
        self.assertIn("include-layering", self.rules())

    def test_downward_include_ok(self):
        self.write("widget.cc", '#include "src/common/status.h"\nnamespace ca {}\n')
        self.assertNotIn("include-layering", self.rules())

    def test_same_layer_include_ok(self):
        self.write("widget.cc", '#include "src/store/widget.h"\nnamespace ca {}\n')
        self.assertNotIn("include-layering", self.rules())

    def test_unknown_layer_fails(self):
        self.write_layer("gadgets", "g.cc", '#include "src/common/status.h"\n')
        self.assertIn("include-layering", self.rules())

    def test_layering_nolint_suppresses(self):
        self.write(
            "widget.cc",
            '#include "src/core/engine.h"  // NOLINT(include-layering)\n')
        self.assertNotIn("include-layering", self.rules())

    def test_cluster_may_include_serve(self):
        self.write_layer(
            "cluster", "router.cc",
            '#include "src/serve/serving_loop.h"\nnamespace ca {}\n')
        self.assertNotIn("include-layering", self.rules())

    def test_serve_may_not_include_cluster(self):
        self.write_layer(
            "serve", "loop.cc",
            '#include "src/cluster/shard_router.h"\nnamespace ca {}\n')
        self.assertIn("include-layering", self.rules())

    def test_sim_may_not_include_cluster(self):
        self.write_layer(
            "sim", "fleet.cc",
            '#include "src/cluster/hash_ring.h"\nnamespace ca {}\n')
        self.assertIn("include-layering", self.rules())

    def test_layer_map_is_a_dag(self):
        # Every dependency resolves to a mapped layer, and no layer can
        # reach itself through the map (acyclicity).
        for layer, deps in analyze.LAYER_DEPS.items():
            for dep in deps:
                self.assertIn(dep, analyze.LAYER_DEPS, f"{layer} -> {dep}")

        def reaches(frm, target, seen):
            for dep in analyze.LAYER_DEPS[frm]:
                if dep == target or (dep not in seen and not seen.add(dep)
                                     and reaches(dep, target, seen)):
                    return True
            return False

        for layer in analyze.LAYER_DEPS:
            self.assertFalse(reaches(layer, layer, set()), f"cycle through {layer}")

    # ---- guarded-field ----

    GUARDED_CLASS = """\
#include "src/common/mutex.h"
namespace ca {
class Widget {
 public:
  Widget();
  Widget(const Widget&) = delete;
  Widget& operator=(const Widget&) = delete;
  int Get() const { return x_; }
 private:
  mutable Mutex mu_;
  CondVar cv_;
  int x_ CA_GUARDED_BY(mu_) = 0;
  std::vector<int> v_ CA_GUARDED_BY(mu_);
  const int limit_ = 4;
  std::atomic<bool> stop_{false};
};
}
"""

    def test_fully_guarded_class_ok(self):
        self.write("widget.cc", self.GUARDED_CLASS)
        self.assertNotIn("guarded-field", self.rules())

    def test_unguarded_member_fails(self):
        self.write("widget.cc", self.GUARDED_CLASS.replace(
            "int x_ CA_GUARDED_BY(mu_) = 0;", "int x_ = 0;"))
        violations = [v for v in analyze.run_analysis(self.root)
                      if v.rule == "guarded-field"]
        self.assertEqual(len(violations), 1)
        self.assertIn("Widget::x_", violations[0].message)

    def test_waiver_on_member_line_ok(self):
        self.write("widget.cc", self.GUARDED_CLASS.replace(
            "int x_ CA_GUARDED_BY(mu_) = 0;",
            "int x_ = 0;  // unguarded: written once in ctor"))
        self.assertNotIn("guarded-field", self.rules())

    def test_waiver_on_preceding_line_ok(self):
        self.write("widget.cc", self.GUARDED_CLASS.replace(
            "int x_ CA_GUARDED_BY(mu_) = 0;",
            "// unguarded: written once in ctor\n  int x_ = 0;"))
        self.assertNotIn("guarded-field", self.rules())

    def test_const_and_atomic_members_exempt(self):
        # limit_ (const) and stop_ (atomic) carry no annotation in the
        # fixture; a clean result shows they are exempt.
        self.write("widget.cc", self.GUARDED_CLASS)
        self.assertNotIn("guarded-field", self.rules())

    def test_const_pointee_is_not_const_member(self):
        # `const T* p_` is a mutable pointer member: still needs guarding.
        self.write("widget.cc", self.GUARDED_CLASS.replace(
            "int x_ CA_GUARDED_BY(mu_) = 0;", "const int* x_ = nullptr;"))
        self.assertIn("guarded-field", self.rules())

    def test_const_pointer_member_exempt(self):
        # `T* const p_` never changes after construction.
        self.write("widget.cc", self.GUARDED_CLASS.replace(
            "int x_ CA_GUARDED_BY(mu_) = 0;", "int* const x_ = nullptr;"))
        self.assertNotIn("guarded-field", self.rules())

    def test_class_without_mutex_not_checked(self):
        self.write("widget.cc", "namespace ca {\nstruct P { int x = 0; };\n}\n")
        self.assertNotIn("guarded-field", self.rules())

    def test_mutex_pointer_member_does_not_make_class_owning(self):
        self.write("widget.cc", """\
namespace ca {
struct Ref {
  const Mutex* mu = nullptr;
  int x = 0;
};
}
""")
        self.assertNotIn("guarded-field", self.rules())

    def test_inline_method_body_does_not_hide_members(self):
        self.write("widget.cc", """\
namespace ca {
class W {
 public:
  int Get() const { return x_; }
 private:
  Mutex mu_{"w"};
  int x_ = 0;
};
}
""")
        self.assertIn("guarded-field", self.rules())

    # ---- nolint-scope ----

    def test_bare_nolint_is_a_violation(self):
        self.write("widget.cc", "int* F() { return new int(1); }  // NOLINT\n")
        rules = self.rules()
        self.assertIn("nolint-scope", rules)
        # ... and a bare NOLINT no longer suppresses anything.
        self.assertIn("naked-new", rules)

    def test_scoped_nolint_suppresses_named_rule_only(self):
        self.write(
            "widget.cc",
            "int* F() { assert(1); return new int(1); }  // NOLINT(naked-new)\n")
        rules = self.rules()
        self.assertNotIn("naked-new", rules)
        self.assertIn("no-assert", rules)  # not named, still fires

    def test_multi_rule_nolint(self):
        self.write(
            "widget.cc",
            "int* F() { assert(1); return new int(1); }"
            "  // NOLINT(naked-new, no-assert)\n")
        rules = self.rules()
        self.assertNotIn("naked-new", rules)
        self.assertNotIn("no-assert", rules)

    def test_unknown_rule_names_are_permitted(self):
        self.write(
            "widget.cc",
            "int F() { return 1; }  // NOLINT(cert-err58-cpp)\n")
        self.assertNotIn("nolint-scope", self.rules())


if __name__ == "__main__":
    unittest.main()
