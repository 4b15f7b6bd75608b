#!/usr/bin/env python3
"""Unit tests for the determinism lint (tools/lint/lint_determinism.py).

Per rule: a positive fixture (the pattern is flagged), a negative fixture
(near-miss code stays clean), and a suppressed fixture (the annotation is
honoured and audited). Plus the suppression machinery's own contract:
reasons are mandatory, rules must exist, stale suppressions are flagged.

Plus a ratchet on src/ itself: zero findings, and no more audited
suppressions than the tracked count, which may only go down.

Registered in ctest as lint_determinism_py (see CMakeLists.txt).
"""

import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint_determinism  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                   "src")
# Audited suppressions src/ may carry. Lower it when one goes away; never
# raise it.
MAX_SRC_SUPPRESSIONS = 5


class LintDeterminismTest(unittest.TestCase):

    # ------------------------------------------------------------------
    def lint(self, files):
        """Writes `files` {relpath: content} into a temp tree, lints it.

        Returns (exit_code, output_text)."""
        with tempfile.TemporaryDirectory() as root:
            for rel, content in files.items():
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
            out = io.StringIO()
            code = lint_determinism.run([root], show_suppressed=True,
                                        out=out)
            return code, out.getvalue()

    def assertClean(self, files):
        code, out = self.lint(files)
        self.assertEqual(code, 0, "expected clean, got:\n" + out)
        return out

    def assertFlagged(self, files, rule, count=None):
        code, out = self.lint(files)
        self.assertEqual(code, 1, "expected findings, got:\n" + out)
        hits = [l for l in out.splitlines() if "[%s]" % rule in l
                and "suppressed" not in l]
        self.assertTrue(hits, "no [%s] finding in:\n%s" % (rule, out))
        if count is not None:
            self.assertEqual(len(hits), count, out)
        return out

    def assertSuppressed(self, files, rule):
        code, out = self.lint(files)
        self.assertEqual(code, 0,
                         "expected suppressed-clean, got:\n" + out)
        self.assertIn("(suppressed:", out)
        self.assertIn("[%s]" % rule, out)
        return out

    # -- unordered-container -------------------------------------------
    def test_unordered_container_positive(self):
        self.assertFlagged(
            {"core/a.h": "#include <unordered_map>\n"
                         "struct S { std::unordered_map<int, int> m_; };\n"},
            "unordered-container", count=1)

    def test_unordered_container_negative_ordered_map(self):
        self.assertClean(
            {"core/a.h": "#include <map>\n"
                         "struct S { std::map<int, int> m_; };\n"})

    def test_unordered_container_suppressed(self):
        self.assertSuppressed(
            {"core/a.h":
                "#include <unordered_set>\n"
                "struct S {\n"
                "  // NOLINT-DETERMINISM(unordered-container): membership\n"
                "  // lookups only; order never observed.\n"
                "  std::unordered_set<int> seen_;\n"
                "};\n"},
            "unordered-container")

    # -- unordered-iteration -------------------------------------------
    def test_unordered_iteration_range_for_cross_file(self):
        files = {
            "sim/a.h": "#include <unordered_map>\n"
                       "struct S {\n"
                       "  // NOLINT-DETERMINISM(unordered-container): x\n"
                       "  std::unordered_map<int, int> table_;\n"
                       "  int Sum();\n"
                       "};\n",
            "sim/a.cc": '#include "a.h"\n'
                        "int S::Sum() {\n"
                        "  int s = 0;\n"
                        "  for (auto& kv : table_) s += kv.second;\n"
                        "  return s;\n"
                        "}\n",
        }
        out = self.assertFlagged(files, "unordered-iteration", count=1)
        self.assertIn("a.cc:4", out)

    def test_unordered_iteration_begin(self):
        files = {
            "protocols/b.cc":
                "#include <unordered_set>\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "std::unordered_set<int> live;\n"
                "int F() {\n"
                "  int n = 0;\n"
                "  for (auto it = live.begin(); it != live.end(); ++it)\n"
                "    ++n;\n"
                "  return n;\n"
                "}\n",
        }
        self.assertFlagged(files, "unordered-iteration", count=1)

    def test_unordered_iteration_negative_lookup_only(self):
        files = {
            "core/c.cc":
                "#include <unordered_map>\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "std::unordered_map<int, int> cache;\n"
                "bool Has(int k) {\n"
                "  return cache.find(k) != cache.end() &&\n"
                "         cache.count(k) > 0;\n"
                "}\n",
        }
        self.assertClean(files)

    def test_unordered_iteration_negative_out_of_scope_dir(self):
        # The iteration ban covers sim/core/protocols; a utility dir only
        # has the container-audit obligation.
        files = {
            "util/d.cc":
                "#include <unordered_set>\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "std::unordered_set<int> bag;\n"
                "int F() {\n"
                "  int n = 0;\n"
                "  for (int v : bag) n += v;\n"
                "  return n;\n"
                "}\n",
        }
        self.assertClean(files)

    def test_unordered_iteration_suppressed(self):
        files = {
            "core/e.cc":
                "#include <unordered_map>\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "std::unordered_map<int, int> m;\n"
                "void Teardown() {\n"
                "  // NOLINT-DETERMINISM(unordered-iteration): teardown is\n"
                "  // order-independent; every entry is dropped.\n"
                "  for (auto& kv : m) kv.second = 0;\n"
                "}\n",
        }
        self.assertSuppressed(files, "unordered-iteration")

    # -- banned-randomness ---------------------------------------------
    def test_banned_randomness_positive_tokens(self):
        out = self.assertFlagged(
            {"sim/r.cc":
                "#include <random>\n"
                "#include <ctime>\n"
                "int F() {\n"
                "  std::random_device rd;\n"
                "  int a = std::rand();\n"
                "  long b = time(nullptr);\n"
                "  auto t = std::chrono::system_clock::now();\n"
                "  (void)t;\n"
                "  return a + (int)b + (int)rd();\n"
                "}\n"},
            "banned-randomness")
        for token in ("std::rand", "random_device", "time()",
                      "system_clock"):
            self.assertIn(token, out)

    def test_banned_randomness_unseeded_engine(self):
        self.assertFlagged(
            {"common/r.cc": "#include <random>\n"
                            "std::mt19937 gen;\n"},
            "banned-randomness", count=1)

    def test_banned_randomness_negative(self):
        # Seeded engines, accessor names ending in `time`, and member
        # calls named time() are all fine.
        self.assertClean(
            {"sim/ok.cc":
                "#include <random>\n"
                "struct M { double time() const { return t; } double t; };\n"
                "double F(unsigned long seed, const M& m) {\n"
                "  std::mt19937 gen(seed);\n"
                "  double last_send_time = m.time();\n"
                "  return last_send_time + (double)gen();\n"
                "}\n"})

    def test_banned_randomness_suppressed(self):
        self.assertSuppressed(
            {"common/clock.cc":
                "#include <chrono>\n"
                "double WallSeconds() {\n"
                "  // NOLINT-DETERMINISM(banned-randomness): wall-clock\n"
                "  // telemetry only; never feeds simulation state.\n"
                "  auto n = std::chrono::steady_clock::now();\n"
                "  return n.time_since_epoch().count() * 1e-9;\n"
                "}\n"},
            "banned-randomness")

    # -- pointer-key ----------------------------------------------------
    def test_pointer_key_positive(self):
        self.assertFlagged(
            {"core/p.h": "#include <map>\n"
                         "struct Node;\n"
                         "struct S { std::map<const Node*, int> idx_; };\n"},
            "pointer-key", count=1)

    def test_pointer_key_unordered_positive(self):
        out = self.assertFlagged(
            {"core/p2.h":
                "#include <unordered_map>\n"
                "struct Node;\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "struct S { std::unordered_map<Node*, int> idx_; };\n"},
            "pointer-key")
        self.assertIn("pointer", out)

    def test_pointer_key_negative_pointer_value(self):
        self.assertClean(
            {"core/p3.h": "#include <map>\n"
                          "struct Node;\n"
                          "struct S { std::map<int, Node*> by_id_; };\n"})

    def test_pointer_key_suppressed(self):
        self.assertSuppressed(
            {"core/p4.h":
                "#include <map>\n"
                "struct Node;\n"
                "struct S {\n"
                "  // NOLINT-DETERMINISM(pointer-key): diagnostics-only\n"
                "  // index; never iterated, never serialized.\n"
                "  std::map<const Node*, int> debug_names_;\n"
                "};\n"},
            "pointer-key")

    # -- static-state ---------------------------------------------------
    def test_static_state_namespace_scope(self):
        self.assertFlagged(
            {"sim/s.cc": "namespace v {\n"
                         "int g_count = 0;\n"
                         "}  // namespace v\n"},
            "static-state", count=1)

    def test_static_state_mutable_pointer_to_const(self):
        # `const char*` is a *mutable* pointer: reseating it is state.
        self.assertFlagged(
            {"sketch/s2.cc": "namespace {\n"
                             "const char* g_name = \"scalar\";\n"
                             "}\n"},
            "static-state", count=1)

    def test_static_state_function_local(self):
        self.assertFlagged(
            {"protocols/s3.cc": "int F() {\n"
                                "  static int calls = 0;\n"
                                "  return ++calls;\n"
                                "}\n"},
            "static-state", count=1)

    def test_static_state_negative(self):
        self.assertClean(
            {"sim/ok.cc":
                "namespace v {\n"
                "constexpr int kBlock = 256;\n"
                "const int kWindow = 16;\n"
                "static int Helper(int x);\n"
                "static int Helper2(int x) { int local = x; return local; }\n"
                "int Use() { return Helper2(kBlock) + kWindow; }\n"
                "static int Helper(int x) { return x; }\n"
                "}  // namespace v\n"})

    def test_static_state_negative_out_of_scope(self):
        # Headers and non-simulation dirs are outside this rule.
        self.assertClean(
            {"topology/t.cc": "namespace v {\nint g_mutable = 1;\n}\n",
             "sim/h.h": "namespace v {\nextern int g_declared;\n}\n"})

    def test_static_state_suppressed(self):
        self.assertSuppressed(
            {"sketch/k.cc":
                "namespace {\n"
                "using Fn = int (*)(int);\n"
                "int Scalar(int x) { return x; }\n"
                "// NOLINT-DETERMINISM(static-state): cpuid kernel select,\n"
                "// written once at startup; both kernels bit-identical.\n"
                "Fn g_kernel = &Scalar;\n"
                "}  // namespace\n"},
            "static-state")

    # -- float-accumulation --------------------------------------------
    def test_float_accumulation_over_unordered(self):
        self.assertFlagged(
            {"common/f.cc":
                "#include <unordered_map>\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "std::unordered_map<int, double> w;\n"
                "double Total() {\n"
                "  double total = 0.0;\n"
                "  for (auto& kv : w) total += kv.second;\n"
                "  return total;\n"
                "}\n"},
            "float-accumulation", count=1)

    def test_float_accumulation_parallel_for(self):
        self.assertFlagged(
            {"core/f2.cc":
                '#include "core/sweep.h"\n'
                "double F(int n) {\n"
                "  double sum = 0.0;\n"
                "  validity::core::ParallelFor(n, 0, [&](size_t i) {\n"
                "    sum += static_cast<double>(i);\n"
                "  });\n"
                "  return sum;\n"
                "}\n"},
            "float-accumulation", count=1)

    def test_float_accumulation_negative_slot_indexed(self):
        # The sanctioned ParallelMap idiom: per-index slots, serial merge.
        self.assertClean(
            {"core/f3.cc":
                '#include "core/sweep.h"\n'
                "#include <vector>\n"
                "double F(int n) {\n"
                "  std::vector<double> slots(n);\n"
                "  validity::core::ParallelFor(n, 0, [&](size_t i) {\n"
                "    slots[i] += static_cast<double>(i);\n"
                "  });\n"
                "  double total = 0.0;\n"
                "  for (double v : slots) total += v;\n"
                "  return total;\n"
                "}\n"})

    def test_float_accumulation_negative_integer(self):
        # Integer accumulation commutes exactly; only FP order matters.
        self.assertClean(
            {"common/f4.cc":
                "#include <unordered_set>\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "std::unordered_set<int> bag;\n"
                "int Count() {\n"
                "  int n = 0;\n"
                "  for (int v : bag) n += v;\n"
                "  return n;\n"
                "}\n"})

    def test_float_accumulation_par_execution(self):
        self.assertFlagged(
            {"common/f5.cc":
                "#include <execution>\n"
                "#include <numeric>\n"
                "#include <vector>\n"
                "double F(const std::vector<double>& v) {\n"
                "  return std::reduce(std::execution::par, v.begin(),\n"
                "                     v.end());\n"
                "}\n"},
            "float-accumulation", count=1)

    def test_float_accumulation_suppressed(self):
        self.assertSuppressed(
            {"common/f6.cc":
                "#include <unordered_map>\n"
                "// NOLINT-DETERMINISM(unordered-container): fixture\n"
                "std::unordered_map<int, double> w;\n"
                "double Total() {\n"
                "  double total = 0.0;\n"
                "  // NOLINT-DETERMINISM(float-accumulation): debug-only\n"
                "  // stat, never compared bit-for-bit.\n"
                "  for (auto& kv : w) total += kv.second;\n"
                "  return total;\n"
                "}\n"},
            "float-accumulation")

    # -- suppression machinery -----------------------------------------
    def test_suppression_requires_reason(self):
        code, out = self.lint(
            {"core/m.h":
                "#include <unordered_map>\n"
                "// NOLINT-DETERMINISM(unordered-container)\n"
                "struct S { std::unordered_map<int, int> m_; };\n"})
        self.assertEqual(code, 1)
        self.assertIn("bad-suppression", out)
        self.assertIn("no reason", out)

    def test_suppression_unknown_rule(self):
        code, out = self.lint(
            {"core/m2.h":
                "struct S {};  // NOLINT-DETERMINISM(no-such-rule): x\n"})
        self.assertEqual(code, 1)
        self.assertIn("unknown rule", out)

    def test_suppression_unused_is_flagged(self):
        code, out = self.lint(
            {"core/m3.h":
                "// NOLINT-DETERMINISM(pointer-key): stale annotation\n"
                "struct S { int x = 0; };\n"})
        self.assertEqual(code, 1)
        self.assertIn("suppresses nothing", out)

    def test_suppression_same_line(self):
        self.assertSuppressed(
            {"core/m4.h":
                "#include <unordered_set>\n"
                "struct S {\n"
                "  std::unordered_set<int> s_;  "
                "// NOLINT-DETERMINISM(unordered-container): lookup only\n"
                "};\n"},
            "unordered-container")

    def test_strings_and_comments_are_not_code(self):
        self.assertClean(
            {"sim/str.cc":
                "// std::rand() in a comment is fine\n"
                "/* so is std::unordered_map<int,int> here */\n"
                "const char* const kDoc = \"call time(nullptr) for fun\";\n"
                "int Use() { return kDoc[0]; }\n"})

    def test_list_rules(self):
        self.assertEqual(
            set(lint_determinism.RULES),
            {"unordered-container", "unordered-iteration",
             "banned-randomness", "pointer-key", "static-state",
             "float-accumulation"})

    def test_src_stays_clean_within_the_suppression_budget(self):
        _, unsuppressed, suppressed = lint_determinism.lint([SRC])
        self.assertEqual(
            [f.format() for f in unsuppressed], [],
            "src/ has unsuppressed determinism findings")
        self.assertLessEqual(
            len(suppressed), MAX_SRC_SUPPRESSIONS,
            "src/ audited suppressions grew past the ratchet:\n" +
            "\n".join(f.format() for f in suppressed))


if __name__ == "__main__":
    unittest.main()
