// Table 1 — translation time: DIABLO's compositional translator vs the
// baseline approaches (MOLD-like template-rewrite search, Casper-like
// synthesize-and-verify) on the paper's 16 test programs.
//
// Reproduces the paper's qualitative result: DIABLO translates every
// program in microseconds-to-milliseconds; the template/synthesis
// approaches are orders of magnitude slower on the flat loops and fail on
// the complex programs (the paper's `fail` / missing entries). Exits 1
// when DIABLO fails to compile any program (marked `!` in its row).

#include <chrono>
#include <cstdio>

#include "baselines/casper_like.h"
#include "baselines/mold_like.h"
#include "diablo/diablo.h"
#include "workloads/programs.h"

namespace {

double Seconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  std::printf("Table 1: translation time in milliseconds "
              "(mean of 4 runs, as in the paper)\n");
  std::printf("%-24s %14s %20s %20s\n", "program", "DIABLO",
              "MOLD-like", "Casper-like");
  int failures = 0;
  for (const auto& entry : diablo::bench::Table1Programs()) {
    // DIABLO compiles every program; average 4 runs.
    double diablo_ms = 0;
    bool diablo_ok = true;
    for (int r = 0; r < 4; ++r) {
      diablo_ms += Seconds([&] {
        auto compiled = diablo::Compile(entry.source);
        diablo_ok = diablo_ok && compiled.ok();
      }) * 1e3 / 4;
    }

    diablo::baselines::BaselineResult mold;
    double mold_ms =
        Seconds([&] { mold = diablo::baselines::MoldLikeTranslate(
                          entry.source); }) * 1e3;
    diablo::baselines::BaselineResult casper;
    double casper_ms =
        Seconds([&] { casper = diablo::baselines::CasperLikeTranslate(
                          entry.source); }) * 1e3;

    char mold_col[64], casper_col[64];
    if (mold.success) {
      std::snprintf(mold_col, sizeof(mold_col), "%.2f (%lld st)", mold_ms,
                    static_cast<long long>(mold.states_explored));
    } else {
      std::snprintf(mold_col, sizeof(mold_col), "fail (%.2f)", mold_ms);
    }
    if (casper.success) {
      std::snprintf(casper_col, sizeof(casper_col), "%.2f (%lld cand)",
                    casper_ms,
                    static_cast<long long>(casper.states_explored));
    } else {
      std::snprintf(casper_col, sizeof(casper_col), "fail (%.2f)",
                    casper_ms);
    }
    std::printf("%-24s %11.3f%s %20s %20s\n", entry.name.c_str(), diablo_ms,
                diablo_ok ? "" : "!", mold_col, casper_col);
    if (!diablo_ok) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "DIABLO failed to compile %d program(s) (!)\n",
                 failures);
    return 1;
  }
  std::printf(
      "\nDIABLO translates all 16 programs; the baselines handle only the\n"
      "flat loops and at far higher cost — the shape of the paper's "
      "Table 1.\n");
  return 0;
}
