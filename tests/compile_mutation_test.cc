// Byte-mutation sweep through the whole compiler: every one-byte
// mutant of the Table-1 sources either compiles or fails with a Status
// whose message names a source line. Substitutions draw from a fixed
// charset (syntax bytes, identifier and digit bytes, NUL and a high
// byte) and deletions drop one byte; a fixed-seed sample of the mutant
// space keeps the sweep to about a second.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "diablo/diablo.h"
#include "workloads/programs.h"

namespace diablo {
namespace {

/// Replacement bytes of a substitution mutant.
const std::string& Charset() {
  static const std::string kCharset =
      std::string(" \t\n;:=+-*/%<>!&|()[]{},.\"'#_0129aeijmnsvxz") +
      std::string(1, '\0') + "\xff";
  return kCharset;
}

/// Mutant `index` of `source`: index / (|charset| + 1) is the byte
/// position, and the remainder picks a substitution or, past the
/// charset, the deletion of that byte.
std::string Mutate(const std::string& source, uint64_t index) {
  const uint64_t kinds = Charset().size() + 1;
  const size_t pos = static_cast<size_t>(index / kinds);
  const size_t kind = static_cast<size_t>(index % kinds);
  std::string out = source;
  if (kind == Charset().size()) {
    out.erase(pos, 1);
  } else {
    out[pos] = Charset()[kind];
  }
  return out;
}

TEST(CompileMutationSweep, EveryMutantCompilesOrNamesALine) {
  const std::vector<bench::Table1Entry>& programs = bench::Table1Programs();
  ASSERT_EQ(programs.size(), 16u);
  const uint64_t kinds = Charset().size() + 1;
  // Mutants are drawn uniformly over the whole space, so longer
  // programs get proportionally more of them.
  std::vector<uint64_t> first;  // first global index of each program
  uint64_t total = 0;
  for (const bench::Table1Entry& p : programs) {
    first.push_back(total);
    total += p.source.size() * kinds;
  }
  constexpr int kSamples = 10000;
  std::mt19937_64 rng(20261018);
  int compiled = 0;
  int rejected = 0;
  for (int n = 0; n < kSamples; ++n) {
    const uint64_t global = rng() % total;
    size_t prog = programs.size() - 1;
    while (first[prog] > global) --prog;
    const std::string mutant =
        Mutate(programs[prog].source, global - first[prog]);
    StatusOr<CompiledProgram> result = Compile(mutant);
    if (result.ok()) {
      ++compiled;
      continue;
    }
    ++rejected;
    EXPECT_NE(result.status().message().find("line "), std::string::npos)
        << programs[prog].name << " mutant " << global - first[prog] << ": "
        << result.status().ToString();
  }
  // Both outcomes occur, or the sample says nothing.
  EXPECT_GT(compiled, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace diablo
