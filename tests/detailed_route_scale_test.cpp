// Bounded-memory scale test of detailed routing (cost-model step 5): two
// fabrics whose unit-cell grids hold 50-100M cells must be priced in memory
// that grows with their links, not their cells. This suite is its own
// binary so the peak RSS it reads belongs to these two reports alone; CI
// also runs it under `ulimit -v` so the OS enforces the bound.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include "shg/model/cost_model.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::model {
namespace {

#if defined(__SANITIZE_ADDRESS__)
#define SHG_SCALE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SHG_SCALE_TEST_ASAN 1
#endif
#endif

// Peak-RSS bound for the whole process, with headroom over what was
// measured on x86-64 Linux: 16 MB in Release (-O2) and 76 MB in the
// Debug + ASan/UBSan build, whose shadow memory and allocator quarantine
// count too. A per-cell grid of these fabrics alone needs GBs.
#ifdef SHG_SCALE_TEST_ASAN
constexpr double kPeakRssBoundMb = 256.0;
#else
constexpr double kPeakRssBoundMb = 64.0;
#endif

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double grid_cells(const CostReport& report) {
  return (report.chip_width_mm / report.cell_w_mm) *
         (report.chip_height_mm / report.cell_h_mm);
}

TEST(DetailedRouteScale, FlattenedButterfly24x40) {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  arch.rows = 24;
  arch.cols = 40;
  const CostReport report =
      evaluate_cost(arch, topo::make_flattened_butterfly(24, 40));
  EXPECT_GT(grid_cells(report), 90e6);
  // Cross-checked against the per-cell grid counter with its size cap
  // lifted (~4 GB resident for this one report).
  EXPECT_EQ(report.h_cells, 51522105);
  EXPECT_EQ(report.v_cells, 49636188);
  EXPECT_EQ(report.collision_cells, 398471);
  EXPECT_LT(peak_rss_mb(), kPeakRssBoundMb);
}

TEST(DetailedRouteScale, DenseShg40x40TallTiles) {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kB);
  arch.rows = 40;
  arch.cols = 40;
  arch.tile_aspect_ratio = 2.0;
  const CostReport report = evaluate_cost(
      arch, topo::make_sparse_hamming(
                40, 40, {2, 3, 4, 6, 8, 11, 14, 18, 23, 29, 35, 39},
                {2, 3, 5, 7, 10, 13, 17, 22, 27, 33, 39}));
  EXPECT_GT(grid_cells(report), 50e6);
  // Cross-checked against the per-cell grid counter with its size cap
  // lifted.
  EXPECT_EQ(report.h_cells, 17027920);
  EXPECT_EQ(report.v_cells, 25588069);
  EXPECT_EQ(report.collision_cells, 133379);
  EXPECT_LT(peak_rss_mb(), kPeakRssBoundMb);
}

}  // namespace
}  // namespace shg::model
