// The f32 accuracy contract (DESIGN.md §6) on the one f32 path:
// ServingModel::predict(kF32) against kF64 over every target of a packed
// model. Magnitude, duration, hour and day must stay within 1e-3 of
// max(1, |f64|); the fields computed in f64 at both precisions
// (magnitude_sd, assumed_family, source_distribution) must be bit-equal.
// Runs on a clean fit and on a fit pushed down its degradation ladders by
// fault injection, so the fallback rungs are served in f32 too.
#include "core/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "core/artifact_map.h"
#include "core/pipeline.h"
#include "core/robust.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

/// |f32 - f64| <= kF32RelErrorBound * max(1, |f64|): absolute near zero,
/// relative elsewhere.
constexpr double kF32RelErrorBound = 1e-3;

SpatiotemporalOptions fast_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  return opts;
}

struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(37));
  AdversaryModel model{fast_options()};
  ServingModel serving;

  /// Fits under `faults` (a FaultInjector spec; empty = clean), then packs.
  explicit Fixture(std::string_view faults) {
    struct FaultGuard {
      ~FaultGuard() { FaultInjector::instance().clear(); }
    } guard;
    FaultInjector::instance().configure(faults);
    model.fit(world.dataset, world.ip_map);
    serving = ServingModel::from_image(armm::pack_model(model));
  }
};

const Fixture& clean() {
  static const Fixture* fixture = new Fixture("");
  return *fixture;
}

/// NaN-poisoned family series, NAR fits that never converge, and failed
/// combining trees: the temporal and spatial AR rungs, the mean rung and
/// the pooled-linear combiners. (No fault point reaches the temporal
/// seasonal-naive rung, which needs AR(1) itself to fail on a long finite
/// series; that rung returns a stored history value and does no f32
/// arithmetic.)
const Fixture& degraded() {
  static const Fixture* fixture =
      new Fixture("temporal.nonfinite;nar.nonconvergence;tree.fail");
  return *fixture;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_within_bound(double f32, double f64, const char* field,
                         net::Asn asn) {
  ASSERT_TRUE(std::isfinite(f32)) << field << " AS" << asn << ": " << f32;
  EXPECT_LE(std::abs(f32 - f64),
            kF32RelErrorBound * std::max(1.0, std::abs(f64)))
      << field << " AS" << asn << ": f32 " << f32 << " vs f64 " << f64;
}

void expect_f32_within_bound(const ServingModel& serving) {
  const std::vector<net::Asn> targets = serving.targets();
  ASSERT_FALSE(targets.empty());
  for (net::Asn asn : targets) {
    const auto f64 = serving.predict(asn, Precision::kF64);
    const auto f32 = serving.predict(asn, Precision::kF32);
    ASSERT_TRUE(f64.has_value() && f32.has_value()) << "AS" << asn;
    expect_within_bound(f32->magnitude, f64->magnitude, "magnitude", asn);
    expect_within_bound(f32->duration_s, f64->duration_s, "duration_s", asn);
    expect_within_bound(f32->hour, f64->hour, "hour", asn);
    expect_within_bound(f32->day, f64->day, "day", asn);
    EXPECT_EQ(bits(f32->magnitude_sd), bits(f64->magnitude_sd)) << "AS" << asn;
    EXPECT_EQ(f32->assumed_family, f64->assumed_family) << "AS" << asn;
    ASSERT_EQ(f32->source_distribution.size(), f64->source_distribution.size())
        << "AS" << asn;
    for (const auto& [src, share] : f64->source_distribution) {
      const auto it = f32->source_distribution.find(src);
      ASSERT_NE(it, f32->source_distribution.end())
          << "AS" << asn << " src " << src;
      EXPECT_EQ(bits(it->second), bits(share)) << "AS" << asn << " src " << src;
    }
  }
}

TEST(Precision, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_precision("f64"), Precision::kF64);
  EXPECT_EQ(parse_precision("f32"), Precision::kF32);
  EXPECT_EQ(precision_name(Precision::kF64), "f64");
  EXPECT_EQ(precision_name(Precision::kF32), "f32");
  EXPECT_THROW((void)parse_precision("f16"), std::invalid_argument);
  EXPECT_THROW((void)parse_precision(""), std::invalid_argument);
}

TEST(ServingModel, F32WithinBoundOfF64AcrossAllTargets) {
  expect_f32_within_bound(clean().serving);
}

TEST(ServingModel, F32WithinBoundOfF64OnDegradedRungs) {
  const Fixture& fx = degraded();
  // The faults must actually land the model on the fallback rungs, or the
  // bound below says nothing about them.
  std::set<FitRung> rungs;
  for (const FitRecord& record : fx.model.fit_report().records()) {
    rungs.insert(record.rung);
  }
  for (FitRung want : {FitRung::kAr, FitRung::kMean, FitRung::kPooledLinear}) {
    EXPECT_TRUE(rungs.contains(want)) << "no component on rung "
                                      << to_string(want);
  }
  EXPECT_FALSE(rungs.contains(FitRung::kNar));
  EXPECT_FALSE(rungs.contains(FitRung::kModelTree));
  expect_f32_within_bound(fx.serving);
}

}  // namespace
}  // namespace acbm::core
