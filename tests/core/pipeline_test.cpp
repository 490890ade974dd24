#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "trace/world.h"

namespace acbm::core {
namespace {

SpatiotemporalOptions fast_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  return opts;
}

struct Fixture {
  trace::World world = trace::build_world(trace::small_world_options(37));
  AdversaryModel model{fast_options()};

  Fixture() { model.fit(world.dataset, world.ip_map); }
};

TEST(AdversaryModel, UnfittedUseThrows) {
  AdversaryModel model;
  EXPECT_THROW((void)model.predict_next_attack(1), std::logic_error);
}

TEST(AdversaryModel, PredictsForKnownTarget) {
  Fixture fx;
  const net::Asn busiest = fx.world.dataset.target_asns().front();
  const auto pred = fx.model.predict_next_attack(busiest);
  ASSERT_TRUE(pred.has_value());
  EXPECT_GE(pred->magnitude, 1.0);
  EXPECT_LT(pred->magnitude, 100000.0);
  EXPECT_GE(pred->duration_s, 30.0);
  EXPECT_GE(pred->hour, 0.0);
  EXPECT_LT(pred->hour, 24.0);
  EXPECT_LT(pred->assumed_family, 10u);
  // Timestamp is strictly in the future of the target's last attack.
  const auto indices = fx.world.dataset.attacks_on_asn(busiest);
  EXPECT_GT(pred->start, fx.world.dataset.attacks()[indices.back()].start);
}

TEST(AdversaryModel, SourceDistributionNormalized) {
  Fixture fx;
  const net::Asn busiest = fx.world.dataset.target_asns().front();
  const auto pred = fx.model.predict_next_attack(busiest);
  ASSERT_TRUE(pred.has_value());
  ASSERT_FALSE(pred->source_distribution.empty());
  double total = 0.0;
  for (const auto& [asn, share] : pred->source_distribution) {
    EXPECT_GE(share, 0.0);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(AdversaryModel, UnknownTargetGivesNullopt) {
  Fixture fx;
  EXPECT_FALSE(fx.model.predict_next_attack(123456789).has_value());
}

TEST(AdversaryModel, PredictsForEveryAttackedTarget) {
  Fixture fx;
  for (net::Asn asn : fx.world.dataset.target_asns()) {
    const auto pred = fx.model.predict_next_attack(asn);
    ASSERT_TRUE(pred.has_value()) << "target AS " << asn;
    EXPECT_GE(pred->hour, 0.0);
    EXPECT_LT(pred->hour, 24.0);
  }
}

TEST(AdversaryModel, DeterministicPredictions) {
  Fixture fx;
  const net::Asn busiest = fx.world.dataset.target_asns().front();
  const auto a = fx.model.predict_next_attack(busiest);
  const auto b = fx.model.predict_next_attack(busiest);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(a->magnitude, b->magnitude);
  EXPECT_DOUBLE_EQ(a->hour, b->hour);
  EXPECT_EQ(a->start, b->start);
}

}  // namespace
}  // namespace acbm::core
