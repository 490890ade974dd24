// Serialization round trips: every fitted sub-model must predict
// identically after save -> load through a text stream, and the whole model
// after save_framed -> ServingModel::load_any.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/pipeline.h"
#include "core/serving.h"
#include "nn/nar.h"
#include "stats/ols.h"
#include "stats/rng.h"
#include "trace/world.h"
#include "tree/model_tree.h"
#include "ts/arima.h"

namespace acbm {
namespace {

TEST(Serialization, LinearRegressionRoundTrip) {
  stats::Rng rng(3);
  stats::Matrix x(60, 2);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = 1.5 * x(i, 0) - 2.0 * x(i, 1) + rng.normal(0.0, 0.1);
  }
  stats::LinearRegression reg;
  reg.fit(x, y);

  std::stringstream ss;
  reg.save(ss);
  const stats::LinearRegression back = stats::LinearRegression::load(ss);
  EXPECT_EQ(back.fitted(), reg.fitted());
  for (std::size_t i = 0; i < 10; ++i) {
    const std::vector<double> probe{rng.normal(), rng.normal()};
    EXPECT_DOUBLE_EQ(back.predict(probe), reg.predict(probe));
  }
}

TEST(Serialization, ArimaRoundTrip) {
  stats::Rng rng(5);
  std::vector<double> xs{0.0};
  for (int t = 1; t < 600; ++t) xs.push_back(0.6 * xs.back() + rng.normal());
  ts::ArimaModel model({2, 1, 1});
  model.fit(xs);

  std::stringstream ss;
  model.save(ss);
  const ts::ArimaModel back = ts::ArimaModel::load(ss);
  EXPECT_EQ(back.order().p, model.order().p);
  EXPECT_EQ(back.order().d, model.order().d);
  EXPECT_EQ(back.order().q, model.order().q);
  const auto f1 = model.forecast(xs, 5);
  const auto f2 = back.forecast(xs, 5);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(f1[i], f2[i]);
  const auto p1 = model.one_step_predictions(xs, 500);
  const auto p2 = back.one_step_predictions(xs, 500);
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_DOUBLE_EQ(p1[i], p2[i]);
}

TEST(Serialization, NarRoundTrip) {
  std::vector<double> xs;
  for (int t = 0; t < 300; ++t) xs.push_back(std::sin(t * 0.2));
  nn::NarOptions opts;
  opts.delays = 3;
  opts.hidden_nodes = 6;
  opts.mlp.max_epochs = 100;
  nn::NarModel model(opts);
  model.fit(xs);

  std::stringstream ss;
  model.save(ss);
  const nn::NarModel back = nn::NarModel::load(ss);
  EXPECT_EQ(back.delays(), model.delays());
  EXPECT_DOUBLE_EQ(back.forecast_one(xs), model.forecast_one(xs));
  const auto p1 = model.one_step_predictions(xs, 250);
  const auto p2 = back.one_step_predictions(xs, 250);
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_DOUBLE_EQ(p1[i], p2[i]);
}

TEST(Serialization, ModelTreeRoundTrip) {
  stats::Rng rng(7);
  stats::Matrix x(400, 3);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform();
    y[i] = (x(i, 0) < 0.5 ? 2.0 * x(i, 1) : -3.0 * x(i, 2) + 5.0) +
           rng.normal(0.0, 0.05);
  }
  tree::ModelTree tree;
  tree.fit(x, y);

  std::stringstream ss;
  tree.save(ss);
  const tree::ModelTree back = tree::ModelTree::load(ss);
  EXPECT_EQ(back.node_count(), tree.node_count());
  EXPECT_EQ(back.leaf_count(), tree.leaf_count());
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> probe{rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_DOUBLE_EQ(back.predict(probe), tree.predict(probe));
  }
}

TEST(Serialization, AdversaryModelFullRoundTrip) {
  const trace::World world = trace::build_world(trace::small_world_options(47));
  core::SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  core::AdversaryModel model(opts);
  const auto [train, test] = world.dataset.split(0.8);
  model.fit(train, world.ip_map);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("acbm_serialization_" + std::to_string(::getpid()) + ".art");
  {
    std::ofstream out(path, std::ios::binary);
    model.save_framed(out);
  }
  const core::ServingModel back = core::ServingModel::load_any(path);
  std::filesystem::remove(path);
  EXPECT_EQ(back.targets().size(), train.target_asns().size());

  // Every target's f64 forecast must match the fitted model bit for bit.
  for (net::Asn asn : train.target_asns()) {
    const auto a = model.predict_next_attack(asn);
    const auto b = back.predict(asn, core::Precision::kF64);
    ASSERT_EQ(a.has_value(), b.has_value()) << "AS " << asn;
    if (!a) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a->magnitude),
              std::bit_cast<std::uint64_t>(b->magnitude)) << "AS " << asn;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a->magnitude_sd),
              std::bit_cast<std::uint64_t>(b->magnitude_sd)) << "AS " << asn;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a->duration_s),
              std::bit_cast<std::uint64_t>(b->duration_s)) << "AS " << asn;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a->hour),
              std::bit_cast<std::uint64_t>(b->hour)) << "AS " << asn;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a->day),
              std::bit_cast<std::uint64_t>(b->day)) << "AS " << asn;
    EXPECT_EQ(a->start, b->start) << "AS " << asn;
    EXPECT_EQ(a->assumed_family, b->assumed_family) << "AS " << asn;
    ASSERT_EQ(a->source_distribution.size(), b->source_distribution.size());
    for (const auto& [src, share] : a->source_distribution) {
      ASSERT_EQ(b->source_distribution.count(src), 1U) << "AS " << asn;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(share),
                std::bit_cast<std::uint64_t>(b->source_distribution.at(src)))
          << "AS " << asn << " src " << src;
    }
  }
}

TEST(Serialization, LoadRejectsWrongKind) {
  std::stringstream ss("acbm:ols:v1\n");
  EXPECT_THROW((void)ts::ArimaModel::load(ss), std::invalid_argument);
}

TEST(Serialization, LoadRejectsTruncatedStream) {
  stats::Rng rng(9);
  stats::Matrix x(30, 1);
  std::vector<double> y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = rng.normal();
    y[i] = 2.0 * x(i, 0);
  }
  stats::LinearRegression reg;
  reg.fit(x, y);
  std::stringstream ss;
  reg.save(ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);  // Chop the stream in half.
  std::stringstream truncated(text);
  EXPECT_THROW((void)stats::LinearRegression::load(truncated),
               std::invalid_argument);
}

}  // namespace
}  // namespace acbm
