// ServingModel tests: the mmap serving path must be BYTE-identical to the
// batch pipeline — f64 predictions equal AdversaryModel::predict_next_attack
// bit for bit across every target (the f32 bound lives in
// serving_f32_test.cpp). Plus container interchange (map_file == from_image
// == load_any on .armm and framed .art) and concurrent predict safety.
#include "core/serving.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/pipeline.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("acbm_serving_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

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

  Fixture() {
    model.fit(world.dataset, world.ip_map);
    serving = ServingModel::from_image(armm::pack_model(model));
  }
};

const Fixture& fx() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise equality over every field, including the source distribution.
void expect_identical(const AttackPrediction& got,
                      const AttackPrediction& want, net::Asn asn) {
  EXPECT_EQ(bits(got.magnitude), bits(want.magnitude)) << "AS" << asn;
  EXPECT_EQ(bits(got.magnitude_sd), bits(want.magnitude_sd)) << "AS" << asn;
  EXPECT_EQ(bits(got.duration_s), bits(want.duration_s)) << "AS" << asn;
  EXPECT_EQ(bits(got.hour), bits(want.hour)) << "AS" << asn;
  EXPECT_EQ(bits(got.day), bits(want.day)) << "AS" << asn;
  EXPECT_EQ(got.start, want.start) << "AS" << asn;
  EXPECT_EQ(got.assumed_family, want.assumed_family) << "AS" << asn;
  ASSERT_EQ(got.source_distribution.size(), want.source_distribution.size())
      << "AS" << asn;
  for (const auto& [src, share] : want.source_distribution) {
    const auto it = got.source_distribution.find(src);
    ASSERT_NE(it, got.source_distribution.end()) << "AS" << asn << " src "
                                                 << src;
    EXPECT_EQ(bits(it->second), bits(share)) << "AS" << asn << " src " << src;
  }
}

TEST(ServingModel, F64ByteIdenticalToBatchAcrossAllTargets) {
  const Fixture& f = fx();
  for (net::Asn asn : f.serving.targets()) {
    const auto want = f.model.predict_next_attack(asn);
    const auto got = f.serving.predict(asn, Precision::kF64);
    ASSERT_EQ(got.has_value(), want.has_value()) << "AS" << asn;
    if (want) expect_identical(*got, *want, asn);
  }
}

TEST(ServingModel, TargetsMatchDataset) {
  const Fixture& f = fx();
  const auto targets = f.serving.targets();
  auto want = f.model.dataset().target_asns();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(targets, want);
  EXPECT_FALSE(f.serving.predict(4294967295u).has_value());
  EXPECT_FALSE(f.serving.has_target(4294967295u));
}

TEST(ServingModel, FamilyNamesRoundTrip) {
  const Fixture& f = fx();
  const auto& names = f.model.dataset().family_names();
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(f.serving.family_name(i), names[i]);
  }
}

TEST(ServingModel, MapFileEqualsFromImage) {
  const Fixture& f = fx();
  TempDir tmp;
  const fs::path path = tmp.path / "model.armm";
  durable::atomic_write_file(path, f.serving.image());
  const ServingModel mapped = ServingModel::map_file(path);
  EXPECT_EQ(mapped.image_size(), f.serving.image_size());
  for (net::Asn asn : f.serving.targets()) {
    const auto want = f.serving.predict(asn);
    const auto got = mapped.predict(asn);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) expect_identical(*got, *want, asn);
  }
}

TEST(ServingModel, LoadAnyReadsBothFormats) {
  const Fixture& f = fx();
  TempDir tmp;
  const fs::path armm = tmp.path / "model.armm";
  const fs::path art = tmp.path / "model.art";
  durable::atomic_write_file(armm, f.serving.image());
  {
    std::ofstream out(art, std::ios::binary);
    f.model.save_framed(out);
  }
  const ServingModel from_armm = ServingModel::load_any(armm);
  const ServingModel from_art = ServingModel::load_any(art);
  // model.art frames the same deterministic pack_model image.
  EXPECT_EQ(from_art.image(), from_armm.image());
  // The framed copy lives in an owned buffer; both must serve identically.
  for (net::Asn asn : f.serving.targets()) {
    const auto a = from_armm.predict(asn);
    const auto b = from_art.predict(asn);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) expect_identical(*a, *b, asn);
  }
}

TEST(ServingModel, LoadAnyRejectsGarbage) {
  TempDir tmp;
  const fs::path path = tmp.path / "junk";
  durable::atomic_write_file(path, "not a model at all");
  EXPECT_THROW((void)ServingModel::load_any(path), durable::LoadFailure);
  EXPECT_THROW((void)ServingModel::load_any(tmp.path / "missing"),
               durable::LoadFailure);
}

TEST(ServingModel, ConcurrentPredictIsRaceFreeAndIdentical) {
  // One shared instance, many threads: per-thread scratch means every
  // thread must see the same bits the single-threaded path produces.
  const Fixture& f = fx();
  const auto targets = f.serving.targets();
  std::vector<std::optional<AttackPrediction>> want(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    want[i] = f.serving.predict(targets[i]);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const std::size_t at = (i + static_cast<std::size_t>(t)) %
                               targets.size();
        const auto got = f.serving.predict(
            targets[at], (t % 2) == 0 ? Precision::kF64 : Precision::kF32);
        if ((t % 2) == 0) {
          if (got.has_value() != want[at].has_value() ||
              (got && bits(got->magnitude) != bits(want[at]->magnitude))) {
            failed.store(true);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(ServingModel, UnloadedPredictThrows) {
  ServingModel empty;
  EXPECT_FALSE(empty.loaded());
  EXPECT_THROW((void)empty.predict(1), std::logic_error);
}

}  // namespace
}  // namespace acbm::core
