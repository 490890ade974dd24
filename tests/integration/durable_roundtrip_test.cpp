// Durability round trips: every model body must (a) load back bit-equal
// (sub-models through save/load inside the durable frame checkpoint stages
// use; the whole model through save_framed -> ServingModel::load_any) and
// (b) detect any single flipped payload byte as a typed checksum failure —
// never a crash, never a silently wrong model.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <initializer_list>
#include <sstream>
#include <string>

#include "core/durable.h"
#include "core/features.h"
#include "core/pipeline.h"
#include "core/robust.h"
#include "core/serving.h"
#include "core/spatial_model.h"
#include "core/spatiotemporal_model.h"
#include "core/temporal_model.h"
#include "trace/world.h"

namespace acbm {
namespace {

namespace durable = core::durable;

/// One fitted copy of everything, shared across tests (fitting dominates
/// this binary's runtime).
struct Fixture {
  trace::World world;
  core::TemporalModel temporal;
  core::SpatialModel spatial;
  core::AdversaryModel adversary;

  Fixture() {
    trace::WorldOptions wopts = trace::small_world_options(11);
    wopts.generator.days = 25;
    world = trace::build_world(wopts);

    core::TemporalModelOptions topts;
    temporal = core::TemporalModel(topts);
    temporal.fit(
        core::extract_family_series(world.dataset, 0, world.ip_map, nullptr));

    core::SpatialModelOptions sopts;
    sopts.grid_search = false;
    sopts.fixed.mlp.max_epochs = 60;
    for (net::Asn asn : world.dataset.target_asns()) {
      const core::TargetSeries series =
          core::extract_target_series(world.dataset, asn);
      if (series.attack_indices.size() < 8) continue;
      spatial = core::SpatialModel(sopts);
      spatial.fit(series, world.dataset, world.ip_map);
      break;
    }

    core::SpatiotemporalOptions stopts;
    stopts.spatial.grid_search = false;
    stopts.spatial.fixed.mlp.max_epochs = 60;
    adversary = core::AdversaryModel(stopts);
    adversary.fit(world.dataset, world.ip_map);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// The property: flipping any payload byte of a framed artifact makes the
/// loader throw LoadFailure(kBadChecksum). Sampled at the payload's start,
/// middle, and end; header corruption and truncation must also stay typed.
template <typename LoadFn>
void expect_corruption_detected(const std::string& framed, LoadFn load) {
  ASSERT_TRUE(durable::looks_framed(framed));
  const std::size_t payload_begin = framed.find('\n') + 1;
  ASSERT_LT(payload_begin, framed.size());
  const auto expect_code = [&](const std::string& bytes,
                               durable::LoadError want,
                               const std::string& what) {
    try {
      load(bytes);
      FAIL() << what << " went undetected";
    } catch (const durable::LoadFailure& e) {
      EXPECT_EQ(e.code(), want) << what;
    }
  };
  for (const std::size_t offset :
       {payload_begin, payload_begin + (framed.size() - payload_begin) / 2,
        framed.size() - 1}) {
    std::string corrupted = framed;
    corrupted[offset] ^= 0x10;
    expect_code(corrupted, durable::LoadError::kBadChecksum,
                "corruption at byte " + std::to_string(offset));
  }

  std::string bad_magic = framed;
  bad_magic[2] ^= 0x01;
  expect_code(bad_magic, durable::LoadError::kBadMagic, "a mangled magic");
  expect_code(framed.substr(0, framed.size() - 7),
              durable::LoadError::kTruncated, "truncation");
}

/// Checkpoint stages carry each sub-model's save() body inside a durable
/// frame; the sub-model round trips below use the same container.
template <typename Model>
Model load_framed_body(const std::string& bytes, std::string_view kind) {
  std::istringstream body(durable::unwrap(bytes, kind, 1, 1));
  return Model::load(body);
}

TEST(DurableRoundTrip, TemporalModelFramedAndLegacy) {
  const core::TemporalModel& model = fixture().temporal;
  std::ostringstream body;
  model.save(body);
  const std::string framed = durable::frame_payload("temporal", 1, body.str());

  const auto back = load_framed_body<core::TemporalModel>(framed, "temporal");
  std::ostringstream again;
  back.save(again);
  EXPECT_EQ(again.str(), body.str());  // Bit-stable round trip.
  EXPECT_EQ(back.fitted(), model.fitted());

  expect_corruption_detected(framed, [](const std::string& bytes) {
    (void)load_framed_body<core::TemporalModel>(bytes, "temporal");
  });
}

TEST(DurableRoundTrip, SpatialModelFramedAndLegacy) {
  const core::SpatialModel& model = fixture().spatial;
  ASSERT_TRUE(model.fitted());
  std::ostringstream body;
  model.save(body);
  const std::string framed = durable::frame_payload("spatial", 1, body.str());

  const auto back = load_framed_body<core::SpatialModel>(framed, "spatial");
  std::ostringstream again;
  back.save(again);
  EXPECT_EQ(again.str(), body.str());
  EXPECT_EQ(back.target_asn(), model.target_asn());

  expect_corruption_detected(framed, [](const std::string& bytes) {
    (void)load_framed_body<core::SpatialModel>(bytes, "spatial");
  });
}

TEST(DurableRoundTrip, SpatiotemporalModelFramedAndLegacy) {
  const core::SpatiotemporalModel& model = fixture().adversary.spatiotemporal();
  std::ostringstream body;
  model.save(body);
  const std::string framed =
      durable::frame_payload("spatiotemporal", 1, body.str());

  const auto back =
      load_framed_body<core::SpatiotemporalModel>(framed, "spatiotemporal");
  std::ostringstream again;
  back.save(again);
  EXPECT_EQ(again.str(), body.str());
  EXPECT_EQ(back.fitted(), model.fitted());

  expect_corruption_detected(framed, [](const std::string& bytes) {
    (void)load_framed_body<core::SpatiotemporalModel>(bytes, "spatiotemporal");
  });
}

TEST(DurableRoundTrip, AdversaryModelFramedPredictsIdentically) {
  const core::AdversaryModel& model = fixture().adversary;
  std::ostringstream framed_os;
  model.save_framed(framed_os);
  const std::string framed = framed_os.str();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("acbm_roundtrip_model_" + std::to_string(::getpid()) + ".art");
  const auto load_any_bytes = [&path](const std::string& bytes) {
    durable::atomic_write_file(path, bytes);
    return core::ServingModel::load_any(path);
  };

  const core::ServingModel back = load_any_bytes(framed);
  ASSERT_TRUE(back.loaded());
  for (net::Asn asn : model.dataset().target_asns()) {
    const auto a = model.predict_next_attack(asn);
    const auto b = back.predict(asn);
    ASSERT_EQ(a.has_value(), b.has_value()) << "AS " << asn;
    if (!a) continue;
    EXPECT_DOUBLE_EQ(a->magnitude, b->magnitude) << "AS " << asn;
    EXPECT_DOUBLE_EQ(a->hour, b->hour) << "AS " << asn;
    EXPECT_EQ(a->start, b->start) << "AS " << asn;
  }

  expect_corruption_detected(framed, [&](const std::string& bytes) {
    (void)load_any_bytes(bytes);
  });
  std::filesystem::remove(path);
}

TEST(DurableRoundTrip, DirsyncFaultLeavesOldOrNewContentNeverPartial) {
  namespace fs = std::filesystem;
  core::FaultInjector& injector = core::FaultInjector::instance();
  injector.clear();
  const fs::path dir =
      fs::temp_directory_path() /
      ("acbm_roundtrip_dirsync_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "model.art";

  durable::save_artifact(target, "model", 1, "generation one");
  injector.configure("io.dirsync:model.art");
  // The fault fires after the rename: the caller sees a failure while the
  // new bytes are already under the final name (publication is ambiguous
  // after a power loss — either full old or full new content, never a mix).
  EXPECT_THROW(durable::save_artifact(target, "model", 1, "generation two"),
               durable::WriteFailure);
  injector.clear();
  durable::LoadReport report;
  const std::string payload =
      durable::load_artifact(target, "model", 1, 1, &report);
  EXPECT_TRUE(payload == "generation one" || payload == "generation two");
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(fs::exists(dir / "model.art.tmp"));

  // Retrying the same write converges: the new generation publishes.
  durable::save_artifact(target, "model", 1, "generation two");
  EXPECT_EQ(durable::load_artifact(target, "model", 1, 1),
            "generation two");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(DurableRoundTrip, DatasetArtifactDetectsCorruption) {
  std::ostringstream csv;
  fixture().world.dataset.save_csv(csv);
  const std::string framed = durable::frame_payload("dataset", 1, csv.str());

  // Intact: unwrap + parse reproduces the dataset.
  std::istringstream body(durable::unwrap(framed, "dataset", 1, 1));
  const trace::Dataset back = trace::Dataset::load_csv(body);
  EXPECT_EQ(back.size(), fixture().world.dataset.size());

  expect_corruption_detected(framed, [](const std::string& bytes) {
    std::istringstream payload(durable::unwrap(bytes, "dataset", 1, 1));
    (void)trace::Dataset::load_csv(payload);
  });
}

}  // namespace
}  // namespace acbm
