// Immutable shared inference view over a zero-copy .armm artifact
// (core/artifact_map.h), split from the fitting-side AdversaryModel.
//
// A ServingModel wraps a parsed ArtifactView plus the mapping (or owned
// image) that backs it. It is immutable after construction and safe to
// share across threads: predict() touches only const mapped state plus a
// thread_local scratch arena, so one model instance serves any number of
// concurrent callers with zero synchronization.
//
// Numeric contract: the f64 path mirrors
// AdversaryModel::predict_next_attack of the packed fit operation for
// operation and is byte-identical to it. The
// f32 path runs the same composition over the f32 sections that
// armm::pack_model writes and stays within the documented bound of the f64
// answer (DESIGN.md §6). The serving tests assert both across every target
// of a fitted model.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/pipeline.h"

namespace acbm::core {

/// Arithmetic precision of a forecast (--precision CLI flag).
enum class Precision {
  kF64,  ///< The fitted f64 models, bit for bit (default).
  kF32,  ///< The artifact's f32 sections (documented rel-error bound).
};

[[nodiscard]] std::string_view precision_name(Precision precision) noexcept;

/// Parses "f64" / "f32"; throws std::invalid_argument on anything else.
[[nodiscard]] Precision parse_precision(std::string_view text);

class ServingModel {
 public:
  ServingModel() = default;

  /// Maps an .armm artifact and validates it in place (O(µs) startup plus
  /// the optional CRC sweep); no deserialization, no allocation
  /// proportional to model size. Throws durable::LoadFailure on
  /// corruption.
  [[nodiscard]] static ServingModel map_file(const std::filesystem::path& path,
                                             bool verify_crc = true);

  /// Parses an in-memory image (copied into an owned 8-byte-aligned
  /// buffer). For tests and for models packed on the fly.
  [[nodiscard]] static ServingModel from_image(std::string_view image);

  /// Loads either container of the one image: a raw .armm maps in place; a
  /// framed model.art (AdversaryModel::save_framed, armm::kFrameKind
  /// v armm::kFrameVersion) has its frame CRC checked against the mapping
  /// and its payload copied into an aligned buffer (from_image). Anything
  /// else is a typed durable::LoadFailure: an older text model.art (v3/v4)
  /// is kVersionUnsupported. The daemon, `acbm predict` and the ingest
  /// drift monitor load models through it.
  [[nodiscard]] static ServingModel load_any(const std::filesystem::path& path);

  [[nodiscard]] bool loaded() const noexcept { return loaded_; }

  /// Next-attack forecast for one target, mirroring
  /// AdversaryModel::predict_next_attack (f64 bit for bit; f32 within the
  /// documented bound). Returns nullopt for targets with no attack history.
  /// Thread-safe; uses thread_local scratch only.
  [[nodiscard]] std::optional<AttackPrediction> predict(
      net::Asn target_asn, Precision precision = Precision::kF64) const;

  /// All target ASNs in the artifact, ascending.
  [[nodiscard]] std::vector<net::Asn> targets() const;
  [[nodiscard]] bool has_target(net::Asn asn) const noexcept {
    return view_.target(asn) != nullptr;
  }

  [[nodiscard]] std::string_view family_name(std::uint32_t family) const;
  [[nodiscard]] trace::EpochSeconds window_start() const noexcept;
  [[nodiscard]] const armm::ArtifactView& view() const noexcept {
    return view_;
  }
  /// Size in bytes of the backing image / mapping.
  [[nodiscard]] std::size_t image_size() const noexcept;
  /// The raw .armm image bytes backing this model (mapping or owned
  /// buffer); valid while the model is alive.
  [[nodiscard]] std::string_view image() const noexcept;

 private:
  durable::MappedFile file_;            ///< map_file path.
  std::vector<std::uint64_t> image_;    ///< from_image path (aligned).
  std::size_t image_bytes_ = 0;
  armm::ArtifactView view_;
  bool loaded_ = false;
};

}  // namespace acbm::core
