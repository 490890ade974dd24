// Stage checkpointing for long pipeline runs: one framed artifact per stage,
// one durable completion marker file per stage (carrying the run's config
// hash and the payload CRC), and an append-only journal. `acbm fit`
// and `acbm evaluate` point a CheckpointDir at --checkpoint-dir and, with
// --resume, skip per-family fits and per-horizon evaluations whose stage
// already completed — reaching the bit-identical final result an
// uninterrupted run produces. `acbm fit --workers` and `acbm ingest` use the
// same markers: every query re-reads the marker on disk, so a stage another
// process completed (or dropped) is seen at once. Stage artifacts are only
// ever written by the worker holding that shard's lease (core/shard.h), and
// every writer publishes deterministic, identical bytes, so even a
// stolen-lease double publish is benign.
//
// Recovery policy on load: a transiently unreadable artifact (a reader
// racing a concurrent publisher) is retried a bounded number of times
// first; a persistently corrupt copy is then quarantined
// (`*.corrupt-<n>`), the newest valid generation (`.g1`, `.g2`) is used
// instead, and when no generation survives the marker is removed and the
// stage simply reruns.
//
// Fault points wired here (see robust.h FaultInjector):
//   checkpoint.stage   key "<stage>"  crash between the stage artifact
//                                     write and its marker
//   checkpoint.read    key "<stage>"  fail one artifact read attempt
//                                     (exercises the bounded retry)
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable.h"

namespace acbm::core {

/// Abstract stage store threaded through fit/eval code. Implementations
/// must be used from one thread at a time (the pipeline checkpoints at
/// stage boundaries, outside its parallel sections).
class StageStore {
 public:
  virtual ~StageStore() = default;

  /// Payload of a completed stage, or nullopt when the stage has not
  /// completed (or every copy of its artifact was corrupt).
  [[nodiscard]] virtual std::optional<std::string> load(
      std::string_view stage) = 0;

  /// Durably records a completed stage and its artifact payload.
  virtual void store(std::string_view stage, std::string_view payload) = 0;
};

/// Filesystem-backed StageStore: one framed artifact and one completion
/// marker per stage, and a `journal.log` recording every store/load/recovery
/// event.
class CheckpointDir final : public StageStore {
 public:
  struct Options {
    /// Content hash of the run's inputs + config. A marker written under a
    /// different hash is stale: its stage reads as not done.
    std::uint64_t config_hash = 0;
    /// Reuse compatible completed stages from a previous run. When false
    /// the directory's markers are removed on open (prior artifacts stay and
    /// rotate to generations on the next store()).
    bool resume = false;
  };

  CheckpointDir(std::filesystem::path dir, Options opts);

  [[nodiscard]] std::optional<std::string> load(std::string_view stage) override;
  void store(std::string_view stage, std::string_view payload) override;

  /// True when the stage's marker on disk records it complete under this
  /// run's config hash (the artifact may still turn out corrupt on load()).
  [[nodiscard]] bool is_complete(std::string_view stage) const;

  /// Marks a completed stage stale so it reruns: durably removes its marker,
  /// for every process. The stage artifact itself is left in place — it
  /// simply rotates to a generation on the next store(). Used by the ingest
  /// drift loop to invalidate stages whose inputs changed. No-op when the
  /// stage was not complete.
  void invalidate(std::string_view stage);

  /// Names of the stages whose markers record them complete (sorted).
  [[nodiscard]] std::vector<std::string> completed_stages() const;

  /// Recovery events accumulated across load() calls.
  [[nodiscard]] const durable::LoadReport& report() const noexcept {
    return report_;
  }

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

  /// Filesystem-safe stage name ('/' and other separators become '-').
  [[nodiscard]] static std::string slug(std::string_view stage);

 private:
  void journal(std::string_view line);
  [[nodiscard]] std::filesystem::path artifact_path(
      std::string_view stage) const;
  [[nodiscard]] std::filesystem::path marker_path(std::string_view stage) const;
  /// Unlinks a marker, then fsyncs the directory so the removal is durable.
  static void remove_marker(const std::filesystem::path& marker);

  std::filesystem::path dir_;
  Options opts_;
  durable::LoadReport report_;
};

}  // namespace acbm::core
