// SweetKnnIndex snapshot export/restore and Save/Load. Declared in
// core/sweet_knn.h but defined here so that sweetknn_core does not depend
// on the store library (store links core, not the other way around).

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "core/device_points.h"
#include "core/sweet_knn.h"
#include "store/snapshot.h"

namespace sweetknn {

store::IndexSnapshot SweetKnnIndex::ExportSnapshot(
    const std::string& dataset_name, const std::string& builder,
    uint32_t shard_index, uint32_t shard_count, uint32_t next_id) const {
  store::IndexSnapshot snap;
  snap.dataset_name = dataset_name;
  snap.builder = builder;
  snap.shard_index = shard_index;
  snap.shard_count = shard_count;
  snap.shard_offset = offset_;
  snap.target = engine_->ExportTarget();
  snap.clustering = engine_->ExportTargetClustering();
  snap.options_fingerprint = store::OptionsFingerprint(engine_->options());
  snap.device_fingerprint = store::DeviceFingerprint(device_->spec());
  if (!pristine()) {
    snap.id_map = id_map_;
    // Normalization: a tombstoned delta entry (the transient state of a
    // remove that hit a compaction-captured row) is simply dead — the
    // snapshot drops both the entry and its tombstone, restoring the
    // file invariant that tombstones name base rows only.
    std::vector<size_t> live;
    for (size_t j = 0; j < delta_.size(); ++j) {
      if (delta_.tombstones.count(delta_.ids[j]) == 0) live.push_back(j);
    }
    snap.delta_points = HostMatrix(live.size(), dims_);
    for (size_t r = 0; r < live.size(); ++r) {
      snap.delta_ids.push_back(delta_.ids[live[r]]);
      std::memcpy(snap.delta_points.mutable_row(r), delta_.point(live[r]),
                  dims_ * sizeof(float));
    }
    for (const uint32_t id : delta_.tombstones) {
      if (delta_.Find(id) == core::DeltaBuffer::kNotFound) {
        snap.tombstones.push_back(id);
      }
    }
    std::sort(snap.tombstones.begin(), snap.tombstones.end());
    snap.next_id = next_id;
  }
  // Persisting the graph lets a restore skip the NN-descent build the
  // same way the clustering section lets it skip the Step-1 landmarks.
  if (!ann_.empty()) snap.ann_graph = ann_.graph();
  return snap;
}

Status SweetKnnIndex::Save(const std::string& path,
                           const std::string& dataset_name) const {
  return store::SaveIndexSnapshot(
      ExportSnapshot(dataset_name, "SweetKnnIndex::Save", /*shard_index=*/0,
                     /*shard_count=*/1, next_id_),
      path);
}

Result<std::unique_ptr<SweetKnnIndex>> SweetKnnIndex::Restore(
    store::IndexSnapshot snap, const SweetKnn::Config& config,
    const std::string& source) {
  const std::string want_options = store::OptionsFingerprint(config.options);
  if (snap.options_fingerprint != want_options) {
    return Status::InvalidArgument(
        "snapshot " + source +
        " was built under different options: file has [" +
        snap.options_fingerprint + "], this config is [" + want_options +
        "]");
  }
  const std::string want_device = store::DeviceFingerprint(config.device);
  if (snap.device_fingerprint != want_device) {
    return Status::InvalidArgument(
        "snapshot " + source +
        " was built for a different device: file has [" +
        snap.device_fingerprint + "], this config is [" + want_device + "]");
  }

  std::unique_ptr<SweetKnnIndex> index(new SweetKnnIndex(
      WarmStartTag{}, snap.target, snap.clustering, config,
      static_cast<uint32_t>(snap.shard_offset)));
  if (snap.HasOverlay()) {
    index->AdoptOverlay(std::move(snap.id_map), std::move(snap.delta_ids),
                        snap.delta_points.storage(), snap.tombstones,
                        snap.next_id);
  }
  // ANN tier: adopt the persisted graph when the config wants one (its
  // node ids are local base rows, so it is valid verbatim); rebuild when
  // the config wants a graph the file lacks. A persisted graph under a
  // graph-free config is simply ignored — exact answers never depend on
  // it.
  if (config.enable_ann) {
    index->ann_ =
        snap.HasAnnGraph()
            ? ann::AnnIndex::Adopt(snap.target,
                                   core::SimdDistFor(config.options.metric),
                                   std::move(snap.ann_graph))
            : BuildAnn(config, snap.target, *index->engine_);
  }
  return index;
}

Result<std::unique_ptr<SweetKnnIndex>> SweetKnnIndex::Load(
    const std::string& path, const SweetKnn::Config& config) {
  Result<store::IndexSnapshot> snapshot = store::LoadIndexSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  return Restore(std::move(snapshot).value(), config, path);
}

}  // namespace sweetknn
