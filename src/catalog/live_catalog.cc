#include "catalog/live_catalog.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "catalog/segment.h"
#include "common/dcheck.h"
#include "linalg/blas.h"
#include "topk/merge.h"
#include "topk/score_select.h"

namespace mips {
namespace {

/// Sorts `rows` and drops repeats: the mask they list.
ItemMask SortedMask(std::vector<Index>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
  return {rows->data(), static_cast<Index>(rows->size()), 0};
}

/// InvalidArgument unless `vector` has `f` finite components: the check
/// Insert and Update run before taking any lock, so a refused vector
/// consumes no id and buffers nothing.
Status ValidateItemVector(std::span<const Real> vector, Index f) {
  if (static_cast<Index>(vector.size()) != f) {
    return Status::InvalidArgument(
        "vector has " + std::to_string(vector.size()) + " factors, want " +
        std::to_string(f));
  }
  const int64_t bad = FirstNonFinite(vector.data(), vector.size());
  if (bad >= 0) {
    return Status::InvalidArgument(
        "vector has a non-finite component at factor " + std::to_string(bad));
  }
  return Status::OK();
}

}  // namespace

LiveCatalog::Epoch::~Epoch() {
  if (drain_counter != nullptr) {
    drain_counter->fetch_add(1, std::memory_order_relaxed);
  }
}

bool LiveCatalog::Epoch::Contains(Index id) const {
  return std::binary_search(ids.begin(), ids.end(), id);
}

StatusOr<std::unique_ptr<LiveCatalog>> LiveCatalog::Open(
    const ConstRowBlock& users, const ConstRowBlock& items,
    const LiveCatalogOptions& options) {
  if (users.rows() <= 0) {
    return Status::InvalidArgument("user set must be non-empty");
  }
  if (items.rows() > 0 && items.cols() != users.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  MIPS_RETURN_IF_ERROR(ValidateShardedOptions(options));
  if (options.rebuild_threshold < 0) {
    return Status::InvalidArgument(
        "rebuild_threshold must be >= 0, got " +
        std::to_string(options.rebuild_threshold));
  }

  std::unique_ptr<LiveCatalog> catalog(new LiveCatalog());
  catalog->users_ = users;
  catalog->options_ = options;

  auto epoch = std::make_shared<Epoch>();
  epoch->items = items;
  epoch->ids.resize(static_cast<std::size_t>(items.rows()));
  std::iota(epoch->ids.begin(), epoch->ids.end(), Index{0});
  if (items.rows() > 0) {
    MIPS_RETURN_IF_ERROR(catalog->OpenEpochEngine(epoch.get()));
  }
  epoch->drain_counter = catalog->epochs_drained_;
  {
    WriterMutexLock lock(catalog->state_mu_);
    catalog->epoch_ = std::move(epoch);
    catalog->next_id_ = items.rows();
    catalog->live_items_ = items.rows();
  }
  return catalog;
}

LiveCatalog::~LiveCatalog() {
  MutexLock lock(rebuild_mu_);
  while (rebuild_running_) rebuild_done_.Wait(lock);
  // The thread already published rebuild_running_ = false under
  // rebuild_mu_ as its last locked act, so joining here cannot deadlock.
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

Status LiveCatalog::OpenEpochEngine(Epoch* epoch) {
  auto engine = ShardedMipsEngine::Open(users_, epoch->items, options_);
  MIPS_RETURN_IF_ERROR(engine.status());
  epoch->engine = std::move(*engine);
  return Status::OK();
}

bool LiveCatalog::IsLive(Index id) const {
  if (active_.row_of_id.find(id) != active_.row_of_id.end()) return true;
  if (active_.dead.find(id) != active_.dead.end()) return false;
  if (sealed_ != nullptr) {
    if (sealed_->row_of_id.find(id) != sealed_->row_of_id.end()) return true;
    if (sealed_->dead.find(id) != sealed_->dead.end()) return false;
  }
  return epoch_->Contains(id);
}

bool LiveCatalog::RebuildDue() const {
  return options_.rebuild_threshold > 0 &&
         active_.mutations >= options_.rebuild_threshold;
}

void LiveCatalog::AppendRow(WriteBuffer* buffer, Index id, const Real* row,
                            Index f) {
  const Index local = buffer->num_rows();
  buffer->data.insert(buffer->data.end(), row,
                      row + static_cast<std::size_t>(f));
  buffer->ids.push_back(id);
  buffer->row_of_id.emplace(id, local);
}

StatusOr<Index> LiveCatalog::Insert(std::span<const Real> vector) {
  const Index f = num_factors();
  MIPS_RETURN_IF_ERROR(ValidateItemVector(vector, f));
  Index id = -1;
  bool should_rebuild = false;
  {
    WriterMutexLock lock(state_mu_);
    id = next_id_++;
    AppendRow(&active_, id, vector.data(), f);
    ++active_.mutations;
    ++live_items_;
    should_rebuild = RebuildDue();
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  MaybeStartRebuild(should_rebuild);
  return id;
}

Status LiveCatalog::Update(Index id, std::span<const Real> vector) {
  const Index f = num_factors();
  MIPS_RETURN_IF_ERROR(ValidateItemVector(vector, f));
  bool should_rebuild = false;
  {
    WriterMutexLock lock(state_mu_);
    auto it = active_.row_of_id.find(id);
    if (it != active_.row_of_id.end()) {
      // The current version already lives in the active layer: replace
      // it in place (no older version to mask).
      std::memcpy(&active_.data[static_cast<std::size_t>(it->second) *
                                static_cast<std::size_t>(f)],
                  vector.data(), sizeof(Real) * static_cast<std::size_t>(f));
    } else if (IsLive(id)) {
      AppendRow(&active_, id, vector.data(), f);
      active_.dead.insert(id);  // mask the sealed/base version
    } else {
      return Status::NotFound("no live item with id " + std::to_string(id));
    }
    ++active_.mutations;
    should_rebuild = RebuildDue();
  }
  updates_.fetch_add(1, std::memory_order_relaxed);
  MaybeStartRebuild(should_rebuild);
  return Status::OK();
}

Status LiveCatalog::Remove(Index id) {
  bool should_rebuild = false;
  {
    WriterMutexLock lock(state_mu_);
    auto it = active_.row_of_id.find(id);
    if (it != active_.row_of_id.end()) {
      // The layer's last row fills the vacated slot, so the layer holds
      // only live rows; the dead-set entry keeps any sealed/base
      // predecessor masked (the active row may have been an update).
      const auto row = static_cast<std::size_t>(it->second);
      const std::size_t last = active_.ids.size() - 1;
      const auto f = static_cast<std::size_t>(num_factors());
      active_.row_of_id.erase(it);
      if (row != last) {
        std::memcpy(&active_.data[row * f], &active_.data[last * f],
                    sizeof(Real) * f);
        active_.ids[row] = active_.ids[last];
        active_.row_of_id[active_.ids[row]] = static_cast<Index>(row);
      }
      active_.ids.pop_back();
      active_.data.resize(last * f);
      active_.dead.insert(id);
    } else if (IsLive(id)) {
      active_.dead.insert(id);
    } else {
      return Status::NotFound("no live item with id " + std::to_string(id));
    }
    ++active_.mutations;
    --live_items_;
    should_rebuild = RebuildDue();
  }
  removes_.fetch_add(1, std::memory_order_relaxed);
  MaybeStartRebuild(should_rebuild);
  return Status::OK();
}

Status LiveCatalog::Serve(Index k, const QueryRows& rows, const ItemMask& mask,
                          TopKResult* out) {
  MIPS_DCHECK(mask.empty());
  const Index f = num_factors();
  // A buffer layer's exact top-k rows of catalog ids among the rows its
  // mask does not name, scored serially (safe under the shared lock) with
  // the scores a rebuilt epoch's BMM reports, bit for bit.
  const auto score_layer = [&](const WriteBuffer& layer,
                               const ItemMask& layer_mask,
                               TopKResult* scored) {
    *scored = TopKResult(rows.size, k);
    ScoreTopK(rows.data, rows.size, layer.data.data(), layer.num_rows(), f, k,
              /*item_offset=*/0, layer.ids.data(), /*pool=*/nullptr, scored,
              /*row_offset=*/0, rows.ids, kScoreTileRows, layer_mask);
  };
  // Each layer is masked by the dead sets of the newer ones: the sealed
  // layer by the active layer's, the base by both.  A masked row is never
  // offered, so every layer's k entries are live and the merge of the
  // three is the live catalog's top k.  A layer with no rows joins the
  // merge as a null row.
  std::shared_ptr<Epoch> epoch;
  std::shared_ptr<const WriteBuffer> sealed;
  TopKResult active_rows, sealed_rows, base_rows;
  std::vector<Index> sealed_masked;  // sealed rows the active layer masks
  std::vector<Index> base_masked;    // epoch rows either layer masks
  {
    // The only lock a query takes: pin the epoch, score the mutable active
    // layer and build both masks from the dead sets while mutators are
    // held off.  Everything after — sealed layer, base query, merge — runs
    // on immutable state.
    ReaderMutexLock lock(state_mu_);
    epoch = epoch_;
    sealed = sealed_;
    if (active_.num_rows() > 0) score_layer(active_, {}, &active_rows);
    // A dead id's epoch row, if any: a binary search of the epoch's
    // ascending ids.
    const auto mask_base_row = [&](Index id) {
      const auto it =
          std::lower_bound(epoch->ids.begin(), epoch->ids.end(), id);
      if (it != epoch->ids.end() && *it == id) {
        base_masked.push_back(static_cast<Index>(it - epoch->ids.begin()));
      }
    };
    for (const Index id : active_.dead) {
      mask_base_row(id);
      if (sealed == nullptr) continue;
      const auto it = sealed->row_of_id.find(id);
      if (it != sealed->row_of_id.end()) sealed_masked.push_back(it->second);
    }
    if (sealed != nullptr) {
      for (const Index id : sealed->dead) mask_base_row(id);
    }
  }

  if (sealed != nullptr && sealed->num_rows() > 0) {
    score_layer(*sealed, SortedMask(&sealed_masked), &sealed_rows);
  }

  // Its strategy stays the one decided for the caller's k, so dead ids
  // never create a decision key.
  if (epoch->engine != nullptr) {
    MIPS_RETURN_IF_ERROR(
        epoch->engine->Serve(k, rows, SortedMask(&base_masked), &base_rows));
    // Epoch rows to catalog ids: the map is strictly increasing, so the
    // tie order survives it.
    for (Index q = 0; q < rows.size; ++q) {
      TopKEntry* row = base_rows.Row(q);
      for (Index e = 0; e < k && row[e].item >= 0; ++e) {
        row[e].item = epoch->ids[static_cast<std::size_t>(row[e].item)];
      }
    }
  }

  *out = TopKResult(rows.size, k);
  const auto row_of = [](const TopKResult& layer, Index q) {
    return layer.num_queries() > 0 ? layer.Row(q) : nullptr;
  };
  for (Index q = 0; q < rows.size; ++q) {
    const TopKEntry* layer_rows[3] = {row_of(base_rows, q),
                                      row_of(sealed_rows, q),
                                      row_of(active_rows, q)};
    MergeTopKRows(layer_rows, k, k, out->Row(q));
  }
  return Status::OK();
}

void LiveCatalog::MaybeStartRebuild(bool should_rebuild) {
  if (!should_rebuild) return;
  MutexLock lock(rebuild_mu_);
  if (rebuild_running_) return;
  (void)StartRebuildLocked();
}

bool LiveCatalog::StartRebuildLocked() {
  if (rebuild_running_) return true;
  // A finished thread parks joinable until the next start (or the dtor).
  if (rebuild_thread_.joinable()) rebuild_thread_.join();

  std::shared_ptr<Epoch> base;
  std::shared_ptr<const WriteBuffer> sealed;
  {
    WriterMutexLock lock(state_mu_);
    if (sealed_ == nullptr) {
      if (active_.ids.empty() && active_.dead.empty()) {
        return false;  // nothing to fold
      }
      // Seal: the active layer freezes (rebuild input), a fresh active
      // layer keeps absorbing mutations during the rebuild.  A sealed
      // layer left over from a FAILED rebuild is reused as-is instead.
      sealed_ = std::make_shared<const WriteBuffer>(std::move(active_));
      active_ = WriteBuffer{};
    }
    base = epoch_;
    sealed = sealed_;
  }
  rebuild_running_ = true;
  rebuilds_started_.fetch_add(1, std::memory_order_relaxed);
  // A dedicated thread, not the engine pool: the fold ends in
  // MipsEngine::Open, whose candidate builds WAIT on the pool — waiting
  // on a pool from inside one of its own tasks deadlocks.
  rebuild_thread_ =
      std::thread([this, base = std::move(base),
                   sealed = std::move(sealed)]() mutable {
        RebuildAndInstall(std::move(base), std::move(sealed));
      });
  return true;
}

void LiveCatalog::RebuildAndInstall(
    std::shared_ptr<Epoch> base, std::shared_ptr<const WriteBuffer> sealed) {
  auto built = BuildEpoch(*base, *sealed);
  base.reset();
  sealed.reset();
  const Status status = built.status();
  if (status.ok()) InstallEpoch(std::move(*built));
  MutexLock lock(rebuild_mu_);
  last_rebuild_error_ = status;
  rebuild_running_ = false;
  rebuild_done_.NotifyAll();
}

void LiveCatalog::FoldLive(const Epoch& base,
                           std::initializer_list<const WriteBuffer*> layers,
                           Index f, Matrix* rows, std::vector<Index>* ids) {
  // A row survives unless a newer layer's dead set names its id (layers
  // are oldest first; null ones are skipped).
  const auto masked_after = [&layers](Index id, std::size_t layer) {
    for (std::size_t j = layer; j < layers.size(); ++j) {
      const WriteBuffer* newer = layers.begin()[j];
      if (newer != nullptr && newer->dead.count(id) > 0) return true;
    }
    return false;
  };
  std::vector<std::pair<Index, const Real*>> live;  // (id, row)
  for (std::size_t r = 0; r < base.ids.size(); ++r) {
    if (masked_after(base.ids[r], 0)) continue;
    live.emplace_back(base.ids[r], base.items.Row(static_cast<Index>(r)));
  }
  const std::ptrdiff_t num_base = static_cast<std::ptrdiff_t>(live.size());
  for (std::size_t layer = 0; layer < layers.size(); ++layer) {
    const WriteBuffer* buffer = layers.begin()[layer];
    if (buffer == nullptr) continue;
    for (Index r = 0; r < buffer->num_rows(); ++r) {
      const Index id = buffer->ids[static_cast<std::size_t>(r)];
      if (masked_after(id, layer + 1)) continue;
      live.emplace_back(id, &buffer->data[static_cast<std::size_t>(r) *
                                          static_cast<std::size_t>(f)]);
    }
  }
  // Base rows are already in ascending id order; buffered rows are in
  // append order, which is NOT id order once updates interleave with
  // inserts.  Survivors of different layers never share an id (an update
  // always dead-marks its predecessor), so the result is strictly
  // increasing — the invariant the tie-order remap depends on.
  const auto by_id = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(live.begin() + num_base, live.end(), by_id);
  std::inplace_merge(live.begin(), live.begin() + num_base, live.end(), by_id);
  rows->Resize(static_cast<Index>(live.size()), f);
  ids->resize(live.size());
  for (std::size_t r = 0; r < live.size(); ++r) {
    (*ids)[r] = live[r].first;
    std::memcpy(rows->Row(static_cast<Index>(r)), live[r].second,
                sizeof(Real) * static_cast<std::size_t>(f));
  }
}

StatusOr<std::shared_ptr<LiveCatalog::Epoch>> LiveCatalog::BuildEpoch(
    const Epoch& base, const WriteBuffer& sealed) {
  auto next = std::make_shared<Epoch>();
  FoldLive(base, {&sealed}, num_factors(), &next->owned, &next->ids);
  next->items = ConstRowBlock(next->owned);
  if (next->items.rows() > 0) {
    MIPS_RETURN_IF_ERROR(OpenEpochEngine(next.get()));
  }
  next->drain_counter = epochs_drained_;
  return next;
}

void LiveCatalog::InstallEpoch(std::shared_ptr<Epoch> next) {
  std::shared_ptr<Epoch> old;
  {
    WriterMutexLock lock(state_mu_);
    old = std::move(epoch_);
    epoch_ = std::move(next);
    sealed_.reset();
  }
  catalog_epoch_.fetch_add(1, std::memory_order_relaxed);
  if (old != nullptr && old->engine != nullptr) {
    // The retiring engine's cached decisions die with it.  A query still
    // draining on the old epoch keeps using them: they were measured on
    // exactly the snapshot that query reads.
    decisions_retired_.fetch_add(old->engine->stats().decision_cache_size,
                                 std::memory_order_relaxed);
  }
  // `old` drops here; whichever thread holds the last in-flight
  // reference destroys the retired epoch and bumps epochs_drained_.
}

Status LiveCatalog::Rebuild() {
  MutexLock lock(rebuild_mu_);
  if (!rebuild_running_) {
    if (!StartRebuildLocked()) return Status::OK();  // nothing buffered
  }
  while (rebuild_running_) rebuild_done_.Wait(lock);
  return last_rebuild_error_;
}

Status LiveCatalog::SaveSegment(const std::string& path) const {
  Matrix snapshot;
  std::vector<Index> ids;  // reopening compacts ids to 0..n-1
  {
    ReaderMutexLock lock(state_mu_);
    FoldLive(*epoch_, {sealed_.get(), &active_}, num_factors(), &snapshot,
             &ids);
  }
  if (snapshot.rows() == 0) {
    return Status::InvalidArgument("cannot save an empty catalog");
  }
  return CatalogSegment::Write(ConstRowBlock(snapshot), path);
}

Index LiveCatalog::num_items() const {
  ReaderMutexLock lock(state_mu_);
  return live_items_;
}

LiveCatalog::Stats LiveCatalog::stats() const {
  Stats snapshot;
  static_cast<ServedStats&>(snapshot) = served();
  snapshot.catalog_epoch = catalog_epoch_.load(std::memory_order_relaxed);
  snapshot.inserts = inserts_.load(std::memory_order_relaxed);
  snapshot.updates = updates_.load(std::memory_order_relaxed);
  snapshot.removes = removes_.load(std::memory_order_relaxed);
  snapshot.rebuilds_started =
      rebuilds_started_.load(std::memory_order_relaxed);
  snapshot.swaps = snapshot.catalog_epoch;
  snapshot.epochs_drained = epochs_drained_->load(std::memory_order_relaxed);
  snapshot.decisions_retired =
      decisions_retired_.load(std::memory_order_relaxed);
  std::shared_ptr<const Epoch> epoch;
  {
    ReaderMutexLock lock(state_mu_);
    epoch = epoch_;
    snapshot.live_items = live_items_;
    snapshot.base_items = epoch_->items.rows();
    snapshot.buffered_rows =
        active_.num_rows() +
        (sealed_ != nullptr ? sealed_->num_rows() : Index{0});
    // The union's size: the active dead ids plus the sealed ones it lacks.
    snapshot.dead_masked = static_cast<Index>(active_.dead.size());
    if (sealed_ != nullptr) {
      for (const Index id : sealed_->dead) {
        if (!active_.dead.contains(id)) ++snapshot.dead_masked;
      }
    }
  }
  // Outside the state lock: strategy() takes each engine's decision lock,
  // which an inline re-decision holds exclusively for its whole sampling
  // run.  Waiting on it under state_mu_ would queue every mutation behind
  // that decision.
  if (epoch->engine != nullptr) {
    for (int s = 0; s < epoch->engine->num_shards(); ++s) {
      if (!snapshot.base_strategy.empty()) snapshot.base_strategy += ",";
      snapshot.base_strategy += epoch->engine->shard_strategy(s);
    }
  }
  {
    MutexLock lock(rebuild_mu_);
    snapshot.rebuild_running = rebuild_running_;
  }
  return snapshot;
}

}  // namespace mips
