#include "lsm/db.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"

namespace kvcsd::lsm {

namespace {

constexpr std::uint32_t kManifestMagic = 0x4d414e49;  // "MANI"

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size());
}

// WAL payload: varint64 seq | u8 type | varint32 klen | key | value.
std::string EncodeWalEntry(SequenceNumber seq, ValueType type,
                           const Slice& key, const Slice& value) {
  std::string rec;
  rec.reserve(12 + key.size() + value.size());
  PutVarint64(&rec, seq);
  rec.push_back(static_cast<char>(type));
  PutVarint32(&rec, static_cast<std::uint32_t>(key.size()));
  rec.append(key.data(), key.size());
  rec.append(value.data(), value.size());
  return rec;
}

bool DecodeWalEntry(const Slice& rec, SequenceNumber* seq, ValueType* type,
                    Slice* key, Slice* value) {
  Slice in = rec;
  std::uint64_t s = 0;
  if (!GetVarint64(&in, &s) || in.empty()) return false;
  *seq = s;
  const auto type_byte = static_cast<std::uint8_t>(in[0]);
  if (type_byte > static_cast<std::uint8_t>(ValueType::kValue)) return false;
  *type = static_cast<ValueType>(type_byte);
  in.remove_prefix(1);
  std::uint32_t klen = 0;
  if (!GetVarint32(&in, &klen) || in.size() < klen) return false;
  *key = Slice(in.data(), klen);
  in.remove_prefix(klen);
  *value = in;
  return true;
}

}  // namespace

Db::Db(LsmEnv* env, BlockCache* block_cache, DbOptions options)
    : env_(env),
      block_cache_(block_cache),
      options_(std::move(options)),
      mem_(std::make_unique<MemTable>()),
      versions_(options_.level_base_size),
      manifest_lock_(env->sim, 1),
      work_signal_(env->sim),
      state_changed_(env->sim),
      workers_done_(env->sim) {
  cache_id_ = block_cache->NewCacheId();
}

std::string Db::SstFileName(std::uint64_t number) const {
  return options_.name + "/" + std::to_string(number) + ".sst";
}

std::string Db::WalFileName(std::uint64_t number) const {
  return options_.name + "/wal-" + std::to_string(number);
}

std::string Db::ManifestName() const { return options_.name + "/MANIFEST"; }

sim::Task<Result<std::unique_ptr<Db>>> Db::Open(LsmEnv* env,
                                                BlockCache* block_cache,
                                                DbOptions options) {
  std::unique_ptr<Db> db(new Db(env, block_cache, std::move(options)));
  Status s = co_await db->Recover();
  if (!s.ok()) co_return s;

  // Fresh WAL for the active memtable.
  db->mem_wal_number_ = db->versions_.NextFileNumber();
  auto wal_file = env->fs->Create(db->WalFileName(db->mem_wal_number_));
  if (!wal_file.ok()) co_return wal_file.status();
  db->wal_ = std::make_unique<WalWriter>(env->fs, *wal_file);

  db->workers_done_.Add(kBackgroundWorkers);
  for (int i = 0; i < kBackgroundWorkers; ++i) {
    env->sim->Spawn(db->BackgroundWorker(i));
  }
  co_return db;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

sim::Task<Status> Db::Recover() {
  // 1. Levels from the MANIFEST, if one exists.
  if (env_->fs->Exists(ManifestName())) {
    auto size = env_->fs->FileSize(ManifestName());
    if (!size.ok()) co_return size.status();
    auto handle = env_->fs->Open(ManifestName());
    if (!handle.ok()) co_return handle.status();
    std::string raw(*size, '\0');
    Status s = co_await env_->fs->Pread(
        *handle, 0,
        std::span<std::byte>(reinterpret_cast<std::byte*>(raw.data()),
                             raw.size()));
    if (!s.ok()) co_return s;

    Slice in(raw);
    std::uint32_t magic = 0;
    std::uint64_t last_seq = 0, next_file = 0, num_levels = 0;
    if (!GetFixed32(&in, &magic) || magic != kManifestMagic ||
        !GetVarint64(&in, &last_seq) || !GetVarint64(&in, &next_file) ||
        !GetVarint64(&in, &num_levels) ||
        num_levels > VersionSet::kNumLevels) {
      co_return Status::Corruption("bad manifest header");
    }
    seq_ = last_seq;
    for (std::uint64_t level = 0; level < num_levels; ++level) {
      std::uint64_t num_files = 0;
      if (!GetVarint64(&in, &num_files)) {
        co_return Status::Corruption("bad manifest level");
      }
      for (std::uint64_t i = 0; i < num_files; ++i) {
        auto meta = std::make_shared<FileMeta>();
        Slice smallest, largest;
        if (!GetVarint64(&in, &meta->number) ||
            !GetVarint64(&in, &meta->size) ||
            !GetVarint64(&in, &meta->entries) ||
            !GetLengthPrefixedSlice(&in, &smallest) ||
            !GetLengthPrefixedSlice(&in, &largest)) {
          co_return Status::Corruption("bad manifest file entry");
        }
        meta->smallest = smallest.ToString();
        meta->largest = largest.ToString();
        auto reader = co_await SstableReader::Open(
            env_, block_cache_, CacheKeyFor(meta->number),
            SstFileName(meta->number), options_.table);
        if (!reader.ok()) co_return reader.status();
        meta->reader = std::shared_ptr<SstableReader>(std::move(*reader));
        versions_.AddFile(static_cast<int>(level), std::move(meta));
      }
    }
    // NextFileNumber monotonicity across restarts.
    versions_.BumpFileNumberTo(next_file);
  }

  // 2. Replay any leftover WALs (unflushed memtables at crash/close time),
  // oldest first.
  std::vector<std::pair<std::uint64_t, std::string>> wals;
  const std::string prefix = options_.name + "/wal-";
  for (const std::string& name : env_->fs->ListFiles()) {
    if (name.rfind(prefix, 0) == 0) {
      wals.emplace_back(std::stoull(name.substr(prefix.size())), name);
    }
  }
  std::sort(wals.begin(), wals.end());
  for (const auto& [number, name] : wals) {
    KVCSD_CO_RETURN_IF_ERROR(co_await ReplayWal(name));
    KVCSD_CO_RETURN_IF_ERROR(co_await env_->fs->Delete(name));
  }
  co_return Status::Ok();
}

sim::Task<Status> Db::ReplayWal(const std::string& wal_name) {
  WalReader reader(env_->fs, wal_name);
  auto records = co_await reader.ReadAll();
  if (!records.ok()) co_return records.status();
  for (const std::string& rec : *records) {
    SequenceNumber seq = 0;
    ValueType type = ValueType::kValue;
    Slice key, value;
    if (!DecodeWalEntry(Slice(rec), &seq, &type, &key, &value)) {
      break;  // same stop-at-corruption contract as the record framing
    }
    seq_ = std::max(seq_, seq);
    mem_->Add(seq, type, key, value);
  }
  co_return Status::Ok();
}

sim::Task<Status> Db::WriteManifest() {
  // Flush and compaction can finish concurrently; the delete/create/append
  // sequence below must not interleave between writers.
  co_await manifest_lock_.Acquire();
  std::string out;
  PutFixed32(&out, kManifestMagic);
  PutVarint64(&out, seq_);
  PutVarint64(&out, versions_.PeekNextFileNumber());
  PutVarint64(&out, VersionSet::kNumLevels);
  for (int level = 0; level < VersionSet::kNumLevels; ++level) {
    const auto& files = versions_.files(level);
    PutVarint64(&out, files.size());
    for (const auto& f : files) {
      PutVarint64(&out, f->number);
      PutVarint64(&out, f->size);
      PutVarint64(&out, f->entries);
      PutLengthPrefixedSlice(&out, Slice(f->smallest));
      PutLengthPrefixedSlice(&out, Slice(f->largest));
    }
  }
  Status result = Status::Ok();
  if (env_->fs->Exists(ManifestName())) {
    result = co_await env_->fs->Delete(ManifestName());
  }
  if (result.ok()) {
    auto handle = env_->fs->Create(ManifestName());
    if (!handle.ok()) {
      result = handle.status();
    } else {
      result = co_await env_->fs->Append(*handle, AsBytes(out));
      if (result.ok()) result = co_await env_->fs->Sync(*handle);
    }
  }
  manifest_lock_.Release();
  co_return result;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

sim::Task<Status> Db::MaybeStall() {
  bool stalled = false;
  const Tick start = env_->sim->Now();
  while (true) {
    const bool too_many_imm =
        static_cast<int>(imm_.size()) > kMaxImmMemtables;
    const bool too_many_l0 =
        options_.compaction_mode == CompactionMode::kAuto &&
        NumLevelFiles(0) >= options_.l0_stall_trigger;
    if (!too_many_imm && !too_many_l0) break;
    stalled = true;
    state_changed_.Reset();
    co_await state_changed_.Wait();
  }
  if (stalled) {
    ++stats_.stalls;
    stats_.stall_time += env_->sim->Now() - start;
  }
  co_return Status::Ok();
}

sim::Task<Status> Db::SwitchMemtable() {
  imm_.push_back(ImmEntry{std::move(mem_), mem_wal_number_});
  mem_ = std::make_unique<MemTable>();
  mem_wal_number_ = versions_.NextFileNumber();
  auto wal_file = env_->fs->Create(WalFileName(mem_wal_number_));
  if (!wal_file.ok()) co_return wal_file.status();
  wal_ = std::make_unique<WalWriter>(env_->fs, *wal_file);
  ScheduleWork();
  co_return Status::Ok();
}

sim::Task<Status> Db::WriteEntry(ValueType type, const Slice& key,
                                 const Slice& value) {
  if (closed_) co_return Status::FailedPrecondition("db closed");
  if (!bg_error_.ok()) co_return bg_error_;
  KVCSD_CO_RETURN_IF_ERROR(co_await MaybeStall());

  const SequenceNumber seq = ++seq_;
  const std::string rec = EncodeWalEntry(seq, type, key, value);
  KVCSD_CO_RETURN_IF_ERROR(co_await wal_->AddRecord(Slice(rec)));
  stats_.wal_bytes += rec.size();

  co_await env_->cpu->Compute(env_->costs.memtable_insert);
  mem_->Add(seq, type, key, value);

  if (mem_->ApproximateMemoryUsage() >= options_.memtable_size) {
    KVCSD_CO_RETURN_IF_ERROR(co_await SwitchMemtable());
  }
  co_return Status::Ok();
}

sim::Task<Status> Db::Put(const Slice& key, const Slice& value) {
  ++stats_.puts;
  co_return co_await WriteEntry(ValueType::kValue, key, value);
}

sim::Task<Status> Db::Delete(const Slice& key) {
  ++stats_.deletes;
  co_return co_await WriteEntry(ValueType::kDeletion, key, Slice());
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

sim::Task<Status> Db::Get(const Slice& key, std::string* value) {
  if (closed_) co_return Status::FailedPrecondition("db closed");
  ++stats_.gets;
  const SequenceNumber snapshot = seq_;
  bool found = false;

  co_await env_->cpu->Compute(env_->costs.memtable_lookup);
  Status s = mem_->Get(key, snapshot, value, &found);
  if (found) co_return s;
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {  // newest first
    co_await env_->cpu->Compute(env_->costs.memtable_lookup);
    s = it->mem->Get(key, snapshot, value, &found);
    if (found) co_return s;
  }

  // L0: newest-first, ranges may overlap.
  for (const auto& f : versions_.files(0)) {
    if (key.compare(f->smallest_user()) < 0 ||
        key.compare(f->largest_user()) > 0) {
      continue;
    }
    s = co_await f->reader->Get(key, snapshot, value, &found);
    if (found) co_return s;
    if (!s.ok() && !s.IsNotFound()) co_return s;
  }

  // L1+: binary search the single candidate file per level.
  for (int level = 1; level < versions_.num_levels(); ++level) {
    const auto& files = versions_.files(level);
    auto it = std::lower_bound(
        files.begin(), files.end(), key,
        [](const std::shared_ptr<FileMeta>& f, const Slice& k) {
          return f->largest_user().compare(k) < 0;
        });
    if (it == files.end() || key.compare((*it)->smallest_user()) < 0) {
      continue;
    }
    s = co_await (*it)->reader->Get(key, snapshot, value, &found);
    if (found) co_return s;
    if (!s.ok() && !s.IsNotFound()) co_return s;
  }
  co_return Status::NotFound();
}

sim::Task<Status> Db::RangeScan(
    const Slice& lo, const Slice& hi, std::size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  if (closed_) co_return Status::FailedPrecondition("db closed");
  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(std::make_unique<MemTableIterator>(mem_.get()));
  for (const auto& imm : imm_) {
    children.push_back(std::make_unique<MemTableIterator>(imm.mem.get()));
  }
  for (int level = 0; level < versions_.num_levels(); ++level) {
    for (const auto& f : versions_.Overlapping(level, lo, hi)) {
      children.push_back(std::make_unique<SstableIterator>(f->reader.get()));
    }
  }
  MergingIterator merged(std::move(children));
  const std::string target =
      MakeInternalKey(lo, kMaxSequenceNumber, ValueType::kValue);
  KVCSD_CO_RETURN_IF_ERROR(co_await merged.Seek(Slice(target)));

  std::string last_user_key;
  bool have_last = false;
  while (merged.Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged.internal_key(), &parsed)) {
      co_return Status::Corruption("bad key during scan");
    }
    if (parsed.user_key.compare(hi) > 0) break;
    const bool shadowed =
        have_last && parsed.user_key == Slice(last_user_key);
    if (!shadowed) {
      last_user_key = parsed.user_key.ToString();
      have_last = true;
      if (parsed.type == ValueType::kValue) {
        co_await env_->cpu->Compute(env_->costs.kv_op_fixed);
        out->emplace_back(parsed.user_key.ToString(),
                          merged.value().ToString());
        if (limit != 0 && out->size() >= limit) break;
      }
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await merged.Next());
  }
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Background work
// ---------------------------------------------------------------------------

void Db::ScheduleWork() { work_signal_.Push(1); }

void Db::SignalStateChange() { state_changed_.Set(); }

bool Db::HasCompactionWork() const {
  if (options_.compaction_mode != CompactionMode::kAuto) return false;
  if (manual_compaction_) return false;
  return versions_.PickCompactionLevel(options_.l0_compaction_trigger,
                                       levels_compacting_) >= 0;
}

bool Db::IsIdle() const {
  return imm_.empty() && !flush_running_ && levels_compacting_.empty() &&
         !manual_compaction_ && !HasCompactionWork();
}

sim::Task<void> Db::BackgroundWorker(int /*id*/) {
  for (;;) {
    co_await work_signal_.Pop();
    if (shutting_down_) break;
    for (;;) {
      if (HasFlushWork() && !flush_running_) {
        flush_running_ = true;
        Status s = co_await RunFlush();
        flush_running_ = false;
        if (!s.ok() && bg_error_.ok()) bg_error_ = s;
        SignalStateChange();
        continue;
      }
      if (HasCompactionWork()) {
        Status s = co_await RunCompaction();
        if (!s.ok() && bg_error_.ok()) bg_error_ = s;
        SignalStateChange();
        continue;
      }
      break;
    }
  }
  workers_done_.Done();
}

sim::Task<Result<std::shared_ptr<FileMeta>>> Db::OpenFileMeta(
    std::uint64_t number, const SstableBuilder& builder) {
  auto meta = std::make_shared<FileMeta>();
  meta->number = number;
  meta->size = builder.file_size();
  meta->entries = builder.num_entries();
  meta->smallest = builder.smallest_key();
  meta->largest = builder.largest_key();
  auto reader = co_await SstableReader::Open(env_, block_cache_,
                                             CacheKeyFor(number),
                                             SstFileName(number),
                                             options_.table);
  if (!reader.ok()) co_return reader.status();
  meta->reader = std::shared_ptr<SstableReader>(std::move(*reader));
  co_return meta;
}

sim::Task<Status> Db::RunFlush() {
  assert(!imm_.empty());
  // Oldest first, so L0 file numbers preserve shadowing order.
  MemTable* mem = imm_.front().mem.get();
  const std::uint64_t wal_number = imm_.front().wal_number;

  const std::uint64_t number = versions_.NextFileNumber();
  auto file = env_->fs->Create(SstFileName(number));
  if (!file.ok()) co_return file.status();
  SstableBuilder builder(env_, *file, options_.table);

  MemTable::Iterator it(mem);
  it.SeekToFirst();
  std::uint64_t cpu_batch = 0;
  while (it.Valid()) {
    const Slice key = it.internal_key();
    const Slice value = it.value();
    KVCSD_CO_RETURN_IF_ERROR(co_await builder.Add(key, value));
    cpu_batch += key.size() + value.size();
    if (cpu_batch >= KiB(256)) {
      co_await env_->cpu->ComputeBytes(cpu_batch,
                                       env_->costs.merge_bytes_per_sec);
      cpu_batch = 0;
    }
    it.Next();
  }
  if (cpu_batch > 0) {
    co_await env_->cpu->ComputeBytes(cpu_batch,
                                     env_->costs.merge_bytes_per_sec);
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await builder.Finish());

  auto meta = co_await OpenFileMeta(number, builder);
  if (!meta.ok()) co_return meta.status();
  versions_.AddFile(0, *meta);
  ++stats_.flushes;
  stats_.flush_bytes += builder.file_size();

  imm_.pop_front();
  if (env_->fs->Exists(WalFileName(wal_number))) {
    KVCSD_CO_RETURN_IF_ERROR(co_await env_->fs->Delete(WalFileName(wal_number)));
  }
  co_return co_await WriteManifest();
}

bool Db::RangeHasDeeperData(int below_level, const Slice& smallest_user,
                            const Slice& largest_user) const {
  for (int level = below_level + 1; level < versions_.num_levels(); ++level) {
    if (!versions_.Overlapping(level, smallest_user, largest_user).empty()) {
      return true;
    }
  }
  return false;
}

sim::Task<Status> Db::RunCompaction() {
  const int level = versions_.PickCompactionLevel(
      options_.l0_compaction_trigger, levels_compacting_);
  if (level < 0) co_return Status::Ok();
  levels_compacting_.insert(level);
  levels_compacting_.insert(level + 1);

  std::vector<CompactionInput> inputs;
  std::string smallest, largest;  // user-key range of the inputs
  auto widen = [&](const FileMeta& f) {
    if (smallest.empty() || f.smallest_user().compare(Slice(smallest)) < 0) {
      smallest = f.smallest_user().ToString();
    }
    if (largest.empty() || f.largest_user().compare(Slice(largest)) > 0) {
      largest = f.largest_user().ToString();
    }
  };

  if (level == 0) {
    for (const auto& f : versions_.files(0)) {
      inputs.push_back({0, f});
      widen(*f);
    }
  } else {
    // Pick the first file of the level (round-robin niceties matter little
    // for bulk-load workloads).
    const auto& files = versions_.files(level);
    assert(!files.empty());
    inputs.push_back({level, files.front()});
    widen(*files.front());
  }
  const int output_level = level + 1;
  for (const auto& f :
       versions_.Overlapping(output_level, Slice(smallest), Slice(largest))) {
    inputs.push_back({output_level, f});
  }

  const bool drop_deletions =
      !RangeHasDeeperData(output_level, Slice(smallest), Slice(largest));
  ++stats_.compactions;
  Status s = co_await MergeFiles(std::move(inputs), output_level,
                                 drop_deletions);
  levels_compacting_.erase(level);
  levels_compacting_.erase(output_level);
  co_return s;
}

sim::Task<Status> Db::MergeFiles(std::vector<CompactionInput> inputs,
                                 int output_level, bool drop_deletions) {
  std::vector<std::unique_ptr<InternalIterator>> children;
  children.reserve(inputs.size());
  for (const auto& in : inputs) {
    children.push_back(std::make_unique<SstableIterator>(
        in.file->reader.get(), /*fill_cache=*/false));
    stats_.compact_bytes_read += in.file->size;
  }
  MergingIterator merged(std::move(children));
  KVCSD_CO_RETURN_IF_ERROR(co_await merged.SeekToFirst());

  std::unique_ptr<SstableBuilder> builder;
  std::uint64_t out_number = 0;
  hostenv::FileHandle out_handle;
  std::vector<std::shared_ptr<FileMeta>> outputs;

  auto finish_output = [&]() -> sim::Task<Status> {
    if (!builder) co_return Status::Ok();
    KVCSD_CO_RETURN_IF_ERROR(co_await builder->Finish());
    auto meta = co_await OpenFileMeta(out_number, *builder);
    if (!meta.ok()) co_return meta.status();
    outputs.push_back(*meta);
    stats_.compact_bytes_written += builder->file_size();
    builder.reset();
    co_return Status::Ok();
  };

  std::string last_user_key;
  bool have_last = false;
  std::uint64_t cpu_batch = 0;
  while (merged.Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged.internal_key(), &parsed)) {
      co_return Status::Corruption("bad key during compaction");
    }
    const bool shadowed =
        have_last && parsed.user_key == Slice(last_user_key);
    cpu_batch += merged.internal_key().size() + merged.value().size();
    if (!shadowed) {
      last_user_key = parsed.user_key.ToString();
      have_last = true;
      const bool drop =
          drop_deletions && parsed.type == ValueType::kDeletion;
      if (!drop) {
        if (!builder) {
          out_number = versions_.NextFileNumber();
          auto file = env_->fs->Create(SstFileName(out_number));
          if (!file.ok()) co_return file.status();
          out_handle = *file;
          builder = std::make_unique<SstableBuilder>(env_, out_handle,
                                                     options_.table);
        }
        KVCSD_CO_RETURN_IF_ERROR(
            co_await builder->Add(merged.internal_key(), merged.value()));
        if (builder->file_size() >= options_.max_file_size) {
          KVCSD_CO_RETURN_IF_ERROR(co_await finish_output());
        }
      }
    }
    if (cpu_batch >= KiB(256)) {
      co_await env_->cpu->ComputeBytes(cpu_batch,
                                       env_->costs.merge_bytes_per_sec);
      cpu_batch = 0;
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await merged.Next());
  }
  if (cpu_batch > 0) {
    co_await env_->cpu->ComputeBytes(cpu_batch,
                                     env_->costs.merge_bytes_per_sec);
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await finish_output());

  // Install outputs, then retire inputs.
  for (auto& meta : outputs) versions_.AddFile(output_level, meta);
  for (const auto& in : inputs) {
    versions_.RemoveFile(in.level, in.file->number);
    block_cache_->EvictFile(CacheKeyFor(in.file->number));
    KVCSD_CO_RETURN_IF_ERROR(
        co_await env_->fs->Delete(SstFileName(in.file->number)));
  }
  co_return co_await WriteManifest();
}

// ---------------------------------------------------------------------------
// Manual operations & lifecycle
// ---------------------------------------------------------------------------

sim::Task<Status> Db::Flush() {
  if (mem_->num_entries() > 0) {
    KVCSD_CO_RETURN_IF_ERROR(co_await SwitchMemtable());
  }
  while (!imm_.empty() || flush_running_) {
    state_changed_.Reset();
    co_await state_changed_.Wait();
  }
  co_return bg_error_;
}

sim::Task<Status> Db::CompactRange() {
  KVCSD_CO_RETURN_IF_ERROR(co_await Flush());
  // Claim exclusive compaction rights: no new background compactions
  // start, and all running ones must drain.
  manual_compaction_ = true;
  while (!levels_compacting_.empty()) {
    state_changed_.Reset();
    co_await state_changed_.Wait();
  }
  std::vector<CompactionInput> inputs;
  for (int level = 0; level < versions_.num_levels(); ++level) {
    for (const auto& f : versions_.files(level)) {
      inputs.push_back({level, f});
    }
  }
  Status s = Status::Ok();
  if (inputs.size() > 1 ||
      (inputs.size() == 1 && inputs[0].level != versions_.num_levels() - 1)) {
    ++stats_.compactions;
    s = co_await MergeFiles(std::move(inputs), versions_.num_levels() - 1,
                            /*drop_deletions=*/true);
  }
  manual_compaction_ = false;
  SignalStateChange();
  co_return s;
}

sim::Task<void> Db::WaitForIdle() {
  while (!IsIdle()) {
    state_changed_.Reset();
    co_await state_changed_.Wait();
  }
}

std::uint64_t Db::NumEntriesApprox() const {
  std::uint64_t n = versions_.TotalEntries() + mem_->num_entries();
  for (const auto& imm : imm_) n += imm.mem->num_entries();
  return n;
}

sim::Task<Status> Db::Close() {
  if (closed_) co_return Status::Ok();
  co_await WaitForIdle();
  shutting_down_ = true;
  for (int i = 0; i < kBackgroundWorkers; ++i) {
    work_signal_.Push(0);
  }
  co_await workers_done_.Wait();
  closed_ = true;
  co_return bg_error_;
}

}  // namespace kvcsd::lsm
