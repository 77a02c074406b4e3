#include "core/snapshot.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

#include "util/fault.h"
#include "util/strings.h"

namespace ccfp {

namespace {

constexpr char kMagic[6] = {'C', 'C', 'F', 'P', 'W', 'S'};
constexpr std::size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
/// Byte offset of the header checksum — a record's identity (BlobId).
constexpr std::size_t kChecksumOffset =
    sizeof(kMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

constexpr char kSessionMagic[6] = {'C', 'C', 'F', 'P', 'S', 'R'};
constexpr std::uint32_t kSessionRecordVersion = 1;

/// Little-endian, byte-at-a-time writer: portable and alias-free.
class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader; every primitive either succeeds or trips the
/// sticky truncation flag (checked once by the caller via Ok()).
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  std::uint8_t U8() {
    if (pos_ >= in_.size()) {
      truncated_ = true;
      return 0;
    }
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{U8()} << (8 * i);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{U8()} << (8 * i);
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  std::string Str() {
    std::uint64_t n = U64();
    if (truncated_ || n > in_.size() - pos_) {
      truncated_ = true;
      return {};
    }
    std::string s(in_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Guards a forthcoming sequence of `count` items of >= `item_bytes`
  /// each, so corrupt counts fail fast instead of driving huge loops.
  bool Fits(std::uint64_t count, std::uint64_t item_bytes) {
    if (truncated_ || count > (in_.size() - pos_) / item_bytes) {
      truncated_ = true;
      return false;
    }
    return true;
  }

  bool Ok() const { return !truncated_; }
  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
};

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument(StrCat("workspace snapshot: ", what));
}

/// Wraps a payload in the versioned, checksummed header.
std::string EncodeRecord(std::string payload) {
  Writer w;
  for (char c : kMagic) w.U8(static_cast<std::uint8_t>(c));
  w.U32(kWorkspaceSnapshotVersion);
  w.U64(payload.size());
  w.U64(Fnv1a64(payload));
  std::string out = w.Take();
  out += payload;
  return out;
}

/// A record's identity: its header checksum, read straight off the blob.
std::uint64_t BlobId(std::string_view bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<std::uint8_t>(bytes[kChecksumOffset + i])}
         << (8 * i);
  }
  return v;
}

struct RecordView {
  std::string_view payload;
  std::uint64_t checksum = 0;
};

/// Validates magic, version, size, and checksum; returns the payload.
Result<RecordView> CheckRecord(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) return Corrupt("shorter than header");
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
    if (bytes[i] != kMagic[i]) return Corrupt("bad magic");
  }
  Reader header(bytes.substr(sizeof(kMagic), kHeaderBytes - sizeof(kMagic)));
  std::uint32_t version = header.U32();
  if (version != kWorkspaceSnapshotVersion) {
    return Corrupt(StrCat("unsupported version ", version));
  }
  std::uint64_t payload_size = header.U64();
  std::uint64_t checksum = header.U64();
  std::string_view payload = bytes.substr(kHeaderBytes);
  if (payload.size() != payload_size) {
    return Corrupt("payload size mismatch");
  }
  if (Fnv1a64(payload) != checksum) return Corrupt("checksum mismatch");
  return RecordView{payload, checksum};
}

/// --- file plumbing --------------------------------------------------------

Status WriteFileRaw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound(StrCat("cannot open ", path));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Internal(StrCat("short write to ", path));
  return Status::OK();
}

Result<std::string> ReadFileRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("cannot open ", path));
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in && !in.eof()) return Status::Internal(StrCat("read error ", path));
  return bytes;
}

std::string DirnameOf(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal(StrCat("cannot open for fsync ", path));
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(StrCat("fsync failed ", path));
  return Status::OK();
}

/// Best-effort: some filesystems reject directory fsync; the file itself
/// is already durable at this point.
void FsyncDir(const std::string& dir) {
  int flags = O_RDONLY;
#ifdef O_DIRECTORY
  flags |= O_DIRECTORY;
#endif
  int fd = ::open(dir.c_str(), flags);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Writes one serialized record to `path` under `write`, consulting the
/// installed FaultInjector at every crash instant (see the policy table in
/// core/snapshot.h). Under the atomic policy a failure — injected or real
/// — leaves `path` untouched except for the one instant *after* the
/// rename, where the new record is already in place but the caller sees
/// Internal (and must treat the save as failed).
Status WriteSnapshotBlob(std::string bytes, const std::string& path,
                         const SnapshotWriteOptions& write) {
  FaultInjector* fi = InstalledFaultInjector();
  if (!write.atomic) {
    // Legacy direct write: injected damage lands in the target file and
    // the save still reports success — bit rot the loader must detect.
    if (fi != nullptr) {
      if (fi->ShouldFail(FaultSite::kSnapshotCorrupt)) {
        fi->CorruptBytes(bytes);
      }
      if (fi->ShouldFail(FaultSite::kSnapshotTruncate)) {
        fi->TruncateBytes(bytes);
      }
    }
    return WriteFileRaw(path, bytes);
  }

  // Atomic policy: all damage is confined to the temp file, and a damaged
  // temp write "crashes" before the rename — the target keeps old state.
  std::string tmp = StrCat(path, ".tmp");
  bool torn = false;
  if (fi != nullptr) {
    if (fi->ShouldFail(FaultSite::kSnapshotCorrupt)) {
      fi->CorruptBytes(bytes);
      torn = true;
    }
    if (fi->ShouldFail(FaultSite::kSnapshotTruncate)) {
      fi->TruncateBytes(bytes);
      torn = true;
    }
  }
  CCFP_RETURN_NOT_OK(WriteFileRaw(tmp, bytes));
  if (torn) {
    return Status::Internal(
        StrCat("crash during snapshot temp write (fault injection): ", tmp));
  }
  if (fi != nullptr && fi->ShouldFail(FaultSite::kSnapshotFsync)) {
    return Status::Internal(
        StrCat("crash before snapshot fsync (fault injection): ", tmp));
  }
  if (write.durable) CCFP_RETURN_NOT_OK(FsyncFile(tmp));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal(StrCat("rename failed ", tmp, " -> ", path));
  }
  if (fi != nullptr && fi->ShouldFail(FaultSite::kSnapshotRename)) {
    return Status::Internal(
        StrCat("crash after snapshot rename (fault injection): ", path));
  }
  if (write.durable) FsyncDir(DirnameOf(path));
  return Status::OK();
}

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t SchemeFingerprint(const DatabaseScheme& scheme) {
  return Fnv1a64(scheme.ToString());
}

/// The one friend of InternedWorkspace / ValueInterner / DenseUnionFind:
/// all field-level serialization lives here so the classes themselves
/// expose nothing extra.
class WorkspaceSnapshotAccess {
 public:
  static void SerializePayload(
      const InternedWorkspace& ws,
      const std::vector<std::vector<std::uint64_t>>& cursors,
      std::string_view aux, Writer& w) {
    w.U8(kSnapshotRecordFull);
    w.U64(SchemeFingerprint(*ws.scheme_));

    // Interner: values in id order + the fresh-null watermark. Indexed
    // access spans a frozen shared base and the local extension alike.
    const ValueInterner& in = ws.interner_;
    w.U64(in.size());
    for (ValueId i = 0; i < in.size(); ++i) SerializeValue(in.value(i), w);
    w.U64(in.next_null_label_);

    // Union-find (sized to the interner by EnsureSize on every intern).
    const DenseUnionFind& uf = ws.uf_;
    w.U64(uf.parent_.size());
    for (ValueId p : uf.parent_) w.U32(p);
    for (std::uint32_t s : uf.size_) w.U32(s);
    for (ValueId r : uf.rep_) w.U32(r);

    // Relation stores: slots + alive flags + retained feed. The dedup
    // index is content-determined and rebuilt at load.
    w.U64(ws.rels_.size());
    for (RelId rel = 0; rel < ws.rels_.size(); ++rel) {
      const auto& rs = ws.rels_[rel];
      w.U64(rs.tuples.size());
      for (std::uint32_t i = 0; i < rs.tuples.size(); ++i) {
        for (ValueId id : rs.tuples[i]) w.U32(id);
        w.U8(rs.alive[i]);
      }
      w.U64(rs.feed_base);
      w.U64(rs.feed.size());
      for (const WorkspaceEvent& e : rs.feed) {
        w.U8(static_cast<std::uint8_t>(e.kind));
        w.U32(e.idx);
      }
    }

    // Occurrence lists, exactly: their order drives deterministic chase
    // worklists, so a rebuild is not equivalent.
    w.U64(ws.occurrences_.size());
    for (const auto& occ : ws.occurrences_) {
      w.U64(occ.size());
      for (const WorkspaceTupleRef& ref : occ) {
        w.U32(ref.rel);
        w.U32(ref.idx);
      }
    }

    // Compiled partitions: the warm-start capital. Group ids (including
    // tombstones) restore bit-for-bit so downstream consumers that cached
    // group ids stay correct.
    for (RelId rel = 0; rel < ws.rels_.size(); ++rel) {
      const auto& cache = ws.partitions_[rel];
      w.U64(cache.size());
      for (const auto& [cols, cp] : cache) {
        w.U64(cols.size());
        for (AttrId c : cols) w.U32(c);
        w.U32(cp.covered);
        const InternedWorkspace::Partition& p = cp.p;
        w.U64(p.group_of.size());
        for (std::uint32_t g : p.group_of) w.U32(g);
        w.U32(p.group_count);
        w.U32(p.alive_groups);
        w.U64(p.group_size.size());
        for (std::uint32_t s : p.group_size) w.U32(s);
        w.U64(p.key_to_group.size());
        for (const auto& [key, g] : p.key_to_group) {
          for (ValueId id : key) w.U32(id);
          w.U32(g);
        }
      }
    }

    // Substrate stats, so a restored session's counters are continuous.
    const InternedWorkspace::Stats& st = ws.stats_;
    w.U64(st.partitions_built);
    w.U64(st.partitions_extended);
    w.U64(st.partitions_reused);
    w.U64(st.partitions_invalidated);
    w.U64(st.partition_slots_repaired);
    w.U64(st.tuples_appended);
    w.U64(st.tuples_killed);
    w.U64(st.values_interned);
    w.U64(st.value_merges);
    w.U64(st.feed_compactions);
    w.U64(st.feed_events_compacted);

    // Caller-supplied consumer cursors (verifier feed positions, ...).
    SerializeCursors(cursors, w);
    w.Str(aux);
  }

  static Result<RestoredWorkspace> DeserializePayload(
      SchemePtr scheme, std::string_view in, std::uint64_t checksum) {
    Reader r(in);
    std::uint8_t kind = r.U8();
    if (kind == kSnapshotRecordDelta) {
      return Corrupt("expected a full record, found a delta");
    }
    if (kind != kSnapshotRecordFull) return Corrupt("bad record kind");
    if (r.U64() != SchemeFingerprint(*scheme)) {
      return Corrupt("scheme fingerprint mismatch");
    }

    RestoredWorkspace out{InternedWorkspace(scheme), {}, {}, 0};
    InternedWorkspace& ws = out.ws;

    // Interner.
    std::uint64_t n_values = r.U64();
    if (!r.Fits(n_values, 9)) return Corrupt("value table truncated");
    ValueInterner& interner = ws.interner_;
    interner.values_.reserve(static_cast<std::size_t>(n_values));
    for (std::uint64_t i = 0; i < n_values; ++i) {
      Value v;
      CCFP_RETURN_NOT_OK(DeserializeValue(r, v));
      if (!r.Ok()) return Corrupt("value table truncated");
      if (!interner.InternNew(v)) {
        return Corrupt("duplicate value in interner table");
      }
    }
    interner.next_null_label_ = r.U64();

    // Union-find.
    std::uint64_t n_uf = r.U64();
    if (n_uf != n_values) return Corrupt("union-find size mismatch");
    if (!r.Fits(n_uf, 12)) return Corrupt("union-find truncated");
    DenseUnionFind& uf = ws.uf_;
    uf.parent_.reserve(n_uf);
    uf.size_.reserve(n_uf);
    uf.rep_.reserve(n_uf);
    for (std::uint64_t i = 0; i < n_uf; ++i) uf.parent_.push_back(r.U32());
    for (std::uint64_t i = 0; i < n_uf; ++i) uf.size_.push_back(r.U32());
    for (std::uint64_t i = 0; i < n_uf; ++i) uf.rep_.push_back(r.U32());
    for (std::uint64_t i = 0; i < n_uf; ++i) {
      if (uf.parent_[i] >= n_uf || uf.rep_[i] >= n_uf) {
        return Corrupt("union-find id out of range");
      }
    }

    // Relation stores.
    if (r.U64() != scheme->size()) return Corrupt("relation count mismatch");
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      auto& rs = ws.rels_[rel];
      std::uint64_t arity = scheme->relation(rel).arity();
      std::uint64_t n_slots = r.U64();
      if (!r.Fits(n_slots, arity * 4 + 1)) {
        return Corrupt("tuple store truncated");
      }
      rs.tuples.reserve(static_cast<std::size_t>(n_slots));
      rs.alive.reserve(static_cast<std::size_t>(n_slots));
      for (std::uint64_t i = 0; i < n_slots; ++i) {
        IdTuple t;
        t.reserve(static_cast<std::size_t>(arity));
        for (std::uint64_t c = 0; c < arity; ++c) {
          ValueId id = r.U32();
          if (id >= n_values) return Corrupt("tuple id out of range");
          t.push_back(id);
        }
        std::uint8_t alive = r.U8();
        if (alive > 1) return Corrupt("bad alive flag");
        ws.tuple_id_cells_ += t.size();
        rs.tuples.push_back(std::move(t));
        rs.alive.push_back(alive);
        if (alive) {
          ++rs.alive_count;
          ++ws.total_alive_;
        }
      }
      // Rebuild the dedup index over alive slots (content-determined).
      for (std::uint32_t i = 0; i < rs.tuples.size(); ++i) {
        if (!rs.alive[i]) continue;
        if (!rs.IndexRow(i, rs.tuples[i])) {
          return Corrupt("duplicate alive tuple");
        }
      }
      rs.feed_base = r.U64();
      std::uint64_t n_events = r.U64();
      if (!r.Fits(n_events, 5)) return Corrupt("feed truncated");
      rs.feed.reserve(static_cast<std::size_t>(n_events));
      for (std::uint64_t i = 0; i < n_events; ++i) {
        std::uint8_t ekind = r.U8();
        std::uint32_t idx = r.U32();
        if (ekind > 2 || idx >= rs.tuples.size()) {
          return Corrupt("bad feed event");
        }
        rs.feed.push_back(WorkspaceEvent{
            static_cast<WorkspaceEventKind>(ekind), idx});
      }
    }

    // Occurrences (exact).
    std::uint64_t n_occ = r.U64();
    if (n_occ != n_values) return Corrupt("occurrence table size mismatch");
    ws.occurrences_.resize(static_cast<std::size_t>(n_occ));
    for (std::uint64_t i = 0; i < n_occ; ++i) {
      std::uint64_t n_refs = r.U64();
      if (!r.Fits(n_refs, 8)) return Corrupt("occurrences truncated");
      auto& occ = ws.occurrences_[static_cast<std::size_t>(i)];
      occ.reserve(static_cast<std::size_t>(n_refs));
      for (std::uint64_t j = 0; j < n_refs; ++j) {
        WorkspaceTupleRef ref;
        ref.rel = r.U32();
        ref.idx = r.U32();
        if (ref.rel >= scheme->size() ||
            ref.idx >= ws.rels_[ref.rel].tuples.size()) {
          return Corrupt("occurrence ref out of range");
        }
        occ.push_back(ref);
      }
      ws.occurrence_refs_ += n_refs;
    }

    // Partitions.
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      std::uint64_t n_cached = r.U64();
      std::uint64_t arity = scheme->relation(rel).arity();
      if (!r.Fits(n_cached, 8)) return Corrupt("partition cache truncated");
      for (std::uint64_t k = 0; k < n_cached; ++k) {
        std::uint64_t n_cols = r.U64();
        if (n_cols > arity) return Corrupt("partition columns out of range");
        std::vector<AttrId> cols;
        cols.reserve(static_cast<std::size_t>(n_cols));
        for (std::uint64_t c = 0; c < n_cols; ++c) {
          AttrId a = r.U32();
          if (a >= arity) return Corrupt("partition column out of range");
          cols.push_back(a);
        }
        InternedWorkspace::CachedPartition cp;
        cp.covered = r.U32();
        if (cp.covered > ws.rels_[rel].tuples.size()) {
          return Corrupt("partition covers unknown slots");
        }
        InternedWorkspace::Partition& p = cp.p;
        std::uint64_t n_groupof = r.U64();
        if (n_groupof != cp.covered) {
          return Corrupt("partition group_of size mismatch");
        }
        if (!r.Fits(n_groupof, 4)) return Corrupt("partition truncated");
        p.group_of.reserve(static_cast<std::size_t>(n_groupof));
        for (std::uint64_t i = 0; i < n_groupof; ++i) {
          p.group_of.push_back(r.U32());
        }
        p.group_count = r.U32();
        p.alive_groups = r.U32();
        std::uint64_t n_sizes = r.U64();
        if (n_sizes != p.group_count) {
          return Corrupt("partition group_size mismatch");
        }
        if (!r.Fits(n_sizes, 4)) return Corrupt("partition truncated");
        p.group_size.reserve(static_cast<std::size_t>(n_sizes));
        for (std::uint64_t i = 0; i < n_sizes; ++i) {
          p.group_size.push_back(r.U32());
        }
        for (std::uint32_t g : p.group_of) {
          if (g != InternedWorkspace::kNoGroup && g >= p.group_count) {
            return Corrupt("partition group id out of range");
          }
        }
        std::uint64_t n_keys = r.U64();
        if (!r.Fits(n_keys, n_cols * 4 + 4)) {
          return Corrupt("partition keys truncated");
        }
        for (std::uint64_t i = 0; i < n_keys; ++i) {
          IdTuple key;
          key.reserve(static_cast<std::size_t>(n_cols));
          for (std::uint64_t c = 0; c < n_cols; ++c) key.push_back(r.U32());
          std::uint32_t g = r.U32();
          if (g >= p.group_count) {
            return Corrupt("partition key group out of range");
          }
          if (!p.key_to_group.emplace(std::move(key), g).second) {
            return Corrupt("duplicate partition key");
          }
        }
        if (!ws.partitions_[rel].emplace(std::move(cols), std::move(cp))
                 .second) {
          return Corrupt("duplicate partition column set");
        }
      }
    }

    // Stats.
    InternedWorkspace::Stats& st = ws.stats_;
    st.partitions_built = r.U64();
    st.partitions_extended = r.U64();
    st.partitions_reused = r.U64();
    st.partitions_invalidated = r.U64();
    st.partition_slots_repaired = r.U64();
    st.tuples_appended = r.U64();
    st.tuples_killed = r.U64();
    st.values_interned = r.U64();
    st.value_merges = r.U64();
    st.feed_compactions = r.U64();
    st.feed_events_compacted = r.U64();

    // Consumer cursors + aux.
    CCFP_RETURN_NOT_OK(DeserializeCursors(r, out.consumer_cursors));
    out.aux = r.Str();

    if (!r.Ok()) return Corrupt("payload truncated");
    if (!r.AtEnd()) return Corrupt("trailing bytes after payload");

    // This record is now the workspace's chain identity: a delta record
    // linking to `checksum` extends exactly this state.
    out.snapshot_id = checksum;
    ws.MarkJournalPersisted(checksum);
    return out;
  }

  static void SerializeDeltaPayload(
      const InternedWorkspace& ws,
      const std::vector<std::vector<std::uint64_t>>& cursors,
      std::string_view aux, Writer& w) {
    w.U8(kSnapshotRecordDelta);
    w.U64(SchemeFingerprint(*ws.scheme_));
    w.U64(ws.snapshot_base_id_);

    // Interner growth since the base: values [from, size()).
    const ValueInterner& in = ws.interner_;
    std::uint64_t from = ws.journal_values_base_;
    w.U64(from);
    w.U64(in.size());
    for (std::uint64_t i = from; i < in.size(); ++i) {
      SerializeValue(in.value(static_cast<ValueId>(i)), w);
    }
    w.U64(in.next_null_label_);

    // The retained mutation journal, per-op minimal encoding.
    w.U64(ws.journal_.size());
    for (const WorkspaceJournalEntry& e : ws.journal_) {
      w.U8(static_cast<std::uint8_t>(e.op));
      switch (e.op) {
        case WorkspaceJournalEntry::Op::kAppend:
          w.U32(e.rel);
          w.U64(e.ids.size());
          for (ValueId id : e.ids) w.U32(id);
          break;
        case WorkspaceJournalEntry::Op::kMerge:
        case WorkspaceJournalEntry::Op::kReroute:
          w.U32(e.a);
          w.U32(e.b);
          break;
        case WorkspaceJournalEntry::Op::kCanonicalize:
          w.U32(e.rel);
          w.U32(e.idx);
          break;
        case WorkspaceJournalEntry::Op::kTrim:
          w.U32(e.rel);
          w.U64(e.horizon);
          break;
      }
    }

    SerializeCursors(cursors, w);
    w.Str(aux);
  }

  static Result<WorkspaceDeltaInfo> ApplyDeltaPayload(InternedWorkspace& ws,
                                                      std::string_view in,
                                                      std::uint64_t checksum) {
    Reader r(in);
    std::uint8_t kind = r.U8();
    if (kind == kSnapshotRecordFull) {
      return Corrupt("expected a delta record, found a full record");
    }
    if (kind != kSnapshotRecordDelta) return Corrupt("bad record kind");
    if (r.U64() != SchemeFingerprint(*ws.scheme_)) {
      return Corrupt("scheme fingerprint mismatch");
    }

    // Linkage is validated *before* any mutation: a stale delta (left
    // behind by a fold) must leave the workspace untouched so chain loads
    // can treat it as end-of-chain.
    std::uint64_t base_id = r.U64();
    if (!ws.HasSnapshotBase() || base_id != ws.SnapshotBaseId()) {
      return Status::FailedPrecondition(StrCat(
          "workspace snapshot: delta links to record ", base_id,
          " but the workspace is at record ", ws.SnapshotBaseId()));
    }

    // Decode everything up front (so damage is caught while the workspace
    // is still intact where possible; replay failures below mean the
    // record lied about its base and the workspace must be discarded).
    std::uint64_t values_from = r.U64();
    std::uint64_t values_to = r.U64();
    if (values_from != ws.interner_.size() || values_to < values_from) {
      return Corrupt("delta interner watermark inconsistent with base");
    }
    std::uint64_t growth = values_to - values_from;
    if (!r.Fits(growth, 9)) return Corrupt("delta value table truncated");
    std::vector<Value> new_values;
    new_values.reserve(static_cast<std::size_t>(growth));
    for (std::uint64_t i = 0; i < growth; ++i) {
      Value v;
      CCFP_RETURN_NOT_OK(DeserializeValue(r, v));
      if (!r.Ok()) return Corrupt("delta value table truncated");
      new_values.push_back(std::move(v));
    }
    std::uint64_t next_null_label = r.U64();

    std::uint64_t n_journal = r.U64();
    if (!r.Fits(n_journal, 1)) return Corrupt("delta journal truncated");
    std::vector<WorkspaceJournalEntry> entries;
    entries.reserve(static_cast<std::size_t>(n_journal));
    for (std::uint64_t i = 0; i < n_journal; ++i) {
      WorkspaceJournalEntry e;
      std::uint8_t op = r.U8();
      if (op > static_cast<std::uint8_t>(WorkspaceJournalEntry::Op::kTrim)) {
        return Corrupt("bad journal op");
      }
      e.op = static_cast<WorkspaceJournalEntry::Op>(op);
      switch (e.op) {
        case WorkspaceJournalEntry::Op::kAppend: {
          e.rel = r.U32();
          if (e.rel >= ws.scheme_->size()) {
            return Corrupt("journal relation out of range");
          }
          std::uint64_t n_ids = r.U64();
          if (n_ids != ws.scheme_->relation(e.rel).arity() ||
              !r.Fits(n_ids, 4)) {
            return Corrupt("journal append arity mismatch");
          }
          e.ids.reserve(static_cast<std::size_t>(n_ids));
          for (std::uint64_t j = 0; j < n_ids; ++j) {
            ValueId id = r.U32();
            if (id >= values_to) return Corrupt("journal id out of range");
            e.ids.push_back(id);
          }
          break;
        }
        case WorkspaceJournalEntry::Op::kMerge:
        case WorkspaceJournalEntry::Op::kReroute:
          e.a = r.U32();
          e.b = r.U32();
          if (e.a >= values_to || e.b >= values_to) {
            return Corrupt("journal id out of range");
          }
          break;
        case WorkspaceJournalEntry::Op::kCanonicalize:
          e.rel = r.U32();
          e.idx = r.U32();
          if (e.rel >= ws.scheme_->size()) {
            return Corrupt("journal relation out of range");
          }
          break;
        case WorkspaceJournalEntry::Op::kTrim:
          e.rel = r.U32();
          e.horizon = r.U64();
          if (e.rel >= ws.scheme_->size()) {
            return Corrupt("journal relation out of range");
          }
          break;
      }
      entries.push_back(std::move(e));
    }

    WorkspaceDeltaInfo info;
    info.base_id = base_id;
    info.id = checksum;
    CCFP_RETURN_NOT_OK(DeserializeCursors(r, info.consumer_cursors));
    info.aux = r.Str();
    if (!r.Ok()) return Corrupt("delta payload truncated");
    if (!r.AtEnd()) return Corrupt("trailing bytes after delta payload");

    // --- mutation begins; any failure below poisons the workspace ---

    // Interner growth (ids must extend the table exactly).
    ValueInterner& interner = ws.interner_;
    for (Value& v : new_values) {
      if (!interner.InternNew(v)) {
        return Corrupt("delta value already interned in base");
      }
    }
    if (next_null_label < interner.next_null_label_) {
      return Corrupt("delta null watermark went backwards");
    }
    interner.next_null_label_ = next_null_label;
    ws.uf_.EnsureSize(interner.size());
    ws.occurrences_.resize(interner.size());
    ws.stats_.values_interned += growth;

    // Replay the journal through the public mutation API with journaling
    // suppressed (the replayed entries are already persisted).
    bool was_enabled = ws.journal_enabled_;
    ws.journal_enabled_ = false;
    Status replay = ReplayJournal(ws, entries);
    ws.journal_enabled_ = was_enabled;
    CCFP_RETURN_NOT_OK(replay);

    ws.MarkJournalPersisted(checksum);
    return info;
  }

 private:
  static void SerializeValue(const Value& v, Writer& w) {
    w.U8(static_cast<std::uint8_t>(v.kind()));
    if (v.is_str()) {
      w.Str(v.as_str());
    } else {
      w.I64(v.is_null() ? static_cast<std::int64_t>(v.null_id())
                        : v.as_int());
    }
  }

  static Status DeserializeValue(Reader& r, Value& out) {
    std::uint8_t kind = r.U8();
    switch (kind) {
      case static_cast<std::uint8_t>(Value::Kind::kNull):
        out = Value::Null(static_cast<std::uint64_t>(r.I64()));
        return Status::OK();
      case static_cast<std::uint8_t>(Value::Kind::kInt):
        out = Value::Int(r.I64());
        return Status::OK();
      case static_cast<std::uint8_t>(Value::Kind::kStr):
        out = Value::Str(r.Str());
        return Status::OK();
      default:
        return Corrupt("bad value kind");
    }
  }

  static void SerializeCursors(
      const std::vector<std::vector<std::uint64_t>>& cursors, Writer& w) {
    w.U64(cursors.size());
    for (const auto& c : cursors) {
      w.U64(c.size());
      for (std::uint64_t s : c) w.U64(s);
    }
  }

  static Status DeserializeCursors(
      Reader& r, std::vector<std::vector<std::uint64_t>>& out) {
    std::uint64_t n_cursors = r.U64();
    if (!r.Fits(n_cursors, 8)) return Corrupt("cursors truncated");
    out.reserve(static_cast<std::size_t>(n_cursors));
    for (std::uint64_t i = 0; i < n_cursors; ++i) {
      std::uint64_t n = r.U64();
      if (!r.Fits(n, 8)) return Corrupt("cursors truncated");
      std::vector<std::uint64_t> c;
      c.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t j = 0; j < n; ++j) c.push_back(r.U64());
      out.push_back(std::move(c));
    }
    return Status::OK();
  }

  /// Replays decoded journal entries through the public mutators. Every
  /// entry was recorded because it *changed* state, so a replay that
  /// reports "no change" means the delta does not actually extend this
  /// base — corruption the checksum cannot catch.
  static Status ReplayJournal(
      InternedWorkspace& ws,
      const std::vector<WorkspaceJournalEntry>& entries) {
    for (const WorkspaceJournalEntry& e : entries) {
      switch (e.op) {
        case WorkspaceJournalEntry::Op::kAppend:
          if (!ws.Append(e.rel, e.ids)) {
            return Corrupt("delta append inconsistent with base");
          }
          break;
        case WorkspaceJournalEntry::Op::kMerge:
          if (!ws.MergeValues(e.a, e.b).merged) {
            return Corrupt("delta merge inconsistent with base");
          }
          break;
        case WorkspaceJournalEntry::Op::kReroute:
          ws.RerouteOccurrences(e.a, e.b);
          break;
        case WorkspaceJournalEntry::Op::kCanonicalize:
          if (e.idx >= ws.size(e.rel)) {
            return Corrupt("delta canonicalize slot out of range");
          }
          if (ws.CanonicalizeTuple(e.rel, e.idx) ==
              InternedWorkspace::CanonOutcome::kUnchanged) {
            return Corrupt("delta canonicalize inconsistent with base");
          }
          break;
        case WorkspaceJournalEntry::Op::kTrim:
          if (ws.TrimFeedTo(e.rel, e.horizon) == 0) {
            return Corrupt("delta feed trim inconsistent with base");
          }
          break;
      }
    }
    return Status::OK();
  }
};

std::string SerializeWorkspace(
    const InternedWorkspace& ws,
    const std::vector<std::vector<std::uint64_t>>& consumer_cursors,
    std::string_view aux) {
  Writer payload_writer;
  WorkspaceSnapshotAccess::SerializePayload(ws, consumer_cursors, aux,
                                            payload_writer);
  return EncodeRecord(payload_writer.Take());
}

Result<std::string> SerializeWorkspaceDelta(
    const InternedWorkspace& ws,
    const std::vector<std::vector<std::uint64_t>>& consumer_cursors,
    std::string_view aux) {
  if (!ws.journal_enabled()) {
    return Status::FailedPrecondition(
        "workspace snapshot: delta save requires EnableJournal()");
  }
  if (!ws.HasSnapshotBase()) {
    return Status::FailedPrecondition(
        "workspace snapshot: delta save requires a persisted base record");
  }
  Writer payload_writer;
  WorkspaceSnapshotAccess::SerializeDeltaPayload(ws, consumer_cursors, aux,
                                                 payload_writer);
  return EncodeRecord(payload_writer.Take());
}

Result<RestoredWorkspace> DeserializeWorkspace(SchemePtr scheme,
                                               std::string_view bytes) {
  CCFP_ASSIGN_OR_RETURN(RecordView record, CheckRecord(bytes));
  return WorkspaceSnapshotAccess::DeserializePayload(
      std::move(scheme), record.payload, record.checksum);
}

Result<WorkspaceDeltaInfo> ApplyWorkspaceDelta(InternedWorkspace& ws,
                                               std::string_view bytes) {
  CCFP_ASSIGN_OR_RETURN(RecordView record, CheckRecord(bytes));
  return WorkspaceSnapshotAccess::ApplyDeltaPayload(ws, record.payload,
                                                    record.checksum);
}

Status SaveWorkspaceSnapshot(
    const InternedWorkspace& ws, const std::string& path,
    const std::vector<std::vector<std::uint64_t>>& consumer_cursors,
    const SnapshotWriteOptions& write) {
  std::string bytes = SerializeWorkspace(ws, consumer_cursors);
  std::uint64_t id = BlobId(bytes);
  CCFP_RETURN_NOT_OK(WriteSnapshotBlob(std::move(bytes), path, write));
  ws.MarkJournalPersisted(id);
  return Status::OK();
}

Result<RestoredWorkspace> LoadWorkspaceSnapshot(SchemePtr scheme,
                                                const std::string& path) {
  CCFP_ASSIGN_OR_RETURN(std::string bytes, ReadFileRaw(path));
  return DeserializeWorkspace(std::move(scheme), bytes);
}

/// --- snapshot chains ------------------------------------------------------

SnapshotChainLock::SnapshotChainLock(SnapshotChainLock&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      adopted_stale_(other.adopted_stale_) {
  other.fd_ = -1;
  other.adopted_stale_ = false;
}

SnapshotChainLock& SnapshotChainLock::operator=(
    SnapshotChainLock&& other) noexcept {
  if (this != &other) {
    Release();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    adopted_stale_ = other.adopted_stale_;
    other.fd_ = -1;
    other.adopted_stale_ = false;
  }
  return *this;
}

std::string SnapshotChainLock::LockPath(const std::string& prefix) {
  return StrCat(prefix, ".lock");
}

Status SnapshotChainLock::Acquire(const std::string& prefix) {
  Release();
  std::string path = LockPath(prefix);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal(StrCat("cannot open chain lock ", path));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    // Held by a live process (or another open lock in this one). Read its
    // pid stamp for the diagnostic; the stamp is advisory, the flock is
    // the lock.
    char stamp[32] = {};
    ssize_t n = ::pread(fd, stamp, sizeof(stamp) - 1, 0);
    ::close(fd);
    long holder = n > 0 ? std::atol(stamp) : 0;
    return Status::FailedPrecondition(
        StrCat("snapshot chain ", prefix, " is locked by live pid ",
               holder > 0 ? static_cast<std::uint64_t>(holder) : 0));
  }
  // We hold the flock. A leftover pid stamp means the previous holder died
  // without a clean Release (the kernel dropped its flock at exit) — the
  // chain's in-flight record may be a retry candidate, so surface it.
  char stamp[32] = {};
  ssize_t n = ::pread(fd, stamp, sizeof(stamp) - 1, 0);
  long stale = n > 0 ? std::atol(stamp) : 0;
  adopted_stale_ = stale > 0 && stale != static_cast<long>(::getpid());
  std::string mine = StrCat(static_cast<std::uint64_t>(::getpid()), "\n");
  if (::ftruncate(fd, 0) != 0 ||
      ::pwrite(fd, mine.data(), mine.size(), 0) !=
          static_cast<ssize_t>(mine.size())) {
    ::close(fd);
    return Status::Internal(StrCat("cannot stamp chain lock ", path));
  }
  fd_ = fd;
  path_ = std::move(path);
  return Status::OK();
}

void SnapshotChainLock::Release() {
  if (fd_ < 0) return;
  // Clear the stamp before unlocking so the next acquirer can tell a clean
  // handover from a crashed holder. The file itself stays: unlinking would
  // let a racing acquirer lock a dead inode while a third creates a fresh
  // one, yielding two "holders".
  (void)::ftruncate(fd_, 0);
  (void)::flock(fd_, LOCK_UN);
  ::close(fd_);
  fd_ = -1;
  adopted_stale_ = false;
}

SnapshotChainWriter::SnapshotChainWriter(std::string prefix,
                                         SnapshotChainPolicy policy,
                                         SnapshotWriteOptions write)
    : prefix_(std::move(prefix)), policy_(policy), write_(write) {}

std::string SnapshotChainWriter::BasePath() const {
  return StrCat(prefix_, ".base");
}

std::string SnapshotChainWriter::DeltaPath(std::size_t k) const {
  return StrCat(prefix_, ".delta.", k);
}

Status SnapshotChainWriter::Save(
    const InternedWorkspace& ws,
    const std::vector<std::vector<std::uint64_t>>& consumer_cursors,
    std::string_view aux) {
  // Exclusive chains take the cross-process lock lazily, on the first
  // record actually written — constructing a writer is free and never
  // contends. A failed acquisition writes nothing.
  if (policy_.exclusive && !lock_.held()) {
    CCFP_RETURN_NOT_OK(lock_.Acquire(prefix_));
  }
  bool fold =
      !has_base_ || !ws.journal_enabled() || !ws.HasSnapshotBase() ||
      ws.SnapshotBaseId() != tip_id_ || deltas_ >= policy_.max_deltas ||
      (policy_.fold_delta_percent > 0 &&
       delta_bytes_ * 100 > base_bytes_ * policy_.fold_delta_percent);
  return fold ? SaveBase(ws, consumer_cursors, aux)
              : SaveDelta(ws, consumer_cursors, aux);
}

void SnapshotChainWriter::Adopt(const RestoredChain& chain) {
  has_base_ = true;
  deltas_ = chain.deltas_applied;
  tip_id_ = chain.restored.snapshot_id;
  base_bytes_ = chain.base_bytes;
  delta_bytes_ = chain.delta_bytes;
}

Status SnapshotChainWriter::SaveBase(
    const InternedWorkspace& ws,
    const std::vector<std::vector<std::uint64_t>>& cursors,
    std::string_view aux) {
  std::string bytes = SerializeWorkspace(ws, cursors, aux);
  std::uint64_t id = BlobId(bytes);
  std::uint64_t n_bytes = bytes.size();
  CCFP_RETURN_NOT_OK(WriteSnapshotBlob(std::move(bytes), BasePath(), write_));
  // Best-effort unlink of the previous chain's deltas. A crash before (or
  // during) this loop leaves delta files whose base link no longer
  // matches the new base's identity — loads treat them as end-of-chain,
  // so stale records can never be replayed onto the wrong base.
  for (std::size_t k = 1; std::remove(DeltaPath(k).c_str()) == 0; ++k) {
  }
  has_base_ = true;
  deltas_ = 0;
  tip_id_ = id;
  base_bytes_ = n_bytes;
  delta_bytes_ = 0;
  ws.MarkJournalPersisted(id);
  ws.EnableJournal();
  return Status::OK();
}

Status SnapshotChainWriter::SaveDelta(
    const InternedWorkspace& ws,
    const std::vector<std::vector<std::uint64_t>>& cursors,
    std::string_view aux) {
  CCFP_ASSIGN_OR_RETURN(std::string bytes,
                        SerializeWorkspaceDelta(ws, cursors, aux));
  std::uint64_t id = BlobId(bytes);
  std::uint64_t n_bytes = bytes.size();
  // A failed (or crashed) delta save keeps the journal: the retry below
  // rewrites the same chain position with a superset journal linked to
  // the same base, so nothing is lost and nothing is double-applied.
  CCFP_RETURN_NOT_OK(
      WriteSnapshotBlob(std::move(bytes), DeltaPath(deltas_ + 1), write_));
  ++deltas_;
  tip_id_ = id;
  delta_bytes_ += n_bytes;
  ws.MarkJournalPersisted(id);
  return Status::OK();
}

Result<RestoredChain> LoadSnapshotChain(SchemePtr scheme,
                                        const std::string& prefix) {
  std::string base_path = StrCat(prefix, ".base");
  CCFP_ASSIGN_OR_RETURN(std::string base_bytes, ReadFileRaw(base_path));
  CCFP_ASSIGN_OR_RETURN(RestoredWorkspace restored,
                        DeserializeWorkspace(scheme, base_bytes));
  RestoredChain chain{std::move(restored), 0, base_bytes.size(), 0};
  for (std::size_t k = 1;; ++k) {
    Result<std::string> delta_bytes = ReadFileRaw(StrCat(prefix, ".delta.", k));
    if (!delta_bytes.ok()) break;  // end of chain on disk
    Result<WorkspaceDeltaInfo> info =
        ApplyWorkspaceDelta(chain.restored.ws, *delta_bytes);
    if (!info.ok()) {
      if (info.status().code() == StatusCode::kFailedPrecondition) {
        // A stale record from before a fold: its base link does not match
        // the running tip. The chain ends here; the workspace is intact.
        break;
      }
      return info.status();
    }
    chain.restored.consumer_cursors = std::move(info->consumer_cursors);
    chain.restored.aux = std::move(info->aux);
    chain.restored.snapshot_id = info->id;
    chain.delta_bytes += delta_bytes->size();
    ++chain.deltas_applied;
  }
  // The restored workspace continues the chain: journal from the tip.
  chain.restored.ws.EnableJournal();
  return chain;
}

/// --- session classification records ---------------------------------------

namespace {

Status BadRecord(const std::string& what) {
  return Status::InvalidArgument(StrCat("session record: ", what));
}

void WriteAttrs(const std::vector<AttrId>& attrs, Writer& w) {
  w.U64(attrs.size());
  for (AttrId a : attrs) w.U32(a);
}

std::vector<AttrId> ReadAttrs(Reader& r) {
  std::uint64_t n = r.U64();
  if (!r.Fits(n, 4)) return {};
  std::vector<AttrId> attrs;
  attrs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) attrs.push_back(r.U32());
  return attrs;
}

}  // namespace

std::string SerializeSessionRecord(const SessionClassificationRecord& record) {
  Writer w;
  for (char c : kSessionMagic) w.U8(static_cast<std::uint8_t>(c));
  w.U32(kSessionRecordVersion);
  w.U64(record.universe.size());
  for (std::size_t i = 0; i < record.universe.size(); ++i) {
    const Dependency& dep = record.universe[i];
    w.U8(static_cast<std::uint8_t>(dep.kind()));
    switch (dep.kind()) {
      case DependencyKind::kFd:
        w.U32(dep.fd().rel);
        WriteAttrs(dep.fd().lhs, w);
        WriteAttrs(dep.fd().rhs, w);
        break;
      case DependencyKind::kInd:
        w.U32(dep.ind().lhs_rel);
        WriteAttrs(dep.ind().lhs, w);
        w.U32(dep.ind().rhs_rel);
        WriteAttrs(dep.ind().rhs, w);
        break;
      case DependencyKind::kRd:
        w.U32(dep.rd().rel);
        WriteAttrs(dep.rd().lhs, w);
        WriteAttrs(dep.rd().rhs, w);
        break;
      case DependencyKind::kEmvd:
        w.U32(dep.emvd().rel);
        WriteAttrs(dep.emvd().x, w);
        WriteAttrs(dep.emvd().y, w);
        WriteAttrs(dep.emvd().z, w);
        break;
      case DependencyKind::kMvd:
        w.U32(dep.mvd().rel);
        WriteAttrs(dep.mvd().x, w);
        WriteAttrs(dep.mvd().y, w);
        break;
    }
    w.U8(record.expected[i] ? 1 : 0);
  }
  return w.Take();
}

Result<SessionClassificationRecord> DeserializeSessionRecord(
    const DatabaseScheme& scheme, std::string_view bytes) {
  Reader r(bytes);
  for (char c : kSessionMagic) {
    if (r.U8() != static_cast<std::uint8_t>(c)) return BadRecord("bad magic");
  }
  if (r.U32() != kSessionRecordVersion) {
    return BadRecord("unsupported version");
  }
  std::uint64_t n = r.U64();
  if (!r.Fits(n, 2)) return BadRecord("truncated");
  SessionClassificationRecord out;
  out.universe.reserve(static_cast<std::size_t>(n));
  out.expected.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint8_t kind = r.U8();
    std::optional<Dependency> dep;
    switch (kind) {
      case static_cast<std::uint8_t>(DependencyKind::kFd): {
        Fd fd;
        fd.rel = r.U32();
        fd.lhs = ReadAttrs(r);
        fd.rhs = ReadAttrs(r);
        dep = Dependency(std::move(fd));
        break;
      }
      case static_cast<std::uint8_t>(DependencyKind::kInd): {
        Ind ind;
        ind.lhs_rel = r.U32();
        ind.lhs = ReadAttrs(r);
        ind.rhs_rel = r.U32();
        ind.rhs = ReadAttrs(r);
        dep = Dependency(std::move(ind));
        break;
      }
      case static_cast<std::uint8_t>(DependencyKind::kRd): {
        Rd rd;
        rd.rel = r.U32();
        rd.lhs = ReadAttrs(r);
        rd.rhs = ReadAttrs(r);
        dep = Dependency(std::move(rd));
        break;
      }
      case static_cast<std::uint8_t>(DependencyKind::kEmvd): {
        Emvd emvd;
        emvd.rel = r.U32();
        emvd.x = ReadAttrs(r);
        emvd.y = ReadAttrs(r);
        emvd.z = ReadAttrs(r);
        dep = Dependency(std::move(emvd));
        break;
      }
      case static_cast<std::uint8_t>(DependencyKind::kMvd): {
        Mvd mvd;
        mvd.rel = r.U32();
        mvd.x = ReadAttrs(r);
        mvd.y = ReadAttrs(r);
        dep = Dependency(std::move(mvd));
        break;
      }
      default:
        return BadRecord("bad dependency kind");
    }
    std::uint8_t expected = r.U8();
    if (expected > 1) return BadRecord("bad verdict flag");
    if (!r.Ok()) return BadRecord("truncated");
    CCFP_RETURN_NOT_OK(Validate(scheme, *dep));
    out.universe.push_back(std::move(*dep));
    out.expected.push_back(expected != 0);
  }
  if (!r.Ok()) return BadRecord("truncated");
  if (!r.AtEnd()) return BadRecord("trailing bytes");
  return out;
}

}  // namespace ccfp
