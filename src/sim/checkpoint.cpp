#include "sim/checkpoint.hpp"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/rng.hpp"

namespace gcube {

namespace {

constexpr char kMagic[8] = {'G', 'C', 'U', 'B', 'E', 'C', 'K', 'P'};

// Fixed section sequence. The loader always knows which section it expects
// next, so every framing or payload failure can be attributed to a NAMED
// section — the property the corruption tests pin down.
enum SectionId : std::uint32_t {
  kSecProvenance = 1,
  kSecConfig = 2,
  kSecGlobals = 3,
  kSecFaults = 4,
  kSecPackets = 5,
  kSecParked = 6,
  kSecFires = 7,
  kSecMetrics = 8,
};

/// Table-driven CRC32 (IEEE 802.3 reflected polynomial). Self-contained so
/// the checkpoint format has zero external dependencies.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

/// Little-endian byte-buffer writer for section payloads.
struct Buf {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
  // One overload per record field type, each at its stored width: a flag
  // as one byte, integers at their own widths, a hop list as a 32-bit
  // count and one byte per hop.
  void put(bool v) { u8(v ? 1 : 0); }
  void put(std::uint16_t v) { le(v, 2); }
  void put(std::uint32_t v) { u32(v); }
  void put(std::uint64_t v) { u64(v); }
  void put(const std::vector<Dim>& hops) {
    u32(static_cast<std::uint32_t>(hops.size()));
    for (Dim d : hops) u8(static_cast<std::uint8_t>(d));
  }

 private:
  void le(std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
};

/// Bounds-checked little-endian reader over one section's payload. Every
/// overrun throws CheckpointError naming the section — corrupt input can
/// fail, never crash.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size, const char* section)
      : data_(data), size_(size), section_(section) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  [[nodiscard]] std::uint64_t u64() { return le(8); }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    return {reinterpret_cast<const char*>(p), n};
  }
  // Buf::put's counterparts.
  void get(bool& v) { v = u8() != 0; }
  void get(std::uint16_t& v) { v = static_cast<std::uint16_t>(le(2)); }
  void get(std::uint32_t& v) { v = u32(); }
  void get(std::uint64_t& v) { v = u64(); }
  void get(std::vector<Dim>& hops) {
    const std::uint64_t n = count(u32(), 1);
    hops.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) hops.push_back(u8());
  }
  /// Element-count guard: a count field may not promise more elements than
  /// the remaining payload could hold at `min_size` bytes each.
  [[nodiscard]] std::uint64_t count(std::uint64_t n, std::size_t min_size) {
    if (min_size != 0 && n > (size_ - off_) / min_size) {
      fail("element count exceeds payload size");
    }
    return n;
  }
  void expect_end() const {
    if (off_ != size_) fail("trailing bytes after payload");
  }
  [[noreturn]] void fail(const std::string& detail) const {
    throw CheckpointError(section_, detail);
  }

 private:
  [[nodiscard]] const std::uint8_t* take(std::size_t n) {
    if (n > size_ - off_) fail("payload truncated");
    const std::uint8_t* p = data_ + off_;
    off_ += n;
    return p;
  }
  [[nodiscard]] std::uint64_t le(unsigned n) {
    const std::uint8_t* p = take(n);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  const char* section_;
};

/// Bytes of a packet's integers and hop-list counts, the least one packet
/// takes.
constexpr std::size_t kPacketMinBytes = 44;

/// Writes every field of a listed record (CheckpointPacket,
/// CheckpointConfig, SimMetrics) in its list's order.
template <typename Record>
void put_fields(Buf& b, const Record& r) {
  Record::fields([&](const char*, auto field, auto...) { b.put(r.*field); });
}

/// Reads put_fields' bytes back into a fresh record.
template <typename Record>
[[nodiscard]] Record get_fields(Cursor& c) {
  Record r;
  Record::fields([&](const char*, auto field, auto...) { c.get(r.*field); });
  return r;
}

void put_metrics(Buf& b, const SimMetrics& m) {
  put_fields(b, m);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    b.u64(m.latency_histogram.bucket(i));
  }
}

[[nodiscard]] SimMetrics get_metrics(Cursor& c) {
  SimMetrics m = get_fields<SimMetrics>(c);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    m.latency_histogram.add_bucket(i, c.u64());
  }
  return m;
}

/// Appends one framed section (id | length | crc | payload) to `out`.
void append_section(std::vector<std::uint8_t>& out, SectionId id,
                    const Buf& payload) {
  Buf frame;
  frame.u32(id);
  frame.u64(payload.bytes.size());
  std::uint32_t crc = checkpoint_crc32(frame.bytes.data(), frame.bytes.size());
  crc = checkpoint_crc32(payload.bytes.data(), payload.bytes.size(), crc);
  frame.u32(crc);
  out.insert(out.end(), frame.bytes.begin(), frame.bytes.end());
  out.insert(out.end(), payload.bytes.begin(), payload.bytes.end());
}

[[nodiscard]] std::vector<std::uint8_t> serialize(const SimCheckpoint& ck) {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  Buf ver;
  ver.u32(kCheckpointFormatVersion);
  out.insert(out.end(), ver.bytes.begin(), ver.bytes.end());

  {
    Buf b;
    b.u64(ck.provenance.seed);
    b.str(ck.provenance.topology);
    b.str(ck.provenance.router);
    b.str(ck.provenance.simd);
    b.u32(ck.provenance.threads);
    b.str(ck.provenance.build_type);
    append_section(out, kSecProvenance, b);
  }
  {
    Buf b;
    put_fields(b, ck.config);
    append_section(out, kSecConfig, b);
  }
  {
    Buf b;
    b.u64(ck.resume_cycle);
    b.u64(ck.in_flight);
    b.u64(ck.consecutive_stalls);
    b.u64(ck.next_event);
    append_section(out, kSecGlobals, b);
  }
  {
    Buf b;
    b.u32(static_cast<std::uint32_t>(ck.faulty_nodes.size()));
    for (NodeId u : ck.faulty_nodes) b.u32(u);
    b.u32(static_cast<std::uint32_t>(ck.faulty_links.size()));
    for (const LinkId& l : ck.faulty_links) {
      b.u32(l.lo);
      b.u32(l.dim);
    }
    append_section(out, kSecFaults, b);
  }
  {
    Buf b;
    b.u64(ck.queues.size());
    for (const std::vector<CheckpointPacket>& q : ck.queues) {
      b.u32(static_cast<std::uint32_t>(q.size()));
      for (const CheckpointPacket& p : q) put_fields(b, p);
    }
    append_section(out, kSecPackets, b);
  }
  {
    Buf b;
    b.u64(ck.parked.size());
    for (const CheckpointParked& p : ck.parked) {
      b.u64(p.wake);
      b.u32(p.node);
      b.u8(p.respawn ? 1 : 0);
      put_fields(b, p.packet);
    }
    append_section(out, kSecParked, b);
  }
  {
    Buf b;
    b.u64(ck.fires.size());
    for (const CheckpointFire& f : ck.fires) {
      b.u64(f.at);
      b.u32(f.node);
    }
    append_section(out, kSecFires, b);
  }
  {
    Buf b;
    put_metrics(b, ck.metrics);
    append_section(out, kSecMetrics, b);
  }
  return out;
}

/// Reads the next framed section from file bytes at `off`, verifying the
/// frame and CRC against the section the format says comes next. Returns
/// the payload range and advances `off`.
struct SectionPayload {
  const std::uint8_t* data;
  std::size_t size;
};

[[nodiscard]] SectionPayload expect_section(
    const std::vector<std::uint8_t>& file, std::size_t& off, SectionId id,
    const char* name) {
  const auto fail = [&](const std::string& detail) -> void {
    throw CheckpointError(name, detail);
  };
  const std::size_t remaining = file.size() - off;
  constexpr std::size_t kFrameSize = 4 + 8 + 4;
  if (remaining < kFrameSize) fail("file truncated inside section frame");
  Cursor frame(file.data() + off, kFrameSize, name);
  const std::uint32_t got_id = frame.u32();
  const std::uint64_t len = frame.u64();
  const std::uint32_t crc = frame.u32();
  if (got_id != id) fail("unexpected section id (file corrupt or reordered)");
  if (len > remaining - kFrameSize) fail("payload truncated");
  const std::uint8_t* payload = file.data() + off + kFrameSize;
  std::uint32_t want = checkpoint_crc32(file.data() + off, 12);
  want = checkpoint_crc32(payload, len, want);
  if (want != crc) fail("CRC mismatch");
  off += kFrameSize + len;
  return {payload, static_cast<std::size_t>(len)};
}

[[nodiscard]] SimCheckpoint deserialize(
    const std::vector<std::uint8_t>& file) {
  if (file.size() < sizeof(kMagic) + 4 ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("header", "bad magic (not a gcube checkpoint)");
  }
  Cursor head(file.data() + sizeof(kMagic), 4, "header");
  const std::uint32_t version = head.u32();
  if (version != kCheckpointFormatVersion) {
    throw CheckpointError(
        "header", "unsupported format version " + std::to_string(version));
  }
  std::size_t off = sizeof(kMagic) + 4;

  SimCheckpoint ck;
  {
    const SectionPayload s =
        expect_section(file, off, kSecProvenance, "provenance");
    Cursor c(s.data, s.size, "provenance");
    ck.provenance.seed = c.u64();
    ck.provenance.topology = c.str();
    ck.provenance.router = c.str();
    ck.provenance.simd = c.str();
    ck.provenance.threads = c.u32();
    ck.provenance.build_type = c.str();
    c.expect_end();
  }
  {
    const SectionPayload s = expect_section(file, off, kSecConfig, "config");
    Cursor c(s.data, s.size, "config");
    ck.config = get_fields<CheckpointConfig>(c);
    c.expect_end();
  }
  {
    const SectionPayload s = expect_section(file, off, kSecGlobals, "globals");
    Cursor c(s.data, s.size, "globals");
    ck.resume_cycle = c.u64();
    ck.in_flight = c.u64();
    ck.consecutive_stalls = c.u64();
    ck.next_event = c.u64();
    c.expect_end();
  }
  {
    const SectionPayload s = expect_section(file, off, kSecFaults, "faults");
    Cursor c(s.data, s.size, "faults");
    const std::uint64_t nodes = c.count(c.u32(), 4);
    ck.faulty_nodes.reserve(nodes);
    for (std::uint64_t i = 0; i < nodes; ++i) {
      ck.faulty_nodes.push_back(c.u32());
    }
    const std::uint64_t links = c.count(c.u32(), 8);
    ck.faulty_links.reserve(links);
    for (std::uint64_t i = 0; i < links; ++i) {
      const NodeId lo = c.u32();
      const Dim dim = c.u32();
      ck.faulty_links.push_back({lo, dim});
    }
    c.expect_end();
  }
  {
    const SectionPayload s = expect_section(file, off, kSecPackets, "packets");
    Cursor c(s.data, s.size, "packets");
    const std::uint64_t nodes = c.count(c.u64(), 4);
    ck.queues.resize(nodes);
    for (std::uint64_t u = 0; u < nodes; ++u) {
      const std::uint64_t depth = c.count(c.u32(), kPacketMinBytes);
      ck.queues[u].reserve(depth);
      for (std::uint64_t i = 0; i < depth; ++i) {
        ck.queues[u].push_back(get_fields<CheckpointPacket>(c));
      }
    }
    c.expect_end();
  }
  {
    const SectionPayload s = expect_section(file, off, kSecParked, "parked");
    Cursor c(s.data, s.size, "parked");
    // wake, node and respawn ahead of each packet.
    const std::uint64_t n = c.count(c.u64(), 13 + kPacketMinBytes);
    ck.parked.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      CheckpointParked p;
      p.wake = c.u64();
      p.node = c.u32();
      p.respawn = c.u8() != 0;
      p.packet = get_fields<CheckpointPacket>(c);
      ck.parked.push_back(std::move(p));
    }
    c.expect_end();
  }
  {
    const SectionPayload s = expect_section(file, off, kSecFires, "fires");
    Cursor c(s.data, s.size, "fires");
    const std::uint64_t n = c.count(c.u64(), 12);
    ck.fires.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      CheckpointFire f;
      f.at = c.u64();
      f.node = c.u32();
      ck.fires.push_back(f);
    }
    c.expect_end();
  }
  {
    const SectionPayload s = expect_section(file, off, kSecMetrics, "metrics");
    Cursor c(s.data, s.size, "metrics");
    ck.metrics = get_metrics(c);
    c.expect_end();
  }
  if (off != file.size()) {
    throw CheckpointError("trailer", "unexpected bytes after last section");
  }
  return ck;
}

}  // namespace

std::uint32_t checkpoint_crc32(const void* data, std::size_t len,
                               std::uint32_t crc) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = kCrcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::string checkpoint_previous_generation(const std::string& path) {
  return path + ".1";
}

void save_checkpoint(const SimCheckpoint& ck, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize(ck);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open '" + tmp +
                             "': " + std::strerror(errno));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // Durability before visibility: the data must be on disk before the
  // rename publishes it, or a crash could leave a well-named torn file.
  const bool flushed =
      written == bytes.size() && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: short write to '" + tmp + "'");
  }
  // Two-generation rotation, all atomic renames: the previous checkpoint
  // survives as <path>.1 until the one after next replaces it.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    if (std::rename(path.c_str(),
                    checkpoint_previous_generation(path).c_str()) != 0) {
      std::remove(tmp.c_str());
      throw std::runtime_error("checkpoint: cannot rotate '" + path + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot publish '" + path + "'");
  }
}

SimCheckpoint load_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointError("header", "cannot open '" + path +
                                        "': " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw CheckpointError("header", "read error on '" + path + "'");
  }
  return deserialize(bytes);
}

SimCheckpoint load_checkpoint_with_fallback(const std::string& path,
                                            std::string* used_path) {
  try {
    SimCheckpoint ck = load_checkpoint(path);
    if (used_path != nullptr) *used_path = path;
    return ck;
  } catch (const CheckpointError& primary) {
    const std::string prev = checkpoint_previous_generation(path);
    std::fprintf(stderr,
                 "gcube: checkpoint '%s' rejected (%s); trying previous "
                 "generation '%s'\n",
                 path.c_str(), primary.what(), prev.c_str());
    try {
      SimCheckpoint ck = load_checkpoint(prev);
      if (used_path != nullptr) *used_path = prev;
      return ck;
    } catch (const CheckpointError& fallback) {
      std::fprintf(stderr, "gcube: previous generation rejected too (%s)\n",
                   fallback.what());
      throw primary;
    }
  }
}

std::uint64_t fault_events_fingerprint(
    const std::vector<FaultEvent>& events) noexcept {
  // Order-sensitive mix64 chain: same-cycle events apply in list order, so
  // two schedules that differ only in that order are different schedules.
  std::uint64_t h = mix64(0x636b7074'65766e74ull + events.size());
  for (const FaultEvent& e : events) {
    h = mix64(h ^ (e.cycle + 0x9e3779b97f4a7c15ull));
    h = mix64(h ^ (static_cast<std::uint64_t>(e.kind) << 32 ^ e.node));
    h = mix64(h ^ e.dim);
  }
  return h;
}

}  // namespace gcube
