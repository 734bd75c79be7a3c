#include "src/netio/shm.h"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "src/netio/frame.h"

namespace hmdsm::netio {

namespace {

constexpr std::uint32_t kSegMagic = 0x484d5348;  // "HMSH"
constexpr std::size_t kCacheLine = 64;

// Futexes on a shared (MAP_SHARED) mapping must be non-private: the kernel
// keys them by inode+offset so the two processes' different virtual
// addresses still name the same wait queue.
int FutexWait(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
              int timeout_ms) {
  timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  return static_cast<int>(syscall(SYS_futex, addr, FUTEX_WAIT, expected, &ts,
                                  nullptr, 0));
}

void FutexWake(std::atomic<std::uint32_t>* addr) {
  syscall(SYS_futex, addr, FUTEX_WAKE, INT32_MAX, nullptr, nullptr, 0);
}

// Segment layout: [SegHdr pad to 64][RingHdr x group_count, each 128]
// [ring data x group_count, each ring_bytes]. Ring g is written by
// process-group g and read by the segment owner.
struct SegHdr {
  std::uint32_t magic;
  std::uint32_t ring_count;
  std::uint64_t ring_bytes;
  // Bumped by any writer after publishing bytes (and by Knock); the
  // owner's dispatcher parks on it when its mailbox and every ring are
  // empty.
  std::atomic<std::uint32_t> doorbell;
  std::atomic<std::uint32_t> drainer_waiting;
  // A parked guest of the owner's primary rank drains the rings: a ring
  // write then does not wake the parked dispatcher.
  std::atomic<std::uint32_t> guest_draining;
  // Owner is tearing down; writers must stop and return false.
  std::atomic<std::uint32_t> closed;
};

struct alignas(kCacheLine) RingHdr {
  // Monotonic byte cursors (never wrap the integer; positions are mod
  // ring_bytes). head is owned by the drainer, tail by the writer; each
  // publishes with release and reads the other with acquire — that pair is
  // the happens-before edge covering the plain-byte ring copies.
  std::atomic<std::uint64_t> head;
  char pad0[kCacheLine - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail;
  char pad1[kCacheLine - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint32_t> attached;  // writer mapped us and may publish
  char pad2[kCacheLine - sizeof(std::atomic<std::uint32_t>)];
};
static_assert(sizeof(RingHdr) == 3 * kCacheLine, "RingHdr padding drifted");

constexpr std::size_t kSegHdrBytes =
    (sizeof(SegHdr) + kCacheLine - 1) / kCacheLine * kCacheLine;
static_assert(kSegHdrBytes == kCacheLine, "SegHdr outgrew its cache line");

std::size_t SegmentBytes(std::size_t groups, std::size_t ring_bytes) {
  return kSegHdrBytes + groups * sizeof(RingHdr) + groups * ring_bytes;
}

SegHdr* Hdr(void* base) { return static_cast<SegHdr*>(base); }

RingHdr* Ring(void* base, std::size_t g) {
  return reinterpret_cast<RingHdr*>(static_cast<char*>(base) + kSegHdrBytes +
                                    g * sizeof(RingHdr));
}

Byte* RingData(void* base, std::size_t groups, std::size_t ring_bytes,
               std::size_t g) {
  return reinterpret_cast<Byte*>(static_cast<char*>(base) + kSegHdrBytes +
                                 groups * sizeof(RingHdr) + g * ring_bytes);
}

// Copy `n` bytes out of the ring at stream position `pos`, handling the
// wraparound split. The mirror image of CopyIn.
void CopyOut(const Byte* ring, std::size_t ring_bytes, std::uint64_t pos,
             Byte* out, std::size_t n) {
  const std::size_t at = static_cast<std::size_t>(pos % ring_bytes);
  const std::size_t first = std::min(n, ring_bytes - at);
  std::memcpy(out, ring + at, first);
  if (n > first) std::memcpy(out + first, ring, n - first);
}

void CopyIn(Byte* ring, std::size_t ring_bytes, std::uint64_t pos,
            const Byte* in, std::size_t n) {
  const std::size_t at = static_cast<std::size_t>(pos % ring_bytes);
  const std::size_t first = std::min(n, ring_bytes - at);
  std::memcpy(ring + at, in, first);
  if (n > first) std::memcpy(ring, in + first, n - first);
}

void Unmap(void* base, std::size_t bytes, int fd) {
  if (base != nullptr) munmap(base, bytes);
  if (fd >= 0) close(fd);
}

// Publishes an event to the segment owner's dispatcher. The seq_cst pair
// with Park's drainer_waiting store means either the dispatcher's
// FUTEX_WAIT compare sees the new doorbell value or this load sees it
// parked. The fence pairs with EndGuestDrain's: either the guest that
// stops draining sees what was published before it, or this load sees
// that no guest drains any more and wakes the dispatcher.
void RingDoorbell(SegHdr* hdr) {
  hdr->doorbell.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (hdr->drainer_waiting.load(std::memory_order_seq_cst) != 0 &&
      hdr->guest_draining.load(std::memory_order_seq_cst) == 0)
    FutexWake(&hdr->doorbell);
}

}  // namespace

std::uint64_t ShmTransport::HostIdentity() {
  // FNV-1a over hostname + boot id. The boot id disambiguates hostname
  // collisions across machines (and across reboots, which is harmless but
  // also correct: a stale segment from before a reboot is gone anyway).
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ULL;
    }
  };
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0) mix(host, std::strlen(host));
  char boot[64] = {};
  if (FILE* f = std::fopen("/proc/sys/kernel/random/boot_id", "r")) {
    const std::size_t n = std::fread(boot, 1, sizeof(boot) - 1, f);
    std::fclose(f);
    mix(boot, n);
  }
  return h;
}

std::unique_ptr<ShmTransport> ShmTransport::Create(
    const ShmTransportOptions& options, std::string* error) {
  const std::size_t total =
      SegmentBytes(options.group_count, options.ring_bytes);
  // Name must be unique per process: pid + group + a clock nonce guards
  // against pid reuse racing a leaked segment from a crashed run.
  timespec now;
  clock_gettime(CLOCK_MONOTONIC, &now);
  char name[128];
  std::snprintf(name, sizeof(name), "/hmdsm-%d-%zu-%lx",
                static_cast<int>(getpid()), options.self_group,
                static_cast<unsigned long>(now.tv_nsec ^ now.tv_sec));
  const int fd = shm_open(name, O_RDWR | O_CREAT | O_EXCL, 0600);
  if (fd < 0) {
    if (error != nullptr)
      *error = std::string("shm_open: ") + std::strerror(errno);
    return nullptr;
  }
  if (ftruncate(fd, static_cast<off_t>(total)) != 0) {
    if (error != nullptr)
      *error = std::string("ftruncate: ") + std::strerror(errno);
    close(fd);
    shm_unlink(name);
    return nullptr;
  }
  void* base =
      mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    if (error != nullptr)
      *error = std::string("mmap: ") + std::strerror(errno);
    close(fd);
    shm_unlink(name);
    return nullptr;
  }
  // ftruncate zero-fills, so every atomic starts at 0; only the geometry
  // needs stamping. Write magic last: an attacher that wins a race sees
  // either no magic (rejects) or a fully initialized header.
  SegHdr* hdr = Hdr(base);
  hdr->ring_count = static_cast<std::uint32_t>(options.group_count);
  hdr->ring_bytes = options.ring_bytes;
  std::atomic_thread_fence(std::memory_order_release);
  hdr->magic = kSegMagic;
  return std::unique_ptr<ShmTransport>(
      new ShmTransport(options, name, Mapping{base, total, fd}));
}

ShmTransport::ShmTransport(const ShmTransportOptions& options,
                           std::string name, Mapping own)
    : options_(options),
      name_(std::move(name)),
      own_(own),
      peer_segs_(options.group_count),
      rx_(options.group_count) {}

ShmTransport::~ShmTransport() {
  Stop();
  for (Mapping& m : peer_segs_) Unmap(m.base, m.bytes, m.fd);
  Unmap(own_.base, own_.bytes, own_.fd);
}

bool ShmTransport::AttachPeer(std::size_t peer_group, const std::string& name,
                              std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (peer_group >= peer_segs_.size() || peer_group == options_.self_group)
    return fail("attach: bad peer group");
  if (peer_segs_[peer_group].base != nullptr) return fail("attach: twice");
  // The name arrived over the wire — constrain it to the flat shm
  // namespace shape before handing it to shm_open.
  if (name.size() < 2 || name.size() > 120 || name[0] != '/' ||
      name.find('/', 1) != std::string::npos)
    return fail("attach: malformed segment name");
  const std::size_t total =
      SegmentBytes(options_.group_count, options_.ring_bytes);
  const int fd = shm_open(name.c_str(), O_RDWR, 0);
  if (fd < 0) return fail(std::string("shm_open: ") + std::strerror(errno));
  struct stat st;
  if (fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < total) {
    close(fd);
    return fail("attach: segment too small");
  }
  void* base =
      mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    close(fd);
    return fail(std::string("mmap: ") + std::strerror(errno));
  }
  SegHdr* hdr = Hdr(base);
  // Acquire side of Create's release fence: magic visible => geometry is.
  const std::uint32_t magic =
      reinterpret_cast<std::atomic<std::uint32_t>*>(&hdr->magic)->load(
          std::memory_order_acquire);
  if (magic != kSegMagic ||
      hdr->ring_count != options_.group_count ||
      hdr->ring_bytes != options_.ring_bytes) {
    Unmap(base, total, fd);
    return fail("attach: geometry mismatch");
  }
  peer_segs_[peer_group] = Mapping{base, total, fd};
  Ring(base, options_.self_group)
      ->attached.store(1, std::memory_order_release);
  return true;
}

bool ShmTransport::attached(std::size_t peer_group) const {
  return peer_group < peer_segs_.size() &&
         peer_segs_[peer_group].base != nullptr;
}

bool ShmTransport::WriteFrame(std::size_t peer_group, ByteSpan frame) {
  const Mapping& seg = peer_segs_[peer_group];
  SegHdr* hdr = Hdr(seg.base);
  RingHdr* rh = Ring(seg.base, options_.self_group);
  Byte* data = RingData(seg.base, options_.group_count, options_.ring_bytes,
                        options_.self_group);
  Byte len4[4];
  const std::uint32_t len = static_cast<std::uint32_t>(frame.size());
  len4[0] = static_cast<Byte>(len & 0xff);
  len4[1] = static_cast<Byte>((len >> 8) & 0xff);
  len4[2] = static_cast<Byte>((len >> 16) & 0xff);
  len4[3] = static_cast<Byte>((len >> 24) & 0xff);

  // tail is ours alone (single-writer contract), so a relaxed read of our
  // own last store is exact.
  std::uint64_t tail = rh->tail.load(std::memory_order_relaxed);
  auto push = [&](const Byte* p, std::size_t n) {
    while (n > 0) {
      std::uint64_t head = rh->head.load(std::memory_order_acquire);
      std::size_t space =
          options_.ring_bytes - static_cast<std::size_t>(tail - head);
      if (space == 0) {
        if (stopping_.load(std::memory_order_acquire) ||
            hdr->closed.load(std::memory_order_acquire) != 0)
          return false;
        // No writer sleeps while our own rings may hold bytes: the peer
        // that frees this ring may itself be blocked writing into ours,
        // and the thread that would drain ours may be waiting for a lock
        // this writer holds.
        if (!Drain()) std::this_thread::yield();
        continue;
      }
      const std::size_t take = std::min(space, n);
      CopyIn(data, options_.ring_bytes, tail, p, take);
      tail += take;
      p += take;
      n -= take;
      rh->tail.store(tail, std::memory_order_release);
      RingDoorbell(hdr);
    }
    return true;
  };
  // A false return mid-record leaves a torn record in the ring; it can
  // only happen when one side is already tearing down, and the caller
  // treats false as link death.
  return push(len4, 4) && push(frame.data(), frame.size());
}

void ShmTransport::SetReceiver(FrameHandler on_frame, FatalHandler on_fatal,
                               BufferPool* pool, RingGate ready) {
  on_frame_ = std::move(on_frame);
  on_fatal_ = std::move(on_fatal);
  ready_ = std::move(ready);
  pool_ = pool;
}

std::uint32_t ShmTransport::Doorbell() const {
  return Hdr(own_.base)->doorbell.load(std::memory_order_acquire);
}

void ShmTransport::Knock() { RingDoorbell(Hdr(own_.base)); }

void ShmTransport::BeginGuestDrain() {
  Hdr(own_.base)->guest_draining.store(1, std::memory_order_seq_cst);
}

bool ShmTransport::EndGuestDrain() {
  Hdr(own_.base)->guest_draining.store(0, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (std::size_t g = 0; g < options_.group_count; ++g) {
    if (g == options_.self_group) continue;
    const RingHdr* rh = Ring(own_.base, g);
    if (rh->tail.load(std::memory_order_acquire) !=
        rh->head.load(std::memory_order_acquire))
      return true;
  }
  return false;
}

bool ShmTransport::guest_draining() const {
  return Hdr(own_.base)->guest_draining.load(std::memory_order_acquire) != 0;
}

void ShmTransport::Park(std::uint32_t seen) {
  SegHdr* hdr = Hdr(own_.base);
  // Advertise the park, then let FUTEX_WAIT's compare re-check the
  // doorbell: an event after `seen` was read changed the value and the wait
  // returns at once. The timeout is a backstop against a writer that died
  // between publish and wake.
  hdr->drainer_waiting.store(1, std::memory_order_seq_cst);
  parks_.fetch_add(1, std::memory_order_relaxed);
  FutexWait(&hdr->doorbell, seen, 50);
  hdr->drainer_waiting.store(0, std::memory_order_relaxed);
}

bool ShmTransport::Drain() {
  if (stopping_.load(std::memory_order_acquire)) return false;
  // Another thread's pass is under way and delivers for us too.
  std::unique_lock lock(drain_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  bool progress = false;
  for (std::size_t g = 0; g < options_.group_count; ++g) {
    if (g == options_.self_group) continue;
    progress = DrainRing(g) || progress;
  }
  return progress;
}

bool ShmTransport::DrainRing(std::size_t g) {
  RingHdr* rh = Ring(own_.base, g);
  if (rh->attached.load(std::memory_order_acquire) == 0) return false;
  if (ready_ && !ready_(g)) return false;  // bytes wait in the ring
  const Byte* data = RingData(own_.base, options_.group_count,
                              options_.ring_bytes, g);
  RxState& st = rx_[g];
  std::uint64_t head = rh->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = rh->tail.load(std::memory_order_acquire);
  if (head == tail) return false;
  std::uint64_t avail = tail - head;
  while (avail > 0) {
    if (st.box == nullptr) {
      // Accumulate the 4-byte record length (it can itself straddle
      // drains and the wrap point).
      const std::size_t take =
          std::min<std::uint64_t>(4 - st.len_got, avail);
      CopyOut(data, options_.ring_bytes, head, st.len + st.len_got, take);
      head += take;
      avail -= take;
      st.len_got += take;
      if (st.len_got < 4) break;
      const std::uint32_t len = static_cast<std::uint32_t>(st.len[0]) |
                                static_cast<std::uint32_t>(st.len[1]) << 8 |
                                static_cast<std::uint32_t>(st.len[2]) << 16 |
                                static_cast<std::uint32_t>(st.len[3]) << 24;
      // Same bound the TCP reader enforces.
      if (len == 0 || len > kMaxFrameBytes) {
        rh->head.store(head, std::memory_order_release);
        if (on_fatal_)
          on_fatal_("shm ring from group " + std::to_string(g) +
                    ": absurd record length " + std::to_string(len));
        return true;
      }
      st.box = pool_->Acquire(len);
      st.got = 0;
    } else {
      const std::size_t take =
          std::min<std::uint64_t>(st.box->size() - st.got, avail);
      CopyOut(data, options_.ring_bytes, head, st.box->data() + st.got, take);
      head += take;
      avail -= take;
      st.got += take;
      if (st.got == st.box->size()) {
        // Free the ring space before the frame is routed, so a writer
        // waiting for room can go on meanwhile.
        rh->head.store(head, std::memory_order_release);
        on_frame_(g, pool_->Wrap(std::move(st.box)));
        st.box = nullptr;
        st.len_got = 0;
        st.got = 0;
      }
    }
  }
  rh->head.store(head, std::memory_order_release);
  return true;
}

void ShmTransport::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  // Close our inbound segment (peers' writers waiting for room give up)
  // and wake a dispatcher parked on its doorbell.
  SegHdr* own_hdr = Hdr(own_.base);
  own_hdr->closed.store(1, std::memory_order_release);
  own_hdr->doorbell.fetch_add(1, std::memory_order_release);
  FutexWake(&own_hdr->doorbell);
  shm_unlink(name_.c_str());
}

}  // namespace hmdsm::netio
