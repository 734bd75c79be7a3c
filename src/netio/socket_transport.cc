#include "src/netio/socket_transport.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include "src/runtime/poll_window.h"

namespace hmdsm::netio {

namespace {

/// epoll user-data tag for a reactor thread's wake eventfd (can never
/// collide with a group index).
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};

/// epoll user-data tag for a reactor thread's heartbeat timerfd.
constexpr std::uint64_t kTimerTag = ~std::uint64_t{0} - 1;

/// Adaptive frame batching budgets: a reactor flush that finds more than
/// one frame queued coalesces up to this many frames / bytes into one
/// Batch image — one wire write — and flushes immediately (no batching,
/// no added latency) whenever the queue drains to a single frame.
constexpr std::size_t kMaxBatchFrames = 64;
constexpr std::size_t kMaxBatchBytes = 64 * 1024;

/// Upper bound on iovecs per writev: a full batch is 1 header segment + 2
/// per frame = 129 segments, comfortably under this (and under IOV_MAX);
/// larger images flush across several calls.
constexpr int kMaxIovPerWrite = 192;

/// How long dialers retry, and handshakes wait, while the mesh comes up.
constexpr int kConnectTimeoutMs = 30000;

Bytes LenPrefix(std::size_t n) {
  Bytes b(4);
  const auto v = static_cast<std::uint32_t>(n);
  for (int i = 0; i < 4; ++i) b[i] = static_cast<Byte>(v >> (8 * i));
  return b;
}

void AppendU32(Bytes& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<Byte>(v >> (8 * i)));
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)),
      recorders_(options_.peers.size()),
      epoch_(std::chrono::steady_clock::now()) {
  const std::size_t n = options_.peers.size();
  HMDSM_CHECK_MSG(n >= 1 && n <= 0x10000, "peer list size out of range");
  const std::size_t k = options_.ranks_per_proc;
  HMDSM_CHECK_MSG(k >= 1 && k <= n,
                  "ranks_per_proc " << k << " out of range for " << n
                                    << " ranks");
  HMDSM_CHECK_MSG(options_.rank < n, "rank " << options_.rank
                                             << " outside peer list of " << n);
  HMDSM_CHECK_MSG(options_.rank % k == 0,
                  "rank " << options_.rank << " is not a process primary "
                          << "(ranks_per_proc=" << k << ")");
  group_ = options_.rank / k;
  group_count_ = (n + k - 1) / k;
  const std::size_t local_count = std::min(k, n - options_.rank);
  local_ranks_.reserve(local_count);
  for (std::size_t i = 0; i < local_count; ++i)
    local_ranks_.push_back(static_cast<net::NodeId>(options_.rank + i));
  mailboxes_.resize(local_count);
  handlers_.resize(local_count);
  peers_.resize(group_count_);
  mailbox_overflow_base_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(local_count);
  for (stats::Recorder& r : recorders_) r.SetNodeCount(n);
  // The segment exists from construction on, so whether the primary's
  // receivers may drain rings is settled before any dispatcher waits.
  if (group_count_ > 1 && options_.shm) {
    ShmTransportOptions so;
    so.group_count = group_count_;
    so.self_group = group_;
    so.ring_bytes = options_.shm_ring_bytes;
    std::string error;
    shm_ = ShmTransport::Create(so, &error);
    if (shm_ == nullptr) {
      // Setup failure is a degradation, not an error: every link simply
      // stays on TCP (and the handshake never advertises the flag).
      std::fprintf(stderr, "hmdsm sockets: rank %u: shm disabled: %s\n",
                   options_.rank, error.c_str());
    } else {
      shm_->SetReceiver(
          [this](std::size_t src_group, Buf frame) {
            FrameType type;
            if (!PeekType(frame.span(), &type) ||
                type != FrameType::kData) {
              Die("non-data frame on the shm ring from process " +
                  std::to_string(src_group));
            }
            HandleFrame(src_group, frame, /*allow_batch=*/false);
          },
          [this](const std::string& why) { Die(why); }, &rx_pool_,
          // Drain gate: ring bytes wait until this process adopted the
          // link — a peer may attach and write the instant it sees our
          // HelloAck, before our RegisterPeer has run.
          [this](std::size_t src_group) {
            return peers_[src_group].registered.load(
                std::memory_order_acquire);
          });
    }
  }
}

SocketTransport::~SocketTransport() { Stop(); }

void SocketTransport::SetControlHandler(ControlHandler handler) {
  HMDSM_CHECK_MSG(!started_, "control handler must be set before Start()");
  control_handler_ = std::move(handler);
}

void SocketTransport::SetPeerDownHandler(PeerDownHandler handler) {
  HMDSM_CHECK_MSG(!started_, "peer-down handler must be set before Start()");
  peer_down_handler_ = std::move(handler);
}

void SocketTransport::Start() {
  HMDSM_CHECK(!started_);
  started_ = true;
  if (group_count_ == 1) return;  // whole cluster in-process: no wire at all
  host_id_ = ShmTransport::HostIdentity();
  // Only processes with a higher-primary peer expect inbound dials.
  if (group_ + 1 < group_count_) {
    if (options_.listen_fd >= 0) {
      listener_ = Fd(options_.listen_fd);
    } else {
      std::string error;
      listener_ = ListenOn(options_.peers[options_.rank], nullptr, &error);
      if (!listener_.valid()) {
        FailConnect(error);
        return;
      }
    }
  }
  // The reactor pool comes up before the connector: RegisterPeer adopts
  // each handshaken socket into an I/O thread's epoll set.
  const std::size_t pool =
      std::max<std::size_t>(1, std::min(options_.io_threads, group_count_ - 1));
  io_.resize(pool);
  for (std::size_t ti = 0; ti < pool; ++ti) {
    IoThread& t = io_[ti];
    t.epoll = Fd(::epoll_create1(0));
    HMDSM_CHECK_MSG(t.epoll.valid(), "epoll_create1 failed");
    t.wake = Fd(::eventfd(0, EFD_NONBLOCK));
    HMDSM_CHECK_MSG(t.wake.valid(), "eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    HMDSM_CHECK(::epoll_ctl(t.epoll.get(), EPOLL_CTL_ADD, t.wake.get(), &ev) ==
                0);
    if (options_.heartbeat_interval_ms > 0) {
      t.timer = Fd(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK));
      HMDSM_CHECK_MSG(t.timer.valid(), "timerfd_create failed");
      itimerspec spec{};
      const auto ms = static_cast<long>(options_.heartbeat_interval_ms);
      spec.it_interval.tv_sec = ms / 1000;
      spec.it_interval.tv_nsec = (ms % 1000) * 1000000L;
      spec.it_value = spec.it_interval;
      HMDSM_CHECK(::timerfd_settime(t.timer.get(), 0, &spec, nullptr) == 0);
      epoll_event tev{};
      tev.events = EPOLLIN;
      tev.data.u64 = kTimerTag;
      HMDSM_CHECK(::epoll_ctl(t.epoll.get(), EPOLL_CTL_ADD, t.timer.get(),
                              &tev) == 0);
    }
  }
  for (std::size_t g = 0; g < group_count_; ++g) {
    if (g == group_) continue;
    peers_[g].io_thread = g % pool;
    io_[g % pool].owned.push_back(g);
  }
  for (std::size_t ti = 0; ti < pool; ++ti)
    io_[ti].th = std::thread([this, ti] { IoLoop(ti); });
  connector_ = std::thread([this] { ConnectorMain(); });
}

void SocketTransport::ConnectorMain() {
  const net::NodeId rank = options_.rank;
  const auto n = static_cast<std::uint32_t>(options_.peers.size());
  const auto k = static_cast<std::uint32_t>(options_.ranks_per_proc);
  // Dial every lower-primary process first (ascending), then accept every
  // higher one. Process 0 reaches its accept phase immediately, so by
  // induction every dial eventually finds a listener answering handshakes
  // — no cycles.
  for (std::size_t g = 0; g < group_; ++g) {
    const net::NodeId primary = PrimaryOf(g);
    std::string error;
    Fd fd = DialWithRetry(options_.peers[primary], kConnectTimeoutMs, &error);
    if (!fd.valid()) {
      FailConnect("dial process " + std::to_string(g) + " (rank " +
                  std::to_string(primary) + "): " + error);
      return;
    }
    HelloFrame hello;
    hello.version = kProtocolVersion;
    hello.node = rank;
    hello.node_count = n;
    hello.ranks_per_proc = k;
    hello.flags = HelloFlags();
    hello.host_id = host_id_;
    if (shm_ != nullptr) hello.shm_name = shm_->segment_name();
    if (!WriteFrame(fd.get(), Encode(hello), &error)) {
      FailConnect("hello to process " + std::to_string(g) + ": " + error);
      return;
    }
    Bytes reply;
    SetRecvTimeout(fd.get(), kConnectTimeoutMs);
    if (!ReadFrame(fd.get(), &reply, kMaxFrameBytes, &error)) {
      FailConnect("hello-ack from process " + std::to_string(g) + ": " +
                  (error.empty() ? "connection closed" : error));
      return;
    }
    SetRecvTimeout(fd.get(), 0);
    HelloAckFrame ack;
    if (!TryDecode(ByteSpan(reply), &ack, &error) ||
        ack.version != kProtocolVersion || ack.node != primary) {
      FailConnect("bad hello-ack from process " + std::to_string(g) + ": " +
                  error);
      return;
    }
    // Shm needs both ends' advertisement and the same host identity —
    // equal flags from a different machine must not be trusted with an
    // mmap.
    std::string peer_shm;
    if (shm_ != nullptr && (ack.flags & kHelloFlagShm) != 0 &&
        ack.host_id == host_id_ && !ack.shm_name.empty()) {
      peer_shm = ack.shm_name;
    }
    RegisterPeer(g, std::move(fd), peer_shm);
  }
  for (std::size_t remaining = group_count_ - 1 - group_; remaining > 0;
       --remaining) {
    std::string error;
    Fd fd = AcceptOn(listener_.get(), &error);
    if (!fd.valid()) {
      if (shutting_down_.load(std::memory_order_acquire)) return;
      FailConnect("accept: " + error);
      return;
    }
    Bytes hello_bytes;
    SetRecvTimeout(fd.get(), kConnectTimeoutMs);
    if (!ReadFrame(fd.get(), &hello_bytes, kMaxFrameBytes, &error)) {
      FailConnect("hello read: " +
                  (error.empty() ? "connection closed" : error));
      return;
    }
    SetRecvTimeout(fd.get(), 0);
    HelloFrame hello;
    if (!TryDecode(ByteSpan(hello_bytes), &hello, &error)) {
      FailConnect("bad hello: " + error);
      return;
    }
    if (hello.version != kProtocolVersion) {
      FailConnect("peer speaks protocol version " +
                  std::to_string(hello.version) + ", expected " +
                  std::to_string(kProtocolVersion));
      return;
    }
    if (hello.node_count != n || hello.ranks_per_proc != k) {
      FailConnect("peer claims a " + std::to_string(hello.node_count) +
                  "-rank mesh with " + std::to_string(hello.ranks_per_proc) +
                  " ranks/process (we are " + std::to_string(n) + " with " +
                  std::to_string(k) + ")");
      return;
    }
    if (hello.node >= n || hello.node % k != 0 ||
        GroupOf(hello.node) <= group_) {
      FailConnect("peer claims primary rank " + std::to_string(hello.node) +
                  " (we are " + std::to_string(rank) + " of " +
                  std::to_string(n) + ")");
      return;
    }
    const std::size_t g = GroupOf(hello.node);
    {
      std::lock_guard lock(mesh_mu_);
      if (peers_[g].connected) {
        FailConnect("duplicate connection from process " + std::to_string(g));
        return;
      }
    }
    std::string peer_shm;
    if (shm_ != nullptr && (hello.flags & kHelloFlagShm) != 0 &&
        hello.host_id == host_id_ && !hello.shm_name.empty()) {
      peer_shm = hello.shm_name;
    }
    HelloAckFrame ack;
    ack.version = kProtocolVersion;
    ack.node = rank;
    ack.flags = HelloFlags();
    ack.host_id = host_id_;
    if (shm_ != nullptr) ack.shm_name = shm_->segment_name();
    if (!WriteFrame(fd.get(), Encode(ack), &error)) {
      FailConnect("hello-ack write: " + error);
      return;
    }
    RegisterPeer(g, std::move(fd), peer_shm);
  }
}

std::uint32_t SocketTransport::HelloFlags() const {
  return shm_ != nullptr ? kHelloFlagShm : 0;
}

void SocketTransport::RegisterPeer(std::size_t group, Fd fd,
                                   const std::string& peer_shm_name) {
  Peer& peer = peers_[group];
  HMDSM_CHECK_MSG(SetNonBlocking(fd.get()),
                  "cannot make peer socket nonblocking");
  peer.fd = std::move(fd);
  if (shm_ != nullptr && !peer_shm_name.empty()) {
    std::string error;
    if (shm_->AttachPeer(group, peer_shm_name, &error)) {
      std::lock_guard lock(peer.mu);
      // FIFO safety at the medium switch: a data frame already queued for
      // TCP must never be overtaken by ring traffic, so if bring-up
      // queued any, this link declines the ring for the whole run rather
      // than reorder. Steady state never queues data pre-handshake.
      const bool data_queued =
          std::any_of(peer.queue.begin(), peer.queue.end(),
                      [](const Bytes& f) {
                        return !f.empty() && static_cast<FrameType>(f[0]) ==
                                                 FrameType::kData;
                      });
      if (!data_queued) peer.shm_tx = true;
    } else {
      std::fprintf(stderr,
                   "hmdsm sockets: rank %u: shm attach to process %zu "
                   "failed (%s); link stays on tcp\n",
                   options_.rank, group, error.c_str());
    }
  }
  // Reactor-owned fields must be settled before the ADD makes the socket
  // visible to the owning I/O thread.
  peer.read_open = true;
  peer.armed = EPOLLIN;
  peer.in_epoll = true;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<std::uint64_t>(group);
  HMDSM_CHECK(::epoll_ctl(io_[peer.io_thread].epoll.get(), EPOLL_CTL_ADD,
                          peer.fd.get(), &ev) == 0);
  const bool ring_link = shm_ != nullptr && !peer_shm_name.empty();
  // The peer negotiated the ring too, so it writes ours from now on: the
  // primary's receivers drain the rings (AwaitReceive, TryReceive). The
  // flag only ever goes false -> true.
  if (ring_link) rings_live_.store(true, std::memory_order_release);
  peer.registered.store(true, std::memory_order_release);
  if (ring_link) {
    // Release a dispatcher still parked on its mailbox, and wake one
    // parked on the doorbell: Drain left this ring alone while
    // `registered` was false, so ring bytes that raced the handshake drain
    // now, not at the backstop.
    mailboxes_.front().Interrupt();
    shm_->Knock();
  }
  // Frames enqueued before the handshake completed have been waiting for
  // exactly this moment.
  bool pending;
  {
    std::lock_guard lock(peer.mu);
    pending = !peer.queue.empty();
  }
  if (pending) KickPeer(group);
  std::lock_guard lock(mesh_mu_);
  peer.connected = true;
  ++connected_count_;
  mesh_cv_.notify_all();
}

void SocketTransport::FailConnect(const std::string& why) {
  std::lock_guard lock(mesh_mu_);
  if (connect_error_.empty()) {
    connect_error_ = "rank " + std::to_string(options_.rank) + ": " + why;
  }
  mesh_cv_.notify_all();
}

void SocketTransport::AwaitConnected() {
  HMDSM_CHECK_MSG(started_, "Start() the transport first");
  const std::size_t want = group_count_ - 1;
  // The grace window scales with rank count: bring-up work (handshakes,
  // fork storms, loaded CI) grows with the mesh, and a fixed +5s window
  // that was fine at 4 ranks starves at 128.
  const auto window = std::chrono::milliseconds(
      kConnectTimeoutMs + 5000 +
      100 * static_cast<int>(options_.peers.size()));
  std::unique_lock lock(mesh_mu_);
  const bool done = mesh_cv_.wait_for(lock, window, [&] {
    return connected_count_ == want || !connect_error_.empty();
  });
  HMDSM_CHECK_MSG(done, "mesh bring-up timed out with "
                            << connected_count_ << "/" << want << " links");
  HMDSM_CHECK_MSG(connect_error_.empty(), connect_error_);
}

void SocketTransport::Die(const std::string& why) const {
  // Once a peer link is broken or violated mid-run, this process's share
  // of the object space is unreachable and every other process would hang
  // on it: fail fast and loudly so the launcher/operator sees who died.
  std::fprintf(stderr, "hmdsm sockets: rank %u: fatal: %s\n", options_.rank,
               why.c_str());
  std::abort();
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

void SocketTransport::IoLoop(std::size_t ti) {
  IoThread& t = io_[ti];
  epoll_event events[64];
  // Poll (timeout 0) while the window after the last peer or wake event is
  // open; block only once it has passed. Heartbeat ticks do not reopen it.
  runtime::PollWindow window(runtime::kReceivePollWindow);
  bool polling = false;
  for (;;) {
    const int nev = ::epoll_wait(t.epoll.get(), events, 64, polling ? 0 : -1);
    if (nev < 0) {
      if (errno == EINTR) continue;
      Die(std::string("epoll_wait: ") + std::strerror(errno));
    }
    bool woke = false;
    bool busy = false;
    for (int i = 0; i < nev; ++i) {
      if (events[i].data.u64 == kWakeTag) {
        std::uint64_t n;
        while (::read(t.wake.get(), &n, sizeof n) > 0) {
        }
        woke = true;
        busy = true;
        continue;
      }
      if (events[i].data.u64 == kTimerTag) {
        OnTimer(t);
        continue;
      }
      busy = true;
      const auto g = static_cast<std::size_t>(events[i].data.u64);
      Peer& peer = peers_[g];
      if (peer.dead) continue;
      if (peer.read_open &&
          (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        HandleReadable(t, g);
      }
      if (!peer.dead && (events[i].events & EPOLLOUT) != 0) FlushPeer(t, g);
    }
    if (busy) window.Busy();
    polling = busy || window.YieldWithin();
    if (!woke) continue;
    if (stop_io_.load(std::memory_order_acquire)) {
      DrainWrites(t);
      return;
    }
    for (const std::size_t g : t.owned) {
      Peer& peer = peers_[g];
      if (peer.kick_pending.exchange(false, std::memory_order_acq_rel))
        FlushPeer(t, g);
    }
  }
}

void SocketTransport::DrainWrites(IoThread& t) {
  // Teardown: nothing meaningful can still be inbound (the coordinator's
  // shutdown barrier ran), so reads stop — otherwise a level-triggered
  // EOF would spin this loop. Writes drain fully: any queued goodbye (a
  // shutdown ack, the lead's all-clear) must reach the wire before the
  // half-close.
  for (const std::size_t g : t.owned) {
    Peer& peer = peers_[g];
    if (peer.dead || !peer.fd.valid()) continue;
    peer.read_open = false;
    UpdateEpoll(t, peer, g, (peer.armed & EPOLLOUT) != 0);
  }
  for (;;) {
    bool pending = false;
    for (const std::size_t g : t.owned) {
      Peer& peer = peers_[g];
      if (peer.dead || !peer.fd.valid()) continue;
      peer.kick_pending.store(false, std::memory_order_relaxed);
      FlushPeer(t, g);
      if (peer.dead) continue;
      bool queued;
      {
        std::lock_guard lock(peer.mu);
        queued = !peer.queue.empty();
      }
      if (peer.out_active || queued) pending = true;
    }
    if (!pending) break;
    epoll_event events[16];
    (void)::epoll_wait(t.epoll.get(), events, 16, 10);
    std::uint64_t n;
    while (::read(t.wake.get(), &n, sizeof n) > 0) {
    }
  }
  // Everything flushed: tell each peer's reactor this direction is done.
  for (const std::size_t g : t.owned) {
    Peer& peer = peers_[g];
    if (!peer.dead && peer.fd.valid()) peer.fd.ShutdownWrite();
  }
}

void SocketTransport::UpdateEpoll(IoThread& t, Peer& peer, std::size_t group,
                                  bool want_write) {
  std::uint32_t want = 0;
  if (peer.read_open) want |= EPOLLIN;
  if (want_write) want |= EPOLLOUT;
  if (peer.in_epoll && want == peer.armed) return;
  if ((want & EPOLLOUT) != 0 && (peer.armed & EPOLLOUT) == 0)
    peer.epollout_arms.fetch_add(1, std::memory_order_acq_rel);
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = static_cast<std::uint64_t>(group);
  if (want == 0) {
    // Fully quiet peers leave the epoll set: EPOLLERR/EPOLLHUP are always
    // reported for registered fds, and a closed peer would otherwise spin
    // the reactor.
    if (peer.in_epoll) {
      ::epoll_ctl(t.epoll.get(), EPOLL_CTL_DEL, peer.fd.get(), nullptr);
      peer.in_epoll = false;
    }
  } else if (peer.in_epoll) {
    ::epoll_ctl(t.epoll.get(), EPOLL_CTL_MOD, peer.fd.get(), &ev);
  } else {
    ::epoll_ctl(t.epoll.get(), EPOLL_CTL_ADD, peer.fd.get(), &ev);
    peer.in_epoll = true;
  }
  peer.armed = want;
}

void SocketTransport::HandleReadable(IoThread& t, std::size_t group) {
  Peer& peer = peers_[group];
  const int fd = peer.fd.get();
  ssize_t r = 0;
  const char* eof_why = "";  // what an EOF at this point of the frame means
  for (;;) {
    if (peer.head_got < 4) {
      r = ::recv(fd, peer.head + peer.head_got, 4 - peer.head_got, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) {
        eof_why = peer.head_got == 0 ? "closed its connection mid-run"
                                     : "eof inside a frame header";
        break;
      }
      peer.last_heard_ns.store(Now(), std::memory_order_release);
      peer.head_got += static_cast<std::size_t>(r);
      if (peer.head_got < 4) continue;
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(peer.head[i]) << (8 * i);
      if (len == 0 || len > kMaxFrameBytes) {
        Die("frame length " + std::to_string(len) + " from process " +
            std::to_string(group));
      }
      peer.in_box = rx_pool_.Acquire(len);
      peer.in_got = 0;
    } else {
      const std::size_t want = peer.in_box->size() - peer.in_got;
      r = ::recv(fd, peer.in_box->data() + peer.in_got, want, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) {
        eof_why = "eof inside a frame";
        break;
      }
      peer.last_heard_ns.store(Now(), std::memory_order_release);
      peer.in_got += static_cast<std::size_t>(r);
      if (peer.in_got < peer.in_box->size()) continue;
      peer.head_got = 0;
      // One pooled Buf owns the received frame; data payloads (and batched
      // inner frames) are handed out as aliased views of it, never copied
      // again, and the storage returns to the pool when the last view
      // drops.
      HandleFrame(group, rx_pool_.Wrap(std::move(peer.in_box)),
                  /*allow_batch=*/true);
    }
  }
  const int err = errno;
  if (r < 0 && (err == EAGAIN || err == EWOULDBLOCK)) return;
  // Read error or EOF. Once shutting down it is a goodbye: close the read
  // side and keep flushing writes. Mid-run the peer is gone.
  if (shutting_down_.load(std::memory_order_acquire)) {
    peer.read_open = false;
    UpdateEpoll(t, peer, group, (peer.armed & EPOLLOUT) != 0);
    return;
  }
  MarkPeerDown(t, group, r < 0 ? std::string("read error: ") +
                                     std::strerror(err)
                               : std::string(eof_why));
}

void SocketTransport::HandleFrame(std::size_t group, const Buf& frame,
                                  bool allow_batch) {
  std::string error;
  FrameType type;
  if (!PeekType(frame.span(), &type)) {
    Die("unknown frame type from process " + std::to_string(group));
  }
  if (type == FrameType::kData) {
    DataFrame data;
    if (!TryDecode(frame, &data, &error)) {
      Die("malformed data frame from process " + std::to_string(group) +
          ": " + error);
    }
    if (data.src >= options_.peers.size() || GroupOf(data.src) != group ||
        !is_local(data.dst)) {
      Die("misrouted data frame from process " + std::to_string(group) +
          " (claims " + std::to_string(data.src) + "->" +
          std::to_string(data.dst) + ")");
    }
    wire_received_.fetch_add(1, std::memory_order_acq_rel);
    // Count before the push, exactly like the channel transport: once the
    // dispatcher can see the packet, enqueued() must already cover it.
    enqueued_.fetch_add(1, std::memory_order_acq_rel);
    net::Packet packet{data.src, data.dst, data.cat,
                       std::move(data.payload)};
    packet.enqueued_at = Now();
    Deliver(std::move(packet));
  } else if (type == FrameType::kBatch) {
    std::vector<Buf> inner;
    if (!allow_batch || !TryDecodeBatch(frame, &inner, &error)) {
      Die("malformed batch frame from process " + std::to_string(group) +
          ": " + (allow_batch ? error : "nested batch"));
    }
    // In queue order, so per-sender FIFO is exactly what it was unbatched.
    for (const Buf& f : inner) HandleFrame(group, f, /*allow_batch=*/false);
  } else if (type == FrameType::kHeartbeat) {
    HeartbeatFrame hb;
    if (!TryDecode(frame.span(), &hb, &error)) {
      Die("malformed heartbeat from process " + std::to_string(group) +
          ": " + error);
    }
    // Echo both fields back; the prober computes RTT against its own
    // clock. Shutdown may already have closed the queue — dropping the
    // ack then is harmless, the prober is unwinding too.
    TryEnqueueFrame(PrimaryOf(group),
                    Encode(HeartbeatAckFrame{hb.seq, hb.send_ns}));
  } else if (type == FrameType::kHeartbeatAck) {
    HeartbeatAckFrame ack;
    if (!TryDecode(frame.span(), &ack, &error)) {
      Die("malformed heartbeat ack from process " + std::to_string(group) +
          ": " + error);
    }
    Peer& peer = peers_[group];
    const sim::Time now = Now();
    peer.hb_acked.fetch_add(1, std::memory_order_acq_rel);
    peer.last_ack_ns.store(now, std::memory_order_release);
    // send_ns came back off the wire: a skewed or hostile echo must not
    // poison the histogram with a giant unsigned difference.
    if (ack.send_ns <= static_cast<std::uint64_t>(now)) {
      std::lock_guard lock(peer.mu);
      peer.rtt.Record(static_cast<std::uint64_t>(now) - ack.send_ns);
    }
  } else if (type == FrameType::kHello || type == FrameType::kHelloAck) {
    Die("unexpected handshake frame from process " + std::to_string(group));
  } else {
    if (!control_handler_) {
      Die("control frame from process " + std::to_string(group) +
          " but no control handler installed");
    }
    control_handler_(PrimaryOf(group), frame.span());
  }
}

void SocketTransport::Deliver(net::Packet&& packet) {
  const std::size_t i = packet.dst - options_.rank;
  mailboxes_[i].Push(std::move(packet));
  // Once rings are live the primary's dispatcher parks on the shm
  // doorbell, not on its mailbox.
  if (i == 0 && rings_live_.load(std::memory_order_acquire)) shm_->Knock();
}

bool SocketTransport::AwaitReceive(net::NodeId node) {
  CheckLocal(node);
  runtime::Channel& mailbox = mailboxes_[node - options_.rank];
  if (shm_ == nullptr || node != options_.rank) return mailbox.Await();
  // Until a link negotiates a ring nothing writes ours: wait on the mailbox
  // like every other rank. RegisterPeer interrupts that wait when the
  // first ring link comes up.
  while (!rings_live()) {
    if (mailbox.Await()) return true;
    if (mailbox.closed()) return false;
  }
  // A packet was just handled, and a reply usually lands within a round
  // trip: poll a whole window before parking. A pass that moved bytes may
  // have filled the mailbox, so it is looked at again at once. While a
  // guest drains in this thread's place it parks at once; the guest
  // knocks when it stops and left something.
  runtime::PollWindow window(runtime::kReceivePollWindow);
  window.Busy();
  for (;;) {
    const std::uint32_t seen = shm_->Doorbell();
    if (mailbox.closed()) return false;
    if (!shm_->guest_draining()) {
      if (mailbox.HasPacket()) return true;
      if (shm_->Drain()) {
        window.Busy();
        continue;
      }
      if (window.YieldWithin()) continue;
    }
    shm_->Park(seen);
  }
}

bool SocketTransport::TryReceive(net::NodeId node, net::Packet& out) {
  runtime::Channel& mailbox = mailboxes_[node - options_.rank];
  if (mailbox.TryPop(out)) return true;
  return node == options_.rank && rings_live() && shm_->Drain() &&
         mailbox.TryPop(out);
}

void SocketTransport::LendReceive(net::NodeId node) {
  mailboxes_[node - options_.rank].Lend();
  if (shm_ != nullptr && node == options_.rank) shm_->BeginGuestDrain();
}

void SocketTransport::ReclaimReceive(net::NodeId node) {
  runtime::Channel& mailbox = mailboxes_[node - options_.rank];
  mailbox.Reclaim();
  if (shm_ == nullptr || node != options_.rank) return;
  // Ring writes and pushes to the primary skipped the doorbell wake while
  // the guest drained: knock for whatever it left. EndGuestDrain's fence
  // orders the mailbox check after it.
  if (shm_->EndGuestDrain() || mailbox.HasPacket()) shm_->Knock();
}

void SocketTransport::OnTimer(IoThread& t) {
  std::uint64_t expirations;
  while (::read(t.timer.get(), &expirations, sizeof expirations) > 0) {
  }
  if (shutting_down_.load(std::memory_order_acquire)) return;
  for (const std::size_t g : t.owned) {
    Peer& peer = peers_[g];
    if (peer.dead || !peer.registered.load(std::memory_order_acquire))
      continue;
    const HeartbeatFrame hb{++peer.hb_seq,
                            static_cast<std::uint64_t>(Now())};
    if (TryEnqueueFrame(PrimaryOf(g), Encode(hb)))
      peer.hb_sent.fetch_add(1, std::memory_order_acq_rel);
  }
}

void SocketTransport::MarkPeerDown(IoThread& t, std::size_t group,
                                   const std::string& why) {
  Peer& peer = peers_[group];
  if (peer.dead) return;
  peer.dead = true;
  peer.down.store(true, std::memory_order_release);
  peer.read_open = false;
  peer.out_active = false;
  peer.out_segs.clear();
  {
    std::lock_guard lock(peer.mu);
    peer.queue.clear();
    peer.queue_bytes = 0;
    // A dead link sends nothing more on any medium.
    peer.shm_tx = false;
  }
  if (peer.in_epoll) {
    ::epoll_ctl(t.epoll.get(), EPOLL_CTL_DEL, peer.fd.get(), nullptr);
    peer.in_epoll = false;
  }
  peer.armed = 0;
  const net::NodeId primary = PrimaryOf(group);
  std::fprintf(stderr,
               "hmdsm sockets: rank %u: peer process %zu (primary rank %u) "
               "down: %s\n",
               options_.rank, group, primary, why.c_str());
  if (peer_down_handler_) {
    peer_down_handler_(primary, why);
  } else {
    Die("process " + std::to_string(group) + " " + why);
  }
}

bool SocketTransport::BuildNextWrite(Peer& peer) {
  std::vector<Bytes> frames;
  {
    std::lock_guard lock(peer.mu);
    if (peer.queue.empty()) return false;
    // Adaptive coalescing: take whatever backlog accumulated while the
    // last write was in flight, bounded by the batch budgets. A queue
    // holding a single frame (the idle/latency-sensitive case) yields a
    // plain immediate write; only a genuine backlog is batched.
    std::size_t batch_bytes = 0;
    while (!peer.queue.empty() && frames.size() < kMaxBatchFrames) {
      const std::size_t next = peer.queue.front().size() + 4;
      if (!frames.empty() && batch_bytes + next > kMaxBatchBytes)
        break;
      batch_bytes += next;
      peer.queue_bytes -= peer.queue.front().size();
      frames.push_back(std::move(peer.queue.front()));
      peer.queue.pop_front();
    }
  }
  peer.out_segs.clear();
  peer.out_seg = 0;
  peer.out_off = 0;
  if (frames.size() == 1) {
    peer.out_segs.reserve(2);
    peer.out_segs.push_back(LenPrefix(frames.front().size()));
    peer.out_segs.push_back(std::move(frames.front()));
    peer.out_frames = 1;
    peer.out_batched = false;
  } else {
    // The Batch wire image ([u32 len][kBatch][u32 count] then per frame
    // [u32 len][frame]) emitted as scatter segments: the header and the
    // per-frame prefixes are fresh bytes, the frames themselves are moved
    // — batching never copies a payload (see frame.h EncodeBatch for the
    // layout the receiver decodes).
    std::size_t inner = 1 + 4;
    for (const Bytes& f : frames) inner += 4 + f.size();
    Bytes head = LenPrefix(inner);
    head.push_back(static_cast<Byte>(FrameType::kBatch));
    AppendU32(head, static_cast<std::uint32_t>(frames.size()));
    peer.out_segs.reserve(1 + 2 * frames.size());
    peer.out_segs.push_back(std::move(head));
    for (Bytes& f : frames) {
      peer.out_segs.push_back(LenPrefix(f.size()));
      peer.out_segs.push_back(std::move(f));
    }
    peer.out_frames = frames.size();
    peer.out_batched = true;
  }
  peer.out_active = true;
  return true;
}

void SocketTransport::FlushPeer(IoThread& t, std::size_t group) {
  Peer& peer = peers_[group];
  if (peer.dead || !peer.fd.valid()) return;
  for (;;) {
    if (!peer.out_active && !BuildNextWrite(peer)) break;
    iovec iov[kMaxIovPerWrite];
    int cnt = 0;
    std::size_t off = peer.out_off;
    for (std::size_t s = peer.out_seg;
         s < peer.out_segs.size() && cnt < kMaxIovPerWrite; ++s) {
      iov[cnt].iov_base = peer.out_segs[s].data() + off;
      iov[cnt].iov_len = peer.out_segs[s].size() - off;
      off = 0;
      ++cnt;
    }
    const sim::Time write_start = Now();
    const ssize_t w = ::writev(peer.fd.get(), iov, cnt);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        peer.eagain.fetch_add(1, std::memory_order_acq_rel);
        UpdateEpoll(t, peer, group, /*want_write=*/true);
        return;
      }
      if (shutting_down_.load(std::memory_order_acquire)) {
        // The peer tore down first; its process already acknowledged the
        // end of the run, so dropping the rest of this queue loses
        // nothing anyone waits for.
        peer.dead = true;
        peer.out_active = false;
        peer.out_segs.clear();
        {
          std::lock_guard lock(peer.mu);
          peer.queue.clear();
        }
        if (peer.in_epoll) {
          ::epoll_ctl(t.epoll.get(), EPOLL_CTL_DEL, peer.fd.get(), nullptr);
          peer.in_epoll = false;
        }
        return;
      }
      MarkPeerDown(t, group,
                   std::string("write error: ") + std::strerror(errno));
      return;
    }
    const sim::Time took = Now() - write_start;
    {
      std::lock_guard lock(write_lat_mu_);
      write_latency_.Record(static_cast<std::uint64_t>(took > 0 ? took : 0));
    }
    // Advance the flush cursor; only a *fully* written image counts — the
    // wire counters never cover failed or still-partial writes.
    auto left = static_cast<std::size_t>(w);
    while (left > 0) {
      const std::size_t avail =
          peer.out_segs[peer.out_seg].size() - peer.out_off;
      if (left < avail) {
        peer.out_off += left;
        left = 0;
      } else {
        left -= avail;
        peer.out_off = 0;
        ++peer.out_seg;
      }
    }
    if (peer.out_seg == peer.out_segs.size()) {
      socket_writes_.fetch_add(1, std::memory_order_acq_rel);
      if (peer.out_batched) {
        frames_coalesced_.fetch_add(peer.out_frames,
                                    std::memory_order_acq_rel);
      }
      peer.out_active = false;
      peer.out_segs.clear();
      peer.out_seg = 0;
      peer.out_off = 0;
    }
  }
  UpdateEpoll(t, peer, group, /*want_write=*/false);
}

// ---------------------------------------------------------------------------
// Sending
// ---------------------------------------------------------------------------

void SocketTransport::KickPeer(std::size_t group) {
  Peer& peer = peers_[group];
  // Not adopted yet: RegisterPeer re-checks the queue after flipping
  // registered, so the frame cannot be stranded.
  if (!peer.registered.load(std::memory_order_acquire)) return;
  if (peer.kick_pending.exchange(true, std::memory_order_acq_rel)) return;
  peer.kicks.fetch_add(1, std::memory_order_acq_rel);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t w =
      ::write(io_[peer.io_thread].wake.get(), &one, sizeof one);
}

void SocketTransport::EnqueueFrame(net::NodeId dst, Bytes frame) {
  HMDSM_CHECK(dst < options_.peers.size());
  const std::size_t g = GroupOf(dst);
  HMDSM_CHECK(g != group_);
  Peer& peer = peers_[g];
  if (peer.down.load(std::memory_order_acquire)) {
    // The link already failed mid-run: queueing would grow forever and
    // abort here would kill the survivor — drop, count, and let the
    // coordinator's liveness plane do the reporting.
    peer.frames_dropped.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  {
    std::lock_guard lock(peer.mu);
    HMDSM_CHECK_MSG(!peer.closed, "send to rank " << dst << " after Stop()");
    peer.queue_bytes += frame.size();
    peer.queue.push_back(std::move(frame));
  }
  frames_enqueued_.fetch_add(1, std::memory_order_acq_rel);
  KickPeer(g);
}

bool SocketTransport::TryEnqueueFrame(net::NodeId dst, Bytes frame) {
  if (dst >= options_.peers.size()) return false;
  const std::size_t g = GroupOf(dst);
  if (g == group_) return false;
  Peer& peer = peers_[g];
  if (peer.down.load(std::memory_order_acquire)) {
    peer.frames_dropped.fetch_add(1, std::memory_order_acq_rel);
    return false;
  }
  {
    std::lock_guard lock(peer.mu);
    if (peer.closed) {
      peer.frames_dropped.fetch_add(1, std::memory_order_acq_rel);
      return false;
    }
    peer.queue_bytes += frame.size();
    peer.queue.push_back(std::move(frame));
  }
  frames_enqueued_.fetch_add(1, std::memory_order_acq_rel);
  KickPeer(g);
  return true;
}

void SocketTransport::SendData(net::NodeId dst, const DataFrame& data) {
  const std::size_t g = GroupOf(dst);
  HMDSM_CHECK(g != group_);
  Peer& peer = peers_[g];
  if (peer.down.load(std::memory_order_acquire)) {
    peer.frames_dropped.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  bool via_shm = false;
  {
    // A holder waiting for room in the peer's ring drains ours meanwhile
    // (ShmTransport::WriteFrame), so this wait never stalls our rings.
    std::lock_guard lock(peer.mu);
    HMDSM_CHECK_MSG(!peer.closed, "send to rank " << dst << " after Stop()");
    Bytes frame = Encode(data);
    if (peer.shm_tx) {
      // Ring write under peer.mu: the mutex is the single-writer contract
      // ShmTransport requires, and it orders ring records exactly like
      // the TCP queue would. Mid-run this always succeeds; false means
      // the mesh is tearing down and the frame no longer matters.
      via_shm = shm_->WriteFrame(g, ByteSpan(frame.data(), frame.size()));
      if (!via_shm) {
        peer.frames_dropped.fetch_add(1, std::memory_order_acq_rel);
        return;
      }
    } else {
      peer.queue_bytes += frame.size();
      peer.queue.push_back(std::move(frame));
    }
  }
  if (via_shm) {
    peer.shm_msgs_sent.fetch_add(1, std::memory_order_acq_rel);
    shm_msgs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  frames_enqueued_.fetch_add(1, std::memory_order_acq_rel);
  KickPeer(g);
}

void SocketTransport::SendControl(net::NodeId dst, const Bytes& frame) {
  EnqueueFrame(dst, frame);
}

void SocketTransport::BroadcastControl(const Bytes& frame) {
  for (std::size_t g = 0; g < group_count_; ++g) {
    if (g != group_) EnqueueFrame(PrimaryOf(g), frame);
  }
}

void SocketTransport::Send(net::NodeId src, net::NodeId dst,
                           stats::MsgCat cat, Buf payload) {
  HMDSM_CHECK_MSG(is_local(src), "process with primary rank "
                                     << options_.rank << " cannot send as "
                                     << "node " << src);
  HMDSM_CHECK(dst < options_.peers.size());
  if (is_local(dst)) {
    if (dst != src) {
      // Cross-rank within the process: charged to the recorders exactly
      // like the in-process channel transport (the cluster's message
      // totals must not depend on how ranks are packed into processes),
      // but never wire traffic — the wire counters stay a pure
      // conservation law for the quiescence probe.
      const std::size_t wire_bytes = payload.size() + kHeaderBytes;
      recorders_[src].RecordMessage(cat, wire_bytes);
      recorders_[src].RecordSent(src, wire_bytes);
    }
    // Through the destination's mailbox (asynchronous delivery), never the
    // wire; a self-send is not charged — identical to the in-process
    // transports.
    enqueued_.fetch_add(1, std::memory_order_acq_rel);
    net::Packet packet{src, dst, cat, std::move(payload)};
    packet.enqueued_at = Now();
    Deliver(std::move(packet));
    return;
  }
  const std::size_t wire_bytes = payload.size() + kHeaderBytes;
  // Send() runs under the source's agent lock, which serializes the
  // recorder.
  recorders_[src].RecordMessage(cat, wire_bytes);
  recorders_[src].RecordSent(src, wire_bytes);
  // Count before the frame becomes visible to the reactor: quiescence must
  // never observe a receive without its matching send.
  wire_sent_.fetch_add(1, std::memory_order_acq_rel);
  SendData(dst, DataFrame{src, dst, cat, std::move(payload)});
}

void SocketTransport::Dispatch(net::Packet&& packet) {
  CheckLocal(packet.dst);
  const Handler& handler = handlers_[packet.dst - options_.rank];
  HMDSM_CHECK_MSG(handler, "no handler registered for node " << packet.dst);
  if (packet.src != packet.dst) {
    recorders_[packet.dst].RecordReceived(
        packet.dst, packet.payload.size() + kHeaderBytes);
  }
  if (packet.enqueued_at > 0) {
    const sim::Time age = Now() - packet.enqueued_at;
    recorders_[packet.dst].RecordLatency(
        stats::Lat::kMailboxDwell,
        static_cast<std::uint64_t>(age > 0 ? age : 0));
  }
  handler(std::move(packet));
  dispatched_.fetch_add(1, std::memory_order_acq_rel);
}

void SocketTransport::ResetStats() {
  MailboxTransport::ResetStats();
  socket_writes_base_.store(socket_writes_.load(std::memory_order_acquire),
                            std::memory_order_release);
  frames_enqueued_base_.store(
      frames_enqueued_.load(std::memory_order_acquire),
      std::memory_order_release);
  frames_coalesced_base_.store(
      frames_coalesced_.load(std::memory_order_acquire),
      std::memory_order_release);
  shm_msgs_base_.store(shm_msgs_.load(std::memory_order_acquire),
                       std::memory_order_release);
  rx_buffer_allocs_base_.store(rx_pool_.buffer_allocs(),
                               std::memory_order_release);
  for (std::size_t i = 0; i < mailboxes_.size(); ++i) {
    mailbox_overflow_base_[i].store(mailboxes_[i].overflow_allocs(),
                                    std::memory_order_release);
  }
  std::lock_guard lock(write_lat_mu_);
  write_latency_.Reset();
}

void SocketTransport::AugmentSnapshot(net::NodeId node,
                                      stats::Recorder& into) const {
  if (is_local(node)) {
    const std::size_t i = node - options_.rank;
    into.Bump(stats::Ev::kMailboxOverflowAllocs,
              mailboxes_[i].overflow_allocs() -
                  mailbox_overflow_base_[i].load(std::memory_order_acquire));
  }
  if (node != options_.rank) return;  // wire counters are process-level
  into.Bump(stats::Ev::kSocketWrites,
            socket_writes_.load(std::memory_order_acquire) -
                socket_writes_base_.load(std::memory_order_acquire));
  into.Bump(stats::Ev::kWireFramesEnqueued,
            frames_enqueued_.load(std::memory_order_acquire) -
                frames_enqueued_base_.load(std::memory_order_acquire));
  into.Bump(stats::Ev::kWireFramesCoalesced,
            frames_coalesced_.load(std::memory_order_acquire) -
                frames_coalesced_base_.load(std::memory_order_acquire));
  into.Bump(stats::Ev::kShmMsgs,
            shm_msgs_.load(std::memory_order_acquire) -
                shm_msgs_base_.load(std::memory_order_acquire));
  into.Bump(stats::Ev::kRxBufferAllocs,
            rx_pool_.buffer_allocs() -
                rx_buffer_allocs_base_.load(std::memory_order_acquire));
  std::lock_guard lock(write_lat_mu_);
  into.MergeLatency(stats::Lat::kSocketWrite, write_latency_);
}

std::vector<LinkStats> SocketTransport::LinkSnapshots() {
  std::vector<LinkStats> out;
  if (group_count_ <= 1) return out;
  out.reserve(group_count_ - 1);
  for (std::size_t g = 0; g < group_count_; ++g) {
    if (g == group_) continue;
    Peer& peer = peers_[g];
    LinkStats s;
    s.primary = PrimaryOf(g);
    {
      std::lock_guard lock(mesh_mu_);
      s.connected = peer.connected;
    }
    s.up = !peer.down.load(std::memory_order_acquire);
    s.hb_sent = peer.hb_sent.load(std::memory_order_acquire);
    s.hb_acked = peer.hb_acked.load(std::memory_order_acquire);
    s.last_heard_ns = peer.last_heard_ns.load(std::memory_order_acquire);
    s.last_ack_ns = peer.last_ack_ns.load(std::memory_order_acquire);
    s.eagain = peer.eagain.load(std::memory_order_acquire);
    s.epollout_arms = peer.epollout_arms.load(std::memory_order_acquire);
    s.kicks = peer.kicks.load(std::memory_order_acquire);
    s.frames_dropped = peer.frames_dropped.load(std::memory_order_acquire);
    s.shm_msgs = peer.shm_msgs_sent.load(std::memory_order_acquire);
    {
      std::lock_guard lock(peer.mu);
      s.queue_depth = peer.queue.size();
      s.queue_bytes = peer.queue_bytes;
      s.rtt = peer.rtt;
      s.shm = peer.shm_tx;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void SocketTransport::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  BeginShutdown();
  // The connector goes first: wake it if it is still blocked in accept()
  // (error-path teardown) and join it, so the peer set the reactor must
  // drain is final.
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
  if (connector_.joinable()) connector_.join();
  // No further enqueues; the reactor pool drains what is queued, half-
  // closes every link, and exits.
  for (Peer& peer : peers_) {
    std::lock_guard lock(peer.mu);
    peer.closed = true;
  }
  stop_io_.store(true, std::memory_order_release);
  for (IoThread& t : io_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t w = ::write(t.wake.get(), &one, sizeof one);
  }
  for (IoThread& t : io_) {
    if (t.th.joinable()) t.th.join();
  }
  // Closing the mailboxes wakes and releases a parked dispatcher; stopping
  // the segment turns Drain into a no-op but keeps it mapped until
  // destruction.
  CloseAll();
  if (shm_ != nullptr) shm_->Stop();
  listener_.Close();
  for (Peer& peer : peers_) peer.fd.Close();
  for (IoThread& t : io_) {
    t.epoll.Close();
    t.wake.Close();
    t.timer.Close();
  }
}

}  // namespace hmdsm::netio
