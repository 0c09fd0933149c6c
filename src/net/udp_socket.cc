#include "src/net/udp_socket.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/kern/kernel_context.h"

namespace ikdp {

UdpSocket::UdpSocket(CpuSystem* cpu, int64_t sndbuf_bytes, int64_t rcvbuf_bytes)
    : cpu_(cpu), sndbuf_bytes_(sndbuf_bytes), rcvbuf_bytes_(rcvbuf_bytes) {}

void UdpSocket::ConnectTo(UdpSocket* peer, NetworkLink* link) {
  peer_ = peer;
  link_ = link;
}

bool UdpSocket::SendAsync(BufData data, int64_t nbytes, std::function<void()> done) {
  assert(nbytes >= 0);  // zero-length datagrams are legal UDP (end-of-stream marker)
  if (peer_ == nullptr || link_ == nullptr) {
    return false;
  }
  if (snd_inflight_ + nbytes > sndbuf_bytes_) {
    return false;
  }
  // Refuse a full interface BEFORE paying protocol processing or copying
  // the payload: a splice sink retrying off the softclock would otherwise
  // burn a full output-path charge per refusal — a busy-wait dressed up as
  // flow control — instead of backpressuring at (almost) no CPU cost.
  if (!link_->HasTxRoom()) {
    ++stats_.dgrams_dropped_wire;
    return false;
  }
  // Output protocol processing runs in the sender's context; charge it when
  // that context is an interrupt (splice handlers).  Process-context sends
  // are charged by the syscall layer.
  if (cpu_->InInterrupt()) {
    cpu_->ChargeInterrupt(cpu_->costs().UdpPacketTime(nbytes));
  }
  UdpSocket* peer = peer_;
  // The sender's kspan rides the wire: the leave-interface and delivery
  // events attribute to the request that queued the datagram, however long
  // the propagation delay defers them.
  const SpanId span = CurrentKspan().span;
  const uint64_t serial = Kctx().run.datagram_serial + 1;
  // Snapshot the payload: the wire carries the bytes as they were when the
  // datagram was queued, and the sender is free to recycle its buffer once
  // `done` fires (before the propagation delay has elapsed).
  BufData wire_copy = std::make_shared<std::vector<uint8_t>>(
      data->begin(), data->begin() + std::min<int64_t>(nbytes, data->size()));
  wire_copy->resize(static_cast<size_t>(nbytes), 0);
  const bool accepted = link_->Send(
      nbytes,
      [peer, wire_copy = std::move(wire_copy), nbytes, span, serial](int64_t) {
        KspanScope scope("net", span);
        peer->Deliver(wire_copy, nbytes, serial);
      },
      [this, nbytes, span, serial, done = std::move(done)] {
        KspanScope scope("net", span);
        if (TraceLog* t = cpu_->trace()) {
          t->Record(cpu_->sim()->Now(), TraceKind::kUdpSent, static_cast<int64_t>(serial),
                    nbytes);
        }
        snd_inflight_ -= nbytes;
        cpu_->Wakeup(SendChannel());
        if (done) {
          done();
        }
      });
  if (!accepted) {
    ++stats_.dgrams_dropped_wire;
    return false;
  }
  ++Kctx().run.datagram_serial;
  if (TraceLog* t = cpu_->trace()) {
    t->Record(cpu_->sim()->Now(), TraceKind::kUdpSend, static_cast<int64_t>(serial), nbytes);
  }
  snd_inflight_ += nbytes;
  ++stats_.dgrams_sent;
  stats_.bytes_sent += nbytes;
  return true;
}

void UdpSocket::Deliver(BufData data, int64_t nbytes, uint64_t serial) {
  // Input side: network interrupt + protocol processing + checksum.  The
  // caller (the link delivery lambda) has pushed the sender's span, so the
  // raise-time capture attributes this interrupt to the sending request.
  cpu_->RunInterrupt(
      cpu_->costs().interrupt_overhead + cpu_->costs().UdpPacketTime(nbytes),
      [this, data = std::move(data), nbytes, serial]() mutable {
        if (rcv_queued_bytes_ + nbytes > rcvbuf_bytes_) {
          ++stats_.dgrams_dropped_rcvbuf;
          return;
        }
        rcv_queue_.push_back(Datagram{std::move(data), nbytes});
        rcv_queued_bytes_ += nbytes;
        ++stats_.dgrams_received;
        stats_.bytes_received += nbytes;
        if (TraceLog* t = cpu_->trace()) {
          t->Record(cpu_->sim()->Now(), TraceKind::kUdpRecv, static_cast<int64_t>(serial),
                    nbytes);
        }
        TryCompleteRecv();
        cpu_->Wakeup(RecvChannel());
      });
}

bool UdpSocket::CancelRecv() {
  if (!recv_pending_) {
    return false;
  }
  // Drop the parked receive; its callback never fires.  Queued datagrams
  // stay in the receive buffer for any future reader.
  recv_pending_ = false;
  recv_done_ = nullptr;
  recv_max_ = 0;
  return true;
}

bool UdpSocket::RecvAsync(int64_t max_bytes, std::function<void(BufData, int64_t)> done) {
  if (recv_pending_ || max_bytes <= 0) {
    return false;
  }
  recv_pending_ = true;
  recv_max_ = max_bytes;
  recv_done_ = std::move(done);
  TryCompleteRecv();
  return true;
}

void UdpSocket::TryCompleteRecv() {
  if (!recv_pending_ || rcv_queue_.empty()) {
    return;
  }
  Datagram d = std::move(rcv_queue_.front());
  rcv_queue_.pop_front();
  rcv_queued_bytes_ -= d.nbytes;
  const int64_t n = std::min(d.nbytes, recv_max_);  // truncation, UDP-style
  recv_pending_ = false;
  auto done = std::move(recv_done_);
  recv_done_ = nullptr;
  done(std::move(d.data), n);
}

}  // namespace ikdp
