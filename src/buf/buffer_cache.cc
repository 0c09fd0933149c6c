#include "src/buf/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "src/buf/buf_check.h"

namespace ikdp {

void Biodone(Buf& b) {
  assert(b.cache != nullptr);
  b.cache->IoDone(&b);
}

void BlockDevice::PokeBlock(int64_t blkno, const std::vector<uint8_t>& data) {
  assert(static_cast<int64_t>(data.size()) <= kBlockSize);
  uint8_t* blk = store_.Write(blkno);
  std::copy(data.begin(), data.end(), blk);
  std::fill(blk + data.size(), blk + kBlockSize, 0);
}

std::vector<uint8_t> BlockDevice::PeekBlock(int64_t blkno) const {
  const uint8_t* blk = store_.Read(blkno);
  return std::vector<uint8_t>(blk, blk + kBlockSize);
}

void BlockDevice::MoveContent(Buf& b, bool is_read) {
  if (b.data == nullptr) {
    return;
  }
  assert(b.bcount <= kBlockSize && static_cast<int64_t>(b.data->size()) >= b.bcount);
  const size_t n = static_cast<size_t>(b.bcount);
  if (is_read) {
    std::memcpy(b.data->data(), store_.Read(b.blkno), n);
  } else {
    std::memcpy(store_.Write(b.blkno), b.data->data(), n);
  }
}

BufferCache::BufferCache(CpuSystem* cpu, int nbufs) : cpu_(cpu), nbufs_(nbufs) {
  assert(nbufs > 0);
  size_t buckets = 16;
  while (buckets < static_cast<size_t>(nbufs) * 2) {
    buckets <<= 1;
  }
  lock_.Acquire();
  hash_buckets_.assign(buckets, nullptr);
  hash_mask_ = buckets - 1;
  pool_.reserve(nbufs);
  for (int i = 0; i < nbufs; ++i) {
    auto b = std::make_unique<Buf>();
    b->cache = this;
    b->data = MakeBufData();
    FreelistPush(b.get(), /*front=*/false);
    pool_.push_back(std::move(b));
  }
  ValidateInvariants();
  lock_.Release();
}

BufferCache::~BufferCache() = default;

// --- internal helpers ---
//
// Everything in this section runs with lock_ ("cache") held by the caller.
// TryGrabFree is the one exception to "held throughout": it drops the lock
// around SubmitIo (a RAM-disk Strategy completes synchronously and re-enters
// Brelse, which acquires) and reacquires before continuing the scan.

size_t BufferCache::BucketOf(const BlockDevice* dev, int64_t blkno) const {
  const size_t h =
      std::hash<const void*>()(dev) ^ std::hash<int64_t>()(blkno) * 1099511628211u;
  return h & hash_mask_;
}

void BufferCache::HashInsert(Buf* b) {
  // Distinct (dev, blkno) keys land on independent chains; same-timestamp
  // inserts/removes of different blocks commute, and the same block is
  // protected by kBufBusy (so a same-block pair would already be a
  // buf-discipline violation).
  IKDP_KRACE_COMMUTE(this, "BufferCache::hash_buckets_");
  assert(!b->hashed && b->hash_prev == nullptr && b->hash_next == nullptr);
  Buf*& head = hash_buckets_[BucketOf(b->dev, b->blkno)];
  b->hash_next = head;
  if (head != nullptr) {
    head->hash_prev = b;
  }
  head = b;
  b->hashed = true;
}

void BufferCache::HashRemove(Buf* b) {
  if (!b->hashed) {
    return;
  }
  IKDP_KRACE_COMMUTE(this, "BufferCache::hash_buckets_");
  if (b->hash_prev != nullptr) {
    b->hash_prev->hash_next = b->hash_next;
  } else {
    assert(hash_buckets_[BucketOf(b->dev, b->blkno)] == b);
    hash_buckets_[BucketOf(b->dev, b->blkno)] = b->hash_next;
  }
  if (b->hash_next != nullptr) {
    b->hash_next->hash_prev = b->hash_prev;
  }
  b->hash_prev = nullptr;
  b->hash_next = nullptr;
  b->hashed = false;
}

void BufferCache::FreelistPush(Buf* b, bool front) {
  // LRU order is victim-selection order: push/pop sequencing is observable
  // through eviction, so the freelist carries plain WRITE probes.
  IKDP_KRACE_WRITE(this, "BufferCache::freelist");
  assert(!b->on_freelist && b->free_prev == nullptr && b->free_next == nullptr);
  if (front) {
    b->free_next = free_head_;
    if (free_head_ != nullptr) {
      free_head_->free_prev = b;
    } else {
      free_tail_ = b;
    }
    free_head_ = b;
  } else {
    b->free_prev = free_tail_;
    if (free_tail_ != nullptr) {
      free_tail_->free_next = b;
    } else {
      free_head_ = b;
    }
    free_tail_ = b;
  }
  b->on_freelist = true;
  ++free_count_;
  cpu_->Wakeup(&freelist_waiters_chan_);
}

void BufferCache::FreelistRemove(Buf* b) {
  IKDP_KRACE_WRITE(this, "BufferCache::freelist");
  assert(b->on_freelist);
  assert((b->free_prev == nullptr) == (free_head_ == b));
  assert((b->free_next == nullptr) == (free_tail_ == b));
  if (b->free_prev != nullptr) {
    b->free_prev->free_next = b->free_next;
  } else {
    free_head_ = b->free_next;
  }
  if (b->free_next != nullptr) {
    b->free_next->free_prev = b->free_prev;
  } else {
    free_tail_ = b->free_prev;
  }
  b->free_prev = nullptr;
  b->free_next = nullptr;
  b->on_freelist = false;
  --free_count_;
}

Buf* BufferCache::FreelistPop() {
  assert(free_head_ != nullptr);
  Buf* b = free_head_;
  FreelistRemove(b);
  return b;
}

void BufferCache::ValidateInvariants() const {
  int forward = 0;
  const Buf* prev = nullptr;
  for (const Buf* b = free_head_; b != nullptr; b = b->free_next) {
    assert(b->on_freelist);
    assert(b->free_prev == prev);
    assert(!b->Has(kBufBusy));
    prev = b;
    ++forward;
  }
  assert(prev == free_tail_);
  assert(forward == free_count_);
  for (const auto& owned : pool_) {
    const Buf* b = owned.get();
    assert(b->on_freelist == (b->free_prev != nullptr || b->free_next != nullptr ||
                              free_head_ == b));
    if (b->hashed) {
      const Buf* found = nullptr;
      for (const Buf* c = hash_buckets_[BucketOf(b->dev, b->blkno)]; c != nullptr;
           c = c->hash_next) {
        if (c == b) {
          found = c;
        }
      }
      assert(found == b && "hashed buffer missing from its bucket chain");
    } else {
      assert(b->hash_prev == nullptr && b->hash_next == nullptr);
    }
  }
}

Buf* BufferCache::Incore(BlockDevice* dev, int64_t blkno) {
  for (Buf* b = hash_buckets_[BucketOf(dev, blkno)]; b != nullptr; b = b->hash_next) {
    if (b->dev == dev && b->blkno == blkno) {
      return b;
    }
  }
  return nullptr;
}

Buf* BufferCache::TryGrabFree() {
  while (free_head_ != nullptr) {
    Buf* v = FreelistPop();
    if (v->Has(kBufDelwri)) {
      // The LRU victim is dirty: push it to the device asynchronously and
      // keep looking (4.2BSD getblk does the same bawrite-and-retry dance).
      BufStateChecker::OnAcquire(*v);
      v->Set(kBufBusy);
      v->Set(kBufAsync);
      v->Clear(kBufDelwri);
      v->Clear(kBufRead);
      v->Clear(kBufDone);
      v->delwri_victim = true;
      ++pending_writes_[v->dev];
      ++stats_.delwri_flushes;
      lock_.Release();
      if (TraceLog* t = cpu_->trace()) {
        t->Record(cpu_->sim()->Now(), TraceKind::kDelwriFlush, v->blkno, 0, v->dev->Name());
      }
      SubmitIo(v);
      lock_.Acquire();
      continue;
    }
    return v;
  }
  return nullptr;
}

Buf* BufferCache::TryGetBlk(BlockDevice* dev, int64_t blkno, bool* was_hit) {
  *was_hit = false;
  if (Buf* b = Incore(dev, blkno)) {
    if (b->Has(kBufBusy)) {
      return nullptr;
    }
    assert(b->on_freelist);
    BufStateChecker::OnAcquire(*b);
    FreelistRemove(b);
    b->Set(kBufBusy);
    b->Clear(kBufInval);
    b->span = CurrentKspan().span;
    *was_hit = b->Has(kBufDone);
    return b;
  }
  Buf* v = TryGrabFree();
  if (v == nullptr) {
    return nullptr;
  }
  BufStateChecker::OnAcquire(*v);
  HashRemove(v);
  v->dev = dev;
  v->blkno = blkno;
  v->flags = kBufBusy;
  v->error = 0;
  v->delwri_retries = 0;
  v->delwri_victim = false;
  v->bcount = kBlockSize;
  v->splice_owner = nullptr;
  v->logical_blkno = -1;
  v->splice_peer = nullptr;
  // Stamp the acquiring request's span; it rides the disk queue so the
  // completion interrupt can attribute its work (src/sim/kspan.h).
  v->span = CurrentKspan().span;
  v->iodone = nullptr;
  if (v->data.use_count() > 1) {
    // The old data area is still aliased by an in-flight splice header; give
    // this buffer a fresh frame rather than scribbling on shared bytes.
    v->data = MakeBufData();
  }
  HashInsert(v);
  return v;
}

void BufferCache::TraceLookup(bool hit, const BlockDevice* dev, int64_t blkno) {
  if (TraceLog* t = cpu_->trace()) {
    t->Record(cpu_->sim()->Now(), hit ? TraceKind::kBreadHit : TraceKind::kBreadMiss, blkno, 0,
              dev->Name());
  }
}

void BufferCache::SubmitIo(Buf* b) {
  BufStateChecker::OnIoSubmit(*b);
  cpu_->Charge(cpu_->costs().driver_start + b->dev->Strategy(*b));
}

// --- completion ---

void BufferCache::IoDone(Buf* b) {
  BufStateChecker::OnIoDone(*b);
  if (b->Has(kBufCall)) {
    b->Clear(kBufCall);
    b->Set(kBufDone);
    assert(b->iodone && "kBufCall buffer without an iodone hook");
    auto fn = std::move(b->iodone);
    b->iodone = nullptr;
    fn(*b);
    return;
  }
  b->Set(kBufDone);
  if (b->Has(kBufAsync)) {
    if (!b->Has(kBufRead)) {
      lock_.Acquire();
      auto it = pending_writes_.find(b->dev);
      assert(it != pending_writes_.end() && it->second > 0);
      --it->second;
      lock_.Release();
      cpu_->Wakeup(&pending_writes_);
    }
    Brelse(b);  // acquires the cache lock itself
    return;
  }
  cpu_->Wakeup(b);
}

void BufferCache::Brelse(Buf* b) {
  BufStateChecker::OnRelease(*b);
  // The whole release is one critical section: flag transitions, hash
  // removal, and the freelist push must be atomic with respect to a victim
  // scan.  Wakeup only enqueues (never runs the sleeper synchronously), so
  // holding the lock across it is safe.
  SpinGuard g(lock_);
  if (b->delwri_victim) {
    // A delwri push (victim flush or FlushDev) just completed.  On failure
    // the dirty data is still good in memory: re-dirty the buffer so a later
    // victim grab or FlushDev retries the write, instead of the worthless
    // path below silently discarding modified data.  The retry budget bounds
    // livelock against a permanently bad block; past it the loss is
    // accounted explicitly and the mapping invalidated.
    b->delwri_victim = false;
    if (b->Has(kBufError)) {
      ++stats_.delwri_write_errors;
      if (++b->delwri_retries < kDelwriRetryLimit && b->hashed) {
        b->Clear(kBufError);
        b->error = 0;
        b->Set(kBufDelwri);
        b->Set(kBufDone);
      } else {
        ++stats_.delwri_data_lost;
      }
    } else {
      b->delwri_retries = 0;
    }
  }
  if (b->Has(kBufWanted)) {
    b->Clear(kBufWanted);
    cpu_->Wakeup(b);
  }
  b->Clear(kBufBusy);
  b->Clear(kBufAsync);
  b->Clear(kBufRead);
  const bool worthless = b->Has(kBufInval) || b->Has(kBufError) || !b->hashed;
  if (worthless) {
    HashRemove(b);
    b->Clear(kBufDone);
    b->Clear(kBufDelwri);
    b->Clear(kBufError);
    b->error = 0;
    b->delwri_retries = 0;
  }
  FreelistPush(b, /*front=*/worthless);
}

// --- process-context API ---

Task<Buf*> BufferCache::GetBlk(Process& p, BlockDevice* dev, int64_t blkno) {
  co_await cpu_->Use(p, cpu_->costs().bufcache_op);
  for (;;) {
    // Explicit Acquire/Release, not SpinGuard: a guard must never span a
    // suspension point, and this loop sleeps.  The lock is released before
    // every co_await below.
    lock_.Acquire();
    bool hit = false;
    Buf* b = TryGetBlk(dev, blkno, &hit);
    if (b != nullptr) {
      if (hit) {
        ++stats_.hits;
      } else {
        ++stats_.misses;
      }
      lock_.Release();
      TraceLookup(hit, dev, blkno);
      co_await cpu_->PayOwed(p);
      co_return b;
    }
    Buf* busy = Incore(dev, blkno);
    const bool wait_busy = busy != nullptr && busy->Has(kBufBusy);
    if (wait_busy) {
      busy->Set(kBufWanted);
    }
    lock_.Release();
    if (TraceLog* t = cpu_->trace()) {
      t->Record(cpu_->sim()->Now(), TraceKind::kGetblkSleep, p.pid(), blkno, dev->Name());
    }
    if (wait_busy) {
      co_await cpu_->Sleep(p, busy, kPriBio);
    } else {
      co_await cpu_->Sleep(p, &freelist_waiters_chan_, kPriBio);
    }
  }
}

Task<Buf*> BufferCache::Bread(Process& p, BlockDevice* dev, int64_t blkno) {
  Buf* b = co_await GetBlk(p, dev, blkno);
  if (b->Has(kBufDone)) {
    co_return b;
  }
  b->Set(kBufRead);
  SubmitIo(b);
  co_await cpu_->PayOwed(p);
  co_await Biowait(p, b);
  co_return b;
}

void BufferCache::IssueReadAhead(BlockDevice* dev, int64_t blkno) {
  lock_.Acquire();
  if (blkno < 0 || blkno >= dev->CapacityBlocks() || Incore(dev, blkno) != nullptr) {
    lock_.Release();
    return;
  }
  bool hit = false;
  Buf* ra = TryGetBlk(dev, blkno, &hit);
  lock_.Release();
  if (ra == nullptr) {
    return;  // no buffer without sleeping; skip the read-ahead
  }
  if (hit) {
    // Raced into validity; just give it back (Brelse reacquires).
    Brelse(ra);
    return;
  }
  ++stats_.misses;
  TraceLookup(/*hit=*/false, dev, blkno);
  ra->Set(kBufRead);
  ra->Set(kBufAsync);
  SubmitIo(ra);
}

Task<Buf*> BufferCache::Breada(Process& p, BlockDevice* dev, int64_t blkno, int64_t rablkno) {
  // Issue the read-ahead first so the device can coalesce the stream.
  if (rablkno >= 0) {
    IssueReadAhead(dev, rablkno);
  }
  Buf* b = co_await Bread(p, dev, blkno);
  co_return b;
}

Task<> BufferCache::Biowait(Process& p, Buf* b) {
  while (!b->Has(kBufDone)) {
    co_await cpu_->Sleep(p, b, kPriBio);
  }
  // On failure kBufError stays set for the caller to inspect: injected
  // media errors surface here (tests/fault_test.cc) and ride up through
  // read()/write() as short counts or -1.
}

Task<> BufferCache::Bwrite(Process& p, Buf* b) {
  co_await cpu_->Use(p, cpu_->costs().bufcache_op);
  b->Clear(kBufRead);
  b->Clear(kBufDelwri);
  b->Clear(kBufDone);
  b->Clear(kBufAsync);
  SubmitIo(b);
  co_await cpu_->PayOwed(p);
  co_await Biowait(p, b);
  Brelse(b);
}

Task<> BufferCache::Bawrite(Process& p, Buf* b) {
  co_await cpu_->Use(p, cpu_->costs().bufcache_op);
  b->Clear(kBufRead);
  b->Clear(kBufDelwri);
  b->Clear(kBufDone);
  b->Set(kBufAsync);
  lock_.Acquire();
  ++pending_writes_[b->dev];
  lock_.Release();
  SubmitIo(b);
  co_await cpu_->PayOwed(p);
}

void BufferCache::Bdwrite(Process& /*p*/, Buf* b) {
  BufStateChecker::OnDelwri(*b);
  b->Set(kBufDelwri);
  b->Set(kBufDone);
  Brelse(b);
}

Task<> BufferCache::FlushDev(Process& p, BlockDevice* dev) {
  lock_.Acquire();
  ValidateInvariants();
  lock_.Release();
  // Push every idle delayed-write block of this device.  The lock covers
  // each per-buffer claim (flag check through pending-write count) but is
  // dropped for SubmitIo and for the charge suspension.
  for (const auto& owned : pool_) {
    Buf* b = owned.get();
    lock_.Acquire();
    if (b->dev != dev || !b->Has(kBufDelwri) || b->Has(kBufBusy)) {
      lock_.Release();
      continue;
    }
    assert(b->on_freelist);
    BufStateChecker::OnAcquire(*b);
    FreelistRemove(b);
    b->Set(kBufBusy);
    b->Clear(kBufDelwri);
    b->Clear(kBufDone);
    b->Clear(kBufRead);
    b->Set(kBufAsync);
    b->delwri_victim = true;  // route failures through the redirty path
    ++pending_writes_[dev];
    lock_.Release();
    SubmitIo(b);
    co_await cpu_->PayOwed(p);
  }
  while (PendingWrites(dev) > 0) {
    co_await cpu_->Sleep(p, &pending_writes_, kPriBio);
  }
}

void BufferCache::InvalidateDev(BlockDevice* dev) {
  SpinGuard g(lock_);
  for (const auto& owned : pool_) {
    Buf* b = owned.get();
    if (b->dev == dev && !b->Has(kBufBusy) && !b->Has(kBufDelwri) && b->hashed) {
      HashRemove(b);
      b->Clear(kBufDone);
      // Move to the front of the free list: it is the best victim now.
      if (b->on_freelist) {
        FreelistRemove(b);
        FreelistPush(b, /*front=*/true);
      }
    }
  }
  ValidateInvariants();
}

void BufferCache::FlushAllInstant() {
  for (const auto& owned : pool_) {
    Buf* b = owned.get();
    if (b->Has(kBufDelwri) && !b->Has(kBufBusy) && b->data != nullptr) {
      b->dev->PokeBlock(b->blkno, *b->data);
      b->Clear(kBufDelwri);
    }
  }
}

const uint8_t* BufferCache::PeekInstant(BlockDevice* dev, int64_t blkno) const {
  for (const auto& owned : pool_) {
    const Buf* b = owned.get();
    if (b->hashed && b->dev == dev && b->blkno == blkno && b->data != nullptr &&
        (b->Has(kBufDone) || b->Has(kBufDelwri))) {
      return b->data->data();
    }
  }
  return dev->store().Read(blkno);
}

int BufferCache::PendingWrites(BlockDevice* dev) const {
  SpinGuard g(lock_);
  auto it = pending_writes_.find(dev);
  return it == pending_writes_.end() ? 0 : it->second;
}

// --- splice (non-blocking) API ---

bool BufferCache::BreadAsync(BlockDevice* dev, int64_t blkno, std::function<void(Buf&)> iodone) {
  cpu_->ChargeIfInterrupt(cpu_->costs().bufcache_op);
  lock_.Acquire();
  bool hit = false;
  Buf* b = TryGetBlk(dev, blkno, &hit);
  lock_.Release();
  if (b == nullptr) {
    ++stats_.async_read_fails;
    return false;
  }
  TraceLookup(hit, dev, blkno);
  if (hit) {
    ++stats_.hits;
    // Already valid: deliver straight to the handler (unlocked — the
    // handler re-enters the cache heavily), as the paper's modified bread
    // does when the block is cached.
    iodone(*b);
    return true;
  }
  ++stats_.misses;
  b->Set(kBufRead);
  b->Set(kBufCall);
  b->iodone = std::move(iodone);
  SubmitIo(b);
  return true;
}

Buf* BufferCache::AllocTransientHeader(BlockDevice* dev, int64_t blkno) {
  auto owned = std::make_unique<Buf>();
  Buf* b = owned.get();
  lock_.Acquire();
  transients_[b] = std::move(owned);
  lock_.Release();
  b->cache = this;
  b->dev = dev;
  b->blkno = blkno;
  b->flags = kBufBusy;
  b->transient = true;
  b->data = nullptr;  // "avoids allocating any real memory to the buffer"
  ++stats_.transient_allocs;
  cpu_->ChargeIfInterrupt(cpu_->costs().bufcache_op);
  return b;
}

void BufferCache::FreeTransientHeader(Buf* b) {
  assert(b->transient);
  SpinGuard g(lock_);
  auto it = transients_.find(b);
  assert(it != transients_.end());
  transients_.erase(it);
}

void BufferCache::BawriteAsync(Buf* b, std::function<void(Buf&)> iodone) {
  assert(b->Has(kBufBusy));
  cpu_->ChargeIfInterrupt(cpu_->costs().bufcache_op);
  b->Clear(kBufRead);
  b->Clear(kBufDone);
  b->Set(kBufAsync);
  b->Set(kBufCall);
  b->iodone = std::move(iodone);
  SubmitIo(b);
}

}  // namespace ikdp
