// The buffer header, modelled on the 4.2BSD `struct buf` ([LMK89] ch. 7).
//
// A Buf describes one block-sized I/O in flight or cached: which device and
// physical block it maps, status flags, the data area, and the completion
// hook (`b_iodone`, invoked by biodone() when B_CALL is set) that the splice
// implementation uses to chain reads into writes without a process context.
//
// The paper adds two fields to the stock header (Section 5.2.3): the splice
// descriptor the buffer belongs to and the logical block number its data
// corresponds to, so several buffers can be in flight simultaneously and
// complete out of order.  Those fields appear here as `splice_owner` /
// `logical_blkno`, plus `splice_peer` for the write side to find the
// source-side buffer it aliases.

#ifndef SRC_BUF_BUF_H_
#define SRC_BUF_BUF_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/buf/block_store.h"
#include "src/kern/ctx.h"
#include "src/kern/kernel_context.h"
#include "src/sim/kspan.h"
#include "src/sim/time.h"

namespace ikdp {

// A block's data area.  shared_ptr so a splice write-side header can alias
// the read-side buffer's data without copying (the paper's key zero-copy
// step: "both buffers share a common data area").
using BufData = std::shared_ptr<std::vector<uint8_t>>;

inline BufData MakeBufData() {
  return std::make_shared<std::vector<uint8_t>>(kBlockSize, 0);
}

// Buffer status flags (names follow 4.2BSD).
enum BufFlags : uint32_t {
  kBufBusy = 1u << 0,    // B_BUSY: owned by someone, not on the free list
  kBufDone = 1u << 1,    // B_DONE: contains valid data / I/O completed
  kBufDelwri = 1u << 2,  // B_DELWRI: dirty, write deferred
  kBufRead = 1u << 3,    // B_READ: current operation is a read
  kBufAsync = 1u << 4,   // B_ASYNC: release on completion, nobody waits
  kBufCall = 1u << 5,    // B_CALL: invoke b_iodone at completion
  kBufInval = 1u << 6,   // B_INVAL: contents invalid, reuse first
  kBufError = 1u << 7,   // B_ERROR: I/O failed
  kBufWanted = 1u << 8,  // B_WANTED: someone sleeps on this buffer
};

class BlockDevice;
class BufferCache;

struct Buf {
  BufferCache* cache = nullptr;  // owning cache (null for transient headers)
  BlockDevice* dev = nullptr;
  int64_t blkno = -1;  // physical block number on `dev`
  // Status flags cross every context: the process path sets kBufBusy, the
  // interrupt path (biodone) sets kBufDone, the softclock write side sets
  // kBufAsync|kBufCall.  Has/Set/Clear below carry the krace access probes.
  uint32_t flags IKDP_GUARDED_BY(any) = 0;
  // Errno of the failed I/O when kBufError is set (b_error in 4.2BSD);
  // written by the driver's completion interrupt just before Biodone, read
  // by whoever inspects kBufError.  0 when no error is pending.
  int error IKDP_GUARDED_BY(any) = 0;
  // Times a delwri victim write for this block has failed on media; bounds
  // the redirty-and-retry loop in Brelse (see BufferCache::Stats).
  int delwri_retries = 0;
  int64_t bcount = kBlockSize;  // bytes valid in this transfer
  BufData data;                 // may alias another buffer's data

  // Completion hook, run by biodone() when kBufCall is set.
  std::function<void(Buf&)> iodone;

  // --- splice extensions (paper Section 5.2.3) ---
  // Written at splice setup (process or interrupt context, whichever issues
  // the read) and consumed by the interrupt/softclock completion chain.
  void* splice_owner IKDP_GUARDED_BY(any) = nullptr;
  int64_t logical_blkno IKDP_GUARDED_BY(any) = -1;
  Buf* splice_peer IKDP_GUARDED_BY(any) = nullptr;

  // The kspan riding this I/O (src/sim/kspan.h): stamped from the cursor
  // when the buffer is acquired (getblk) and carried through the disk queue
  // so the completion interrupt attributes its work to the request that
  // issued the transfer.  Written by the acquiring context, read by the
  // driver and its completion interrupt — same contexts that own the flags.
  SpanId span IKDP_GUARDED_BY(any) = kNoSpan;

  // --- cache bookkeeping (BufferCache internal) ---
  //
  // Intrusive links, 4.2BSD-style (av_forw/av_back and b_forw/b_back): the
  // buffer is its own list node, so moving it between the LRU free list and
  // a hash chain is O(1) with no allocation.
  Buf* free_prev = nullptr;  // LRU free list (null when !on_freelist)
  Buf* free_next = nullptr;
  Buf* hash_prev = nullptr;  // per-bucket hash chain (null when !hashed)
  Buf* hash_next = nullptr;
  bool hashed = false;
  bool on_freelist = false;
  bool transient = false;      // header-only buffer outside the cache pool
  bool delwri_victim = false;  // in-flight delwri push (victim reuse/FlushDev)

  bool Has(BufFlags f) const {
    IKDP_KRACE_READ(this, "Buf::flags");
    return (flags & f) != 0;
  }
  void Set(BufFlags f) {
    IKDP_KRACE_WRITE(this, "Buf::flags");
    flags |= f;
  }
  void Clear(BufFlags f) {
    IKDP_KRACE_WRITE(this, "Buf::flags");
    flags &= ~static_cast<uint32_t>(f);
  }
};

// Marks the I/O on `b` complete, 4.2BSD biodone() semantics:
//  * kBufCall: clear it and invoke b->iodone (splice handlers run here);
//  * else kBufAsync: release the buffer back to its cache;
//  * else: set kBufDone and wake any biowait() sleeper.
// Device drivers call this when a transfer finishes.
IKDP_CTX_ANY void Biodone(Buf& b);

// A block device as the buffer cache sees it: a strategy routine that
// services one buffer and eventually calls Biodone(), plus a capacity and
// the device's contents, a BlockStore.
//
// Strategy() returns the CPU time the *caller's context* must be charged for
// issuing (and, for synchronous devices like the RAM disk, performing) the
// transfer.  DMA devices return only their setup cost; the RAM disk returns
// the full bcopy time, because its "transfer" is a memory copy executed by
// the CPU in whoever's context submitted it (paper Section 6.1).
class BlockDevice {
 public:
  explicit BlockDevice(int64_t capacity_blocks) : store_(capacity_blocks) {}
  virtual ~BlockDevice() = default;

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  // Begins servicing `b` (direction per kBufRead).  Completion is signalled
  // via Biodone(b), possibly synchronously before Strategy returns.
  // Interrupt-safe: the splice read path submits from completion handlers.
  IKDP_CTX_ANY virtual SimDuration Strategy(Buf& b) = 0;

  virtual const char* Name() const = 0;

  // Device size in kBlockSize blocks.
  int64_t CapacityBlocks() const { return store_.size(); }

  // Untimed content access, used for experiment setup (pre-creating files
  // without simulating the writes) and end-to-end verification.  store()
  // works in place; PokeBlock/PeekBlock copy one block in or out (a short
  // `data` is zero-padded to the block).
  BlockStore& store() { return store_; }
  const BlockStore& store() const { return store_; }
  void PokeBlock(int64_t blkno, const std::vector<uint8_t>& data);
  std::vector<uint8_t> PeekBlock(int64_t blkno) const;

 protected:
  // Moves `b`'s bcount bytes when the driver completes it: a read fills the
  // buffer's data area from the store, a write persists it.  Untimed; the
  // driver charges whatever the transfer costs.
  void MoveContent(Buf& b, bool is_read);

 private:
  BlockStore store_;
};

}  // namespace ikdp

#endif  // SRC_BUF_BUF_H_
