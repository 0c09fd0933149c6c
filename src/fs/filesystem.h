// A 4.2BSD-FFS-flavoured filesystem, simplified to what the paper's data
// path exercises.
//
// Files are inodes ("gnodes" in Ultrix terminology) with 12 direct block
// pointers, one single-indirect and one double-indirect block; indirect
// blocks live on the device and travel through the buffer cache, so mapping
// a large file costs real (simulated) I/O when cold.  A flat root directory
// maps names to inodes.  The allocator prefers physically contiguous blocks,
// which is what makes sequential files benefit from the disk models'
// read-ahead caches.
//
// Two bmap flavours exist, as in the paper (Section 5.2.1):
//  * Bmap(..., alloc=true) — stock behaviour: a freshly allocated data block
//    is zero-filled through the cache and scheduled as a delayed write (the
//    overwrite that follows makes this wasted work);
//  * Bmap(..., alloc=true, for_splice=true) — "a special version of bmap()
//    ... which avoids delayed-writes of freshly allocated, zero-filled
//    blocks": the block is allocated and mapped, nothing is written.
//
// Read() implements the 4.2BSD read path: bread the block (with one-block
// read-ahead, breada) and copy to the user buffer, charging copyout per
// block.  Write() implements the delayed-write path: whole-block overwrites
// skip the read (getblk), partial writes read-modify-write, and blocks are
// released with bdwrite.  Fsync() pushes the device's delayed writes and
// waits, matching the cp experiment's write-through setup.

#ifndef SRC_FS_FILESYSTEM_H_
#define SRC_FS_FILESYSTEM_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/buf/buf.h"
#include "src/buf/buffer_cache.h"
#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/sim/task.h"

namespace ikdp {

inline constexpr int kDirectBlocks = 12;
// 8 KB block of 32-bit entries.
inline constexpr int64_t kPtrsPerBlock = kBlockSize / 4;

// Writes a file's bytes [offset, offset + dst.size()) into `dst`.  The
// untimed helpers call it once per block, straight on the device's store.
using BlockFill = std::function<void(int64_t offset, std::span<uint8_t> dst)>;

// A per-byte fill: byte i of the file is fill(i).
template <typename F>
concept ByteFill = std::is_invocable_r_v<uint8_t, F&, int64_t>;

// Adapts a per-byte fill to a BlockFill; the byte call inlines into the
// block loop.
template <ByteFill F>
BlockFill Bytewise(F byte) {
  return [byte = std::move(byte)](int64_t offset, std::span<uint8_t> dst) mutable {
    for (size_t i = 0; i < dst.size(); ++i) {
      dst[i] = static_cast<uint8_t>(byte(offset + static_cast<int64_t>(i)));
    }
  };
}

struct Inode {
  int64_t ino = -1;
  int64_t size = 0;
  std::array<int64_t, kDirectBlocks> direct{};  // 0 = unallocated
  int64_t indirect = 0;                         // single-indirect block
  int64_t dindirect = 0;                        // double-indirect block

  int64_t SizeBlocks() const { return (size + kBlockSize - 1) / kBlockSize; }
};

class FileSystem {
 public:
  // Mounts on `dev`, using `cache` for all block I/O.  Data blocks start
  // after a small metadata reserve.
  FileSystem(CpuSystem* cpu, BufferCache* cache, BlockDevice* dev, std::string name);

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  BlockDevice* dev() { return dev_; }
  BufferCache* cache() { return cache_; }
  const std::string& name() const { return name_; }

  // --- directory operations (in-memory metadata, small CPU charge) ---

  // Creates an empty file.  Returns nullptr if the name exists.
  Inode* Create(const std::string& fname);
  Inode* Lookup(const std::string& fname);
  // Frees the file's blocks and directory entry.
  bool Remove(const std::string& fname);

  // Frees the file's blocks and resets its size to zero (open O_TRUNC).
  // Callers are responsible for not holding cached buffers of the freed
  // blocks across reallocation (flush or use fresh names in experiments).
  void Truncate(Inode* ip) { FreeInodeBlocks(ip); }

  // --- block mapping ---

  // Maps logical block `lbn` of `ip` to a physical block number, reading
  // indirect blocks through the cache.  Returns 0 if unmapped and !alloc,
  // and -1 if an indirect block could not be read (or written back) off the
  // device — an unreadable map must never be mistaken for a hole, and with
  // alloc it must not be overwritten with freshly scribbled pointers.
  // With alloc, allocates data (and indirect) blocks; stock allocation
  // zero-fills fresh data blocks via delayed writes unless `for_splice`.
  IKDP_CTX_PROCESS Task<int64_t> Bmap(Process& p, Inode* ip, int64_t lbn, bool alloc,
                                      bool for_splice = false);

  // Maps blocks [0, nblocks) of `ip`, allocating as needed; the splice setup
  // path ("the entire list of all physical block numbers comprising the
  // source file is determined by successive calls to bmap()").
  IKDP_CTX_PROCESS Task<std::vector<int64_t>> MapRange(Process& p, Inode* ip, int64_t nblocks,
                                                       bool alloc, bool for_splice);

  // --- the read()/write() data path ---

  // Reads up to `n` bytes at `off` into `out` (resized to what was read).
  // Charges copyout per block moved.
  IKDP_CTX_PROCESS Task<int64_t> Read(Process& p, Inode* ip, int64_t off, int64_t n,
                                      std::vector<uint8_t>* out);

  // Writes `n` bytes at `off`, extending the file; delayed writes.  Charges
  // copyin per block moved.
  IKDP_CTX_PROCESS Task<int64_t> Write(Process& p, Inode* ip, int64_t off, const uint8_t* data,
                                       int64_t n);

  // Flushes delayed writes for this filesystem's device and waits.
  IKDP_CTX_PROCESS Task<> Fsync(Process& p, Inode* ip);

  // --- untimed helpers for experiment setup and verification ---

  // Creates `fname` of `nbytes` with the contents `fill` writes, straight
  // into the device's store block by block (no simulated time); the tail of
  // the last block past `nbytes` is zero.  Returns nullptr, leaving no trace
  // of the file, if the name exists or the device fills.
  Inode* CreateFileInstant(const std::string& fname, int64_t nbytes, const BlockFill& fill);
  template <ByteFill F>
  Inode* CreateFileInstant(const std::string& fname, int64_t nbytes, F fill) {
    return CreateFileInstant(fname, nbytes, Bytewise(std::move(fill)));
  }

  // True if the file's bytes on the device are exactly what `expected`
  // writes, compared block by block in place (no simulated time), bypassing
  // the cache; pair with BufferCache::FlushAllInstant.
  bool VerifyFileInstant(Inode* ip, const BlockFill& expected);
  template <ByteFill F>
  bool VerifyFileInstant(Inode* ip, F expected) {
    return VerifyFileInstant(ip, Bytewise(std::move(expected)));
  }

  // Reads the whole file straight from the device (no simulated time),
  // bypassing the cache.
  std::vector<uint8_t> ReadFileInstant(Inode* ip);

  // Sequential read-ahead depth in blocks (4.2BSD reads one block ahead;
  // the paper's future work contemplates deeper buffering strategies —
  // swept by bench/ablate_readahead).  0 disables read-ahead.
  void set_read_ahead_blocks(int n) { read_ahead_blocks_ = n; }
  int read_ahead_blocks() const { return read_ahead_blocks_; }

  int64_t FreeBlocks() const { return free_blocks_; }
  int64_t TotalDataBlocks() const { return total_blocks_ - first_data_block_; }

  struct Stats {
    uint64_t bmap_calls = 0;
    uint64_t indirect_reads = 0;
    uint64_t blocks_allocated = 0;
    uint64_t zero_fill_writes = 0;  // stock-bmap zero-fill delayed writes
  };
  const Stats& stats() const { return stats_; }

 private:
  // Allocates a physical block near the allocation cursor.  Returns 0 when
  // the device is full.
  int64_t AllocBlock();
  void FreeBlock(int64_t pbn);
  // Frees every block of `ip`.  Pointer blocks are read untimed through the
  // cache (BufferCache::PeekInstant), so entries still held in a delayed
  // write are freed too.
  void FreeInodeBlocks(Inode* ip);

  // Reads/writes a 32-bit entry in an on-device indirect block, through the
  // cache.  ReadPtr returns -1 if the block read errored; WritePtr returns
  // false (storing nothing) if it did — updating one pointer in a block
  // whose other pointers never arrived would corrupt the map.
  IKDP_CTX_PROCESS Task<int64_t> ReadPtr(Process& p, int64_t pbn, int64_t index);
  IKDP_CTX_PROCESS Task<bool> WritePtr(Process& p, int64_t pbn, int64_t index, int64_t value);

  // Zero-fills a freshly allocated data block as a delayed write (the stock
  // bmap behaviour splice's special bmap avoids).
  IKDP_CTX_PROCESS Task<> ZeroFill(Process& p, int64_t pbn);

  // Untimed physical-block mapper used by the Instant helpers: reads and
  // writes pointer blocks in place on the device's store.
  int64_t BmapInstant(Inode* ip, int64_t lbn, bool alloc);
  // Logical block `lbn` of `ip` on the store, read-only (zeros for a hole).
  const uint8_t* BlockInstant(Inode* ip, int64_t lbn);

  CpuSystem* cpu_;
  BufferCache* cache_;
  BlockDevice* dev_;
  std::string name_;

  int64_t total_blocks_;
  int64_t first_data_block_;
  std::vector<bool> used_;
  int64_t free_blocks_;
  int64_t alloc_cursor_;

  int read_ahead_blocks_ = 1;
  std::map<std::string, int64_t> root_dir_;
  std::vector<std::unique_ptr<Inode>> inodes_;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_FS_FILESYSTEM_H_
