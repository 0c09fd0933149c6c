// The contents of a block device: one slot per kBlockSize block, indexed by
// block number.
//
// Host storage is materialized per block, the first time a block is
// written.  A block never written reads as zeros from one shared, read-only
// zero block and holds no memory, so a 16 MB RAM disk that a copy fills
// halfway costs half its size, and building a machine touches nothing.
// Both block drivers keep their content here; the untimed helpers of the
// filesystem (FileSystem::*Instant) read and write blocks in place through
// Read/Write instead of copying whole blocks in and out.

#ifndef SRC_BUF_BLOCK_STORE_H_
#define SRC_BUF_BLOCK_STORE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace ikdp {

// The filesystem block size used throughout (4.2BSD FFS default).
inline constexpr int64_t kBlockSize = 8192;

// What every never-written block reads as.
inline constexpr std::array<uint8_t, kBlockSize> kZeroBlock{};

class BlockStore {
 public:
  explicit BlockStore(int64_t nblocks) : blocks_(static_cast<size_t>(nblocks)) {}

  int64_t size() const { return static_cast<int64_t>(blocks_.size()); }

  // The block's kBlockSize bytes, read-only; kZeroBlock if never written.
  const uint8_t* Read(int64_t blkno) const {
    const std::unique_ptr<uint8_t[]>& blk = blocks_[Index(blkno)];
    return blk != nullptr ? blk.get() : kZeroBlock.data();
  }

  // The block's kBlockSize bytes, writable in place; a block written for
  // the first time is materialized zero-filled.
  uint8_t* Write(int64_t blkno) {
    std::unique_ptr<uint8_t[]>& blk = blocks_[Index(blkno)];
    if (blk == nullptr) {
      blk = std::make_unique<uint8_t[]>(kBlockSize);
    }
    return blk.get();
  }

  // Returns the block to all-zeros and releases its storage.
  void Clear(int64_t blkno) { blocks_[Index(blkno)].reset(); }

  // Blocks holding host memory.
  int64_t materialized_blocks() const {
    return std::count_if(blocks_.begin(), blocks_.end(),
                         [](const std::unique_ptr<uint8_t[]>& blk) { return blk != nullptr; });
  }

 private:
  size_t Index(int64_t blkno) const {
    assert(blkno >= 0 && blkno < size());
    return static_cast<size_t>(blkno);
  }

  std::vector<std::unique_ptr<uint8_t[]>> blocks_;
};

}  // namespace ikdp

#endif  // SRC_BUF_BLOCK_STORE_H_
