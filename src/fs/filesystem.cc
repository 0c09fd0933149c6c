#include "src/fs/filesystem.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace ikdp {

namespace {

// Indirect-block entries are 32-bit little-endian physical block numbers.
int64_t LoadPtr(const uint8_t* block, int64_t index) {
  uint32_t v = 0;
  std::memcpy(&v, block + index * 4, 4);
  return static_cast<int64_t>(v);
}

void StorePtr(uint8_t* block, int64_t index, int64_t value) {
  const uint32_t v = static_cast<uint32_t>(value);
  std::memcpy(block + index * 4, &v, 4);
}

}  // namespace

FileSystem::FileSystem(CpuSystem* cpu, BufferCache* cache, BlockDevice* dev, std::string name)
    : cpu_(cpu),
      cache_(cache),
      dev_(dev),
      name_(std::move(name)),
      total_blocks_(dev->CapacityBlocks()),
      first_data_block_(16),
      used_(static_cast<size_t>(total_blocks_), false),
      free_blocks_(total_blocks_ - first_data_block_),
      alloc_cursor_(first_data_block_) {
  assert(total_blocks_ > first_data_block_);
  for (int64_t i = 0; i < first_data_block_; ++i) {
    used_[static_cast<size_t>(i)] = true;
  }
}

// --- allocation ---

int64_t FileSystem::AllocBlock() {
  if (free_blocks_ == 0) {
    return 0;
  }
  int64_t pbn = alloc_cursor_;
  for (int64_t scanned = 0; scanned < total_blocks_; ++scanned) {
    if (pbn >= total_blocks_) {
      pbn = first_data_block_;
    }
    if (!used_[static_cast<size_t>(pbn)]) {
      used_[static_cast<size_t>(pbn)] = true;
      --free_blocks_;
      alloc_cursor_ = pbn + 1;
      ++stats_.blocks_allocated;
      return pbn;
    }
    ++pbn;
  }
  return 0;
}

void FileSystem::FreeBlock(int64_t pbn) {
  if (pbn < first_data_block_ || pbn >= total_blocks_) {
    return;
  }
  assert(used_[static_cast<size_t>(pbn)]);
  used_[static_cast<size_t>(pbn)] = false;
  ++free_blocks_;
}

void FileSystem::FreeInodeBlocks(Inode* ip) {
  for (int64_t pbn : ip->direct) {
    if (pbn != 0) {
      FreeBlock(pbn);
    }
  }
  auto free_indirect = [this](int64_t ind) {
    if (ind == 0) {
      return;
    }
    const uint8_t* blk = cache_->PeekInstant(dev_, ind);
    for (int64_t i = 0; i < kPtrsPerBlock; ++i) {
      const int64_t pbn = LoadPtr(blk, i);
      if (pbn != 0) {
        FreeBlock(pbn);
      }
    }
    FreeBlock(ind);
  };
  if (ip->dindirect != 0) {
    const uint8_t* blk = cache_->PeekInstant(dev_, ip->dindirect);
    for (int64_t i = 0; i < kPtrsPerBlock; ++i) {
      free_indirect(LoadPtr(blk, i));
    }
    FreeBlock(ip->dindirect);
  }
  free_indirect(ip->indirect);
  ip->direct.fill(0);
  ip->indirect = 0;
  ip->dindirect = 0;
  ip->size = 0;
}

// --- directory ---

Inode* FileSystem::Create(const std::string& fname) {
  if (root_dir_.count(fname) > 0) {
    return nullptr;
  }
  auto ip = std::make_unique<Inode>();
  ip->ino = static_cast<int64_t>(inodes_.size());
  Inode* out = ip.get();
  inodes_.push_back(std::move(ip));
  root_dir_[fname] = out->ino;
  return out;
}

Inode* FileSystem::Lookup(const std::string& fname) {
  auto it = root_dir_.find(fname);
  if (it == root_dir_.end()) {
    return nullptr;
  }
  return inodes_[static_cast<size_t>(it->second)].get();
}

bool FileSystem::Remove(const std::string& fname) {
  auto it = root_dir_.find(fname);
  if (it == root_dir_.end()) {
    return false;
  }
  FreeInodeBlocks(inodes_[static_cast<size_t>(it->second)].get());
  root_dir_.erase(it);
  return true;
}

// --- indirect-block access through the cache ---

Task<int64_t> FileSystem::ReadPtr(Process& p, int64_t pbn, int64_t index) {
  ++stats_.indirect_reads;
  Buf* b = co_await cache_->Bread(p, dev_, pbn);
  if (b->Has(kBufError)) {
    cache_->Brelse(b);
    co_return -1;  // unreadable indirect block, not a hole
  }
  const int64_t value = LoadPtr(b->data->data(), index);
  cache_->Brelse(b);
  co_return value;
}

Task<bool> FileSystem::WritePtr(Process& p, int64_t pbn, int64_t index, int64_t value) {
  Buf* b = co_await cache_->Bread(p, dev_, pbn);
  if (b->Has(kBufError)) {
    cache_->Brelse(b);
    co_return false;
  }
  StorePtr(b->data->data(), index, value);
  cache_->Bdwrite(p, b);
  co_return true;
}

Task<> FileSystem::ZeroFill(Process& p, int64_t pbn) {
  ++stats_.zero_fill_writes;
  Buf* b = co_await cache_->GetBlk(p, dev_, pbn);
  std::fill(b->data->begin(), b->data->end(), 0);
  co_await cpu_->Use(p, cpu_->costs().BcopyTime(kBlockSize));
  cache_->Bdwrite(p, b);
}

// --- bmap ---

Task<int64_t> FileSystem::Bmap(Process& p, Inode* ip, int64_t lbn, bool alloc, bool for_splice) {
  ++stats_.bmap_calls;
  co_await cpu_->Use(p, cpu_->costs().bmap_op);
  assert(lbn >= 0);

  if (lbn < kDirectBlocks) {
    int64_t pbn = ip->direct[static_cast<size_t>(lbn)];
    if (pbn == 0 && alloc) {
      pbn = AllocBlock();
      ip->direct[static_cast<size_t>(lbn)] = pbn;
      if (pbn != 0 && !for_splice) {
        co_await ZeroFill(p, pbn);
      }
    }
    co_return pbn;
  }

  int64_t rest = lbn - kDirectBlocks;
  if (rest < kPtrsPerBlock) {
    if (ip->indirect == 0) {
      if (!alloc) {
        co_return 0;
      }
      ip->indirect = AllocBlock();
      if (ip->indirect == 0) {
        co_return 0;
      }
      // Fresh metadata block: initialize to zero through the cache.
      Buf* b = co_await cache_->GetBlk(p, dev_, ip->indirect);
      std::fill(b->data->begin(), b->data->end(), 0);
      cache_->Bdwrite(p, b);
    }
    int64_t pbn = co_await ReadPtr(p, ip->indirect, rest);
    if (pbn < 0) {
      co_return -1;
    }
    if (pbn == 0 && alloc) {
      pbn = AllocBlock();
      if (pbn != 0) {
        if (!co_await WritePtr(p, ip->indirect, rest, pbn)) {
          FreeBlock(pbn);
          co_return -1;
        }
        if (!for_splice) {
          co_await ZeroFill(p, pbn);
        }
      }
    }
    co_return pbn;
  }

  rest -= kPtrsPerBlock;
  const int64_t outer = rest / kPtrsPerBlock;
  const int64_t inner = rest % kPtrsPerBlock;
  if (outer >= kPtrsPerBlock) {
    co_return 0;  // beyond double-indirect reach (> ~128 GB); not supported
  }
  if (ip->dindirect == 0) {
    if (!alloc) {
      co_return 0;
    }
    ip->dindirect = AllocBlock();
    if (ip->dindirect == 0) {
      co_return 0;
    }
    Buf* b = co_await cache_->GetBlk(p, dev_, ip->dindirect);
    std::fill(b->data->begin(), b->data->end(), 0);
    cache_->Bdwrite(p, b);
  }
  int64_t mid = co_await ReadPtr(p, ip->dindirect, outer);
  if (mid < 0) {
    co_return -1;
  }
  if (mid == 0) {
    if (!alloc) {
      co_return 0;
    }
    mid = AllocBlock();
    if (mid == 0) {
      co_return 0;
    }
    Buf* b = co_await cache_->GetBlk(p, dev_, mid);
    std::fill(b->data->begin(), b->data->end(), 0);
    cache_->Bdwrite(p, b);
    if (!co_await WritePtr(p, ip->dindirect, outer, mid)) {
      FreeBlock(mid);
      co_return -1;
    }
  }
  int64_t pbn = co_await ReadPtr(p, mid, inner);
  if (pbn < 0) {
    co_return -1;
  }
  if (pbn == 0 && alloc) {
    pbn = AllocBlock();
    if (pbn != 0) {
      if (!co_await WritePtr(p, mid, inner, pbn)) {
        FreeBlock(pbn);
        co_return -1;
      }
      if (!for_splice) {
        co_await ZeroFill(p, pbn);
      }
    }
  }
  co_return pbn;
}

Task<std::vector<int64_t>> FileSystem::MapRange(Process& p, Inode* ip, int64_t nblocks,
                                                bool alloc, bool for_splice) {
  std::vector<int64_t> map;
  map.reserve(static_cast<size_t>(nblocks));
  for (int64_t lbn = 0; lbn < nblocks; ++lbn) {
    map.push_back(co_await Bmap(p, ip, lbn, alloc, for_splice));
  }
  co_return map;
}

// --- read / write data path ---

Task<int64_t> FileSystem::Read(Process& p, Inode* ip, int64_t off, int64_t n,
                               std::vector<uint8_t>* out) {
  out->clear();
  if (off >= ip->size || n <= 0) {
    co_return 0;
  }
  n = std::min(n, ip->size - off);
  out->reserve(static_cast<size_t>(n));
  int64_t done = 0;
  while (done < n) {
    const int64_t pos = off + done;
    const int64_t lbn = pos / kBlockSize;
    const int64_t boff = pos % kBlockSize;
    const int64_t chunk = std::min(n - done, kBlockSize - boff);
    const int64_t pbn = co_await Bmap(p, ip, lbn, /*alloc=*/false);
    if (pbn < 0) {
      co_return done > 0 ? done : -1;  // unreadable block map
    }
    if (pbn == 0) {
      out->insert(out->end(), static_cast<size_t>(chunk), 0);  // hole
    } else {
      // Sequential read-ahead: 4.2BSD issues one block; deeper depths are a
      // configurable extension (each read-ahead costs a bmap in-line, the
      // classic trade the paper's future work contemplates).
      for (int ra = 1; ra <= read_ahead_blocks_; ++ra) {
        if ((lbn + ra) * kBlockSize >= ip->size) {
          break;
        }
        const int64_t rapbn = co_await Bmap(p, ip, lbn + ra, /*alloc=*/false);
        if (rapbn <= 0) {
          break;
        }
        cache_->IssueReadAhead(dev_, rapbn);
      }
      Buf* b = co_await cache_->Bread(p, dev_, pbn);
      if (b->Has(kBufError)) {
        cache_->Brelse(b);
        co_return done > 0 ? done : -1;  // short read, or EIO
      }
      out->insert(out->end(), b->data->begin() + boff, b->data->begin() + boff + chunk);
      cache_->Brelse(b);
    }
    // copyout to the user buffer.
    co_await cpu_->Use(p, cpu_->costs().CopyioTime(chunk));
    done += chunk;
  }
  co_return done;
}

Task<int64_t> FileSystem::Write(Process& p, Inode* ip, int64_t off, const uint8_t* data,
                                int64_t n) {
  if (n <= 0) {
    co_return 0;
  }
  int64_t done = 0;
  while (done < n) {
    const int64_t pos = off + done;
    const int64_t lbn = pos / kBlockSize;
    const int64_t boff = pos % kBlockSize;
    const int64_t chunk = std::min(n - done, kBlockSize - boff);
    const bool whole_block = boff == 0 && chunk == kBlockSize;
    // The write path zero-fills partial fresh blocks in memory itself, so it
    // always uses the no-zero-fill allocation.
    const int64_t pbn = co_await Bmap(p, ip, lbn, /*alloc=*/true, /*for_splice=*/true);
    if (pbn < 0) {
      co_return done > 0 ? done : -1;  // unreadable block map
    }
    if (pbn == 0) {
      break;  // device full
    }
    Buf* b;
    if (whole_block) {
      b = co_await cache_->GetBlk(p, dev_, pbn);
    } else {
      const bool covers_existing = lbn < ip->SizeBlocks();
      if (covers_existing) {
        b = co_await cache_->Bread(p, dev_, pbn);
        if (b->Has(kBufError)) {
          cache_->Brelse(b);
          co_return done > 0 ? done : -1;
        }
      } else {
        b = co_await cache_->GetBlk(p, dev_, pbn);
        std::fill(b->data->begin(), b->data->end(), 0);
      }
    }
    std::copy(data + done, data + done + chunk, b->data->begin() + boff);
    // copyin from the user buffer.
    co_await cpu_->Use(p, cpu_->costs().CopyioTime(chunk));
    cache_->Bdwrite(p, b);
    done += chunk;
    ip->size = std::max(ip->size, pos + chunk);
  }
  co_return done;
}

Task<> FileSystem::Fsync(Process& p, Inode* /*ip*/) {
  co_await cache_->FlushDev(p, dev_);
}

// --- untimed helpers ---

int64_t FileSystem::BmapInstant(Inode* ip, int64_t lbn, bool alloc) {
  BlockStore& store = dev_->store();
  // With alloc, a hole is filled by a fresh block; a fresh pointer block
  // starts out all zeros.
  auto fresh = [&](bool ptr_block) -> int64_t {
    const int64_t pbn = alloc ? AllocBlock() : 0;
    if (pbn != 0 && ptr_block) {
      store.Clear(pbn);
    }
    return pbn;
  };
  // Follows a pointer held in the inode.
  auto in_inode = [&](int64_t* slot, bool ptr_block) -> int64_t {
    if (*slot == 0) {
      *slot = fresh(ptr_block);
    }
    return *slot;
  };
  // Follows entry `index` of pointer block `blk`, in place on the store.
  auto in_block = [&](int64_t blk, int64_t index, bool ptr_block) -> int64_t {
    int64_t pbn = LoadPtr(store.Read(blk), index);
    if (pbn == 0 && (pbn = fresh(ptr_block)) != 0) {
      StorePtr(store.Write(blk), index, pbn);
    }
    return pbn;
  };
  if (lbn < kDirectBlocks) {
    return in_inode(&ip->direct[static_cast<size_t>(lbn)], /*ptr_block=*/false);
  }
  int64_t rest = lbn - kDirectBlocks;
  if (rest < kPtrsPerBlock) {
    const int64_t ind = in_inode(&ip->indirect, /*ptr_block=*/true);
    return ind == 0 ? 0 : in_block(ind, rest, /*ptr_block=*/false);
  }
  rest -= kPtrsPerBlock;
  const int64_t outer = rest / kPtrsPerBlock;
  const int64_t inner = rest % kPtrsPerBlock;
  if (outer >= kPtrsPerBlock) {
    return 0;
  }
  const int64_t dind = in_inode(&ip->dindirect, /*ptr_block=*/true);
  const int64_t mid = dind == 0 ? 0 : in_block(dind, outer, /*ptr_block=*/true);
  return mid == 0 ? 0 : in_block(mid, inner, /*ptr_block=*/false);
}

const uint8_t* FileSystem::BlockInstant(Inode* ip, int64_t lbn) {
  const int64_t pbn = BmapInstant(ip, lbn, /*alloc=*/false);
  return pbn == 0 ? kZeroBlock.data() : dev_->store().Read(pbn);
}

Inode* FileSystem::CreateFileInstant(const std::string& fname, int64_t nbytes,
                                     const BlockFill& fill) {
  Inode* ip = Create(fname);
  if (ip == nullptr) {
    return nullptr;
  }
  const int64_t nblocks = (nbytes + kBlockSize - 1) / kBlockSize;
  for (int64_t lbn = 0; lbn < nblocks; ++lbn) {
    const int64_t pbn = BmapInstant(ip, lbn, /*alloc=*/true);
    if (pbn == 0) {
      Remove(fname);  // device full: undo the partial file
      return nullptr;
    }
    const int64_t base = lbn * kBlockSize;
    const int64_t valid = std::min<int64_t>(kBlockSize, nbytes - base);
    uint8_t* blk = dev_->store().Write(pbn);
    fill(base, std::span<uint8_t>(blk, static_cast<size_t>(valid)));
    std::fill(blk + valid, blk + kBlockSize, 0);
  }
  ip->size = nbytes;
  return ip;
}

bool FileSystem::VerifyFileInstant(Inode* ip, const BlockFill& expected) {
  std::vector<uint8_t> want(kBlockSize);
  const int64_t nblocks = ip->SizeBlocks();
  for (int64_t lbn = 0; lbn < nblocks; ++lbn) {
    const int64_t base = lbn * kBlockSize;
    const size_t valid = static_cast<size_t>(std::min<int64_t>(kBlockSize, ip->size - base));
    expected(base, std::span<uint8_t>(want.data(), valid));
    if (std::memcmp(BlockInstant(ip, lbn), want.data(), valid) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> FileSystem::ReadFileInstant(Inode* ip) {
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(ip->size));
  const int64_t nblocks = ip->SizeBlocks();
  for (int64_t lbn = 0; lbn < nblocks; ++lbn) {
    const int64_t valid = std::min<int64_t>(kBlockSize, ip->size - lbn * kBlockSize);
    const uint8_t* blk = BlockInstant(ip, lbn);
    out.insert(out.end(), blk, blk + valid);
  }
  return out;
}

}  // namespace ikdp
