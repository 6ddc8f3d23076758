// Bucket-level copy-on-write representation of the anonymized population
// feature store (paper §IV-A3).
//
// The store sits on the hot path of every enrollment and drift retrain: the
// serving gateway's ShardedPopulationStore has to hand trainers one immutable
// merged map, and before this layer existed a rebuild deep-copied every
// stored vector (O(total) per rebuild — quadratic for per-enroll
// contribution patterns). The fix is structural sharing at block
// granularity:
//
//   StoredVector      one anonymized feature vector + contributor token
//   VectorBlock       an immutable run of StoredVectors — one contribute()
//                     call's payload for one (context, contributor). Shared
//                     via shared_ptr; NEVER copied or mutated once built.
//   PopulationBucket  one context's ordered sequence of blocks. Holds a
//                     copy-on-write pointer list: copying a bucket shares
//                     the list (O(1)); the first append to a shared bucket
//                     clones the pointer vector, never the blocks.
//   PopulationStore   context -> bucket map with the std::map surface the
//                     training/codec layers always used (find/at/begin/end).
//
// Rebuilding a merged snapshot therefore moves shared_ptrs around instead of
// vectors of doubles: a bucket untouched since the last snapshot is reused
// wholesale (one pointer copy), a touched bucket re-concatenates block
// pointers, and the vector payloads are shared by every snapshot that
// includes them. Element order — the merge-order determinism contract the
// trained models depend on — is exactly the block append order.
//
// Thread contract: PopulationBucket/PopulationStore are externally
// synchronized, like the plain map they replaced. Sharing immutable state
// (a published snapshot) across threads is safe; concurrent mutation of one
// bucket handle is not.
#pragma once

#include <cstddef>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "sensors/types.h"

namespace sy::core {

// One anonymized population vector: the contributor token exists only to
// avoid self-matching during training (paper's anonymization note).
struct StoredVector {
  int contributor;
  std::vector<double> vector;
};

// An immutable run of StoredVectors (one contribution's payload). The
// pointed-to vector must never change after publication — snapshots alias it.
using VectorBlock = std::shared_ptr<const std::vector<StoredVector>>;

// Builds a block from one contribute() payload. Returns null for an empty
// payload (buckets never store empty blocks). Throws std::invalid_argument
// when a value is NaN or infinite, or when the payload's vectors differ in
// length: one such vector would reach other users' impostor samples and
// make their models score NaN. Both stores build the block before touching
// any state, so a rejected contribution changes nothing.
VectorBlock make_vector_block(int contributor,
                              const std::vector<std::vector<double>>& vectors);

// One context's ordered block sequence with copy-on-write semantics.
class PopulationBucket {
 public:
  PopulationBucket() = default;
  // Copies share the immutable block list (O(1)). Appending to either copy
  // afterwards clones only the pointer vector (copy-on-write).

  std::size_t size() const { return rep_ ? rep_->ends.back() : 0; }
  bool empty() const { return rep_ == nullptr; }
  std::size_t block_count() const { return rep_ ? rep_->blocks.size() : 0; }
  std::span<const VectorBlock> blocks() const {
    return rep_ ? std::span<const VectorBlock>(rep_->blocks)
                : std::span<const VectorBlock>();
  }

  // O(log blocks) random access (impostor draws index the merged bucket).
  const StoredVector& operator[](std::size_t i) const;

  // Forward iteration over elements in block-append order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = StoredVector;
    using difference_type = std::ptrdiff_t;
    using pointer = const StoredVector*;
    using reference = const StoredVector&;

    const_iterator() = default;
    reference operator*() const { return (*(*blocks_)[block_])[elem_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++elem_ == (*blocks_)[block_]->size()) {
        ++block_;
        elem_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator saved = *this;
      ++*this;
      return saved;
    }
    bool operator==(const const_iterator& o) const {
      return block_ == o.block_ && elem_ == o.elem_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    friend class PopulationBucket;
    const_iterator(const std::vector<VectorBlock>* blocks, std::size_t block,
                   std::size_t elem)
        : blocks_(blocks), block_(block), elem_(elem) {}
    const std::vector<VectorBlock>* blocks_{nullptr};
    std::size_t block_{0};
    std::size_t elem_{0};
  };
  const_iterator begin() const {
    return rep_ ? const_iterator(&rep_->blocks, 0, 0) : const_iterator();
  }
  const_iterator end() const {
    return rep_ ? const_iterator(&rep_->blocks, rep_->blocks.size(), 0)
                : const_iterator();
  }

  // Appends a block (shared, not copied). Null/empty blocks are skipped.
  void append_block(VectorBlock block);
  // Appends every block of `other` (pointer copies; payloads stay shared).
  void append(const PopulationBucket& other);
  // Drops the first `blocks` blocks (persistence rollback undoes exactly
  // the recovered prefix it prepended, which was installed block-wise).
  void erase_block_prefix(std::size_t blocks);

  // Whether two bucket handles share the same immutable block list — the
  // observable form of "this snapshot reused that bucket without copying".
  bool shares_storage_with(const PopulationBucket& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

 private:
  struct Rep {
    std::vector<VectorBlock> blocks;
    // ends[i] = elements in blocks[0..i] — cumulative, so ends.back() is the
    // bucket size and operator[] is an upper_bound away.
    std::vector<std::size_t> ends;
  };
  // Clones the pointer list when the rep is shared with another handle
  // (an outstanding snapshot); blocks themselves are never cloned.
  Rep& mutable_rep();

  std::shared_ptr<Rep> rep_;  // null == empty bucket
};

// The anonymized per-context population feature store. Treated as an
// immutable snapshot during training so many users can train against it
// concurrently without synchronization. Copying shares every bucket's block
// list (PopulationBucket's copy is copy-on-write), so a full store copy is
// O(contexts), not O(vectors).
using PopulationStore = std::map<sensors::DetectedContext, PopulationBucket>;

}  // namespace sy::core
