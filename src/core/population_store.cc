#include "core/population_store.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sy::core {

VectorBlock make_vector_block(
    int contributor, const std::vector<std::vector<double>>& vectors) {
  if (vectors.empty()) return nullptr;
  const std::size_t dim = vectors.front().size();
  for (const auto& v : vectors) {
    if (v.size() != dim) {
      throw std::invalid_argument(
          "contribute: vectors of differing lengths in one contribution");
    }
    for (const double x : v) {
      if (!std::isfinite(x)) {
        throw std::invalid_argument("contribute: non-finite feature value");
      }
    }
  }
  auto block = std::make_shared<std::vector<StoredVector>>();
  block->reserve(vectors.size());
  for (const auto& v : vectors) {
    block->push_back({contributor, v});
  }
  return block;
}

const StoredVector& PopulationBucket::operator[](std::size_t i) const {
  const Rep& rep = *rep_;  // UB on empty buckets, exactly like vector's []
  const auto it = std::upper_bound(rep.ends.begin(), rep.ends.end(), i);
  const auto block = static_cast<std::size_t>(it - rep.ends.begin());
  const std::size_t start = block == 0 ? 0 : rep.ends[block - 1];
  return (*rep.blocks[block])[i - start];
}

PopulationBucket::Rep& PopulationBucket::mutable_rep() {
  if (rep_ == nullptr) {
    rep_ = std::make_shared<Rep>();
  } else if (rep_.use_count() > 1) {
    // Shared with a snapshot: clone the pointer list (the blocks stay
    // shared), so the snapshot's view never changes.
    rep_ = std::make_shared<Rep>(*rep_);
  }
  return *rep_;
}

void PopulationBucket::append_block(VectorBlock block) {
  if (block == nullptr || block->empty()) return;
  Rep& rep = mutable_rep();
  rep.ends.push_back((rep.ends.empty() ? 0 : rep.ends.back()) +
                     block->size());
  rep.blocks.push_back(std::move(block));
}

void PopulationBucket::append(const PopulationBucket& other) {
  if (other.rep_ == nullptr) return;
  if (rep_ == nullptr) {
    // Whole-bucket reuse: share the other bucket's list outright.
    rep_ = other.rep_;
    return;
  }
  Rep& rep = mutable_rep();
  rep.blocks.insert(rep.blocks.end(), other.rep_->blocks.begin(),
                    other.rep_->blocks.end());
  const std::size_t base = rep.ends.empty() ? 0 : rep.ends.back();
  for (const std::size_t end : other.rep_->ends) {
    rep.ends.push_back(base + end);
  }
}

void PopulationBucket::erase_block_prefix(std::size_t blocks) {
  if (blocks == 0 || rep_ == nullptr) return;
  if (blocks >= rep_->blocks.size()) {
    rep_.reset();
    return;
  }
  Rep& rep = mutable_rep();
  const std::size_t dropped = rep.ends[blocks - 1];
  rep.blocks.erase(rep.blocks.begin(),
                   rep.blocks.begin() + static_cast<std::ptrdiff_t>(blocks));
  rep.ends.erase(rep.ends.begin(),
                 rep.ends.begin() + static_cast<std::ptrdiff_t>(blocks));
  for (auto& end : rep.ends) end -= dropped;
}

}  // namespace sy::core
