#pragma once
// DecisionScratch — the per-thread buffer set behind every arm-scoring
// pass (FrozenModel and live ArmBank, the per-arm column walk and the
// score_block kernel alike). The serving hot paths run concurrently on
// many reader threads, so the reusable buffers must be per-thread. They
// only ever grow: a thread that alternates shapes (one-context reads
// between greedy batches, or a multi-shard batch whose per-shard groups
// differ in size) must not re-zero-fill a tail on every switch, so after
// the largest shape it serves, ensure() never touches memory again.
// Callers index the buffers by their own shape and never read size().

#include <cstddef>
#include <vector>

namespace bw::core {

struct DecisionScratch {
  std::vector<double> scores;  ///< >= batch x arms, context-major
  std::vector<double> widths;  ///< >= arms (batch-1 LinUCB/Thompson variances)
  std::vector<double> panel;   ///< >= (d + 1) x batch intercept-augmented contexts

  /// Grows the buffers to hold an (arms, d, batch) shape; never shrinks.
  void ensure(std::size_t arm_count, std::size_t num_features,
              std::size_t batch_size) {
    grow(scores, arm_count * batch_size);
    grow(widths, arm_count);
    grow(panel, (num_features + 1) * batch_size);
  }

  static DecisionScratch& local() {
    static thread_local DecisionScratch scratch;
    return scratch;
  }

 private:
  static void grow(std::vector<double>& buffer, std::size_t size) {
    if (buffer.size() < size) buffer.resize(size);
  }
};

}  // namespace bw::core
