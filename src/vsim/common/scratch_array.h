// Fixed-capacity scratch storage for the allocation-free hot paths
// (minimal matching, record decoding): an uninitialized array of `n`
// elements that lives on the stack when n <= N and on the heap only
// beyond that.
#ifndef VSIM_COMMON_SCRATCH_ARRAY_H_
#define VSIM_COMMON_SCRATCH_ARRAY_H_

#include <cstddef>
#include <memory>

namespace vsim {

template <typename T, size_t N>
class ScratchArray {
 public:
  explicit ScratchArray(size_t n) : heap_(n > N ? new T[n] : nullptr) {}
  ScratchArray(const ScratchArray&) = delete;
  ScratchArray& operator=(const ScratchArray&) = delete;

  T* data() { return heap_ != nullptr ? heap_.get() : inline_; }

 private:
  T inline_[N];
  std::unique_ptr<T[]> heap_;
};

}  // namespace vsim

#endif  // VSIM_COMMON_SCRATCH_ARRAY_H_
