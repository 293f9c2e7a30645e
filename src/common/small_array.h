#ifndef PAYG_COMMON_SMALL_ARRAY_H_
#define PAYG_COMMON_SMALL_ARRAY_H_

#include <cstddef>
#include <memory>

namespace payg {

// `size` default-constructed elements, held in the object itself when
// size <= N and on the heap beyond: per-call working arrays on a path
// whose calls are mostly small, such as a read batch of one page.
template <typename T, size_t N>
class SmallArray {
 public:
  explicit SmallArray(size_t size)
      : heap_(size > N ? std::make_unique<T[]>(size) : nullptr) {}

  SmallArray(const SmallArray&) = delete;
  SmallArray& operator=(const SmallArray&) = delete;

  T* data() { return heap_ != nullptr ? heap_.get() : inline_; }
  T& operator[](size_t i) { return data()[i]; }

 private:
  T inline_[N];
  std::unique_ptr<T[]> heap_;
};

}  // namespace payg

#endif  // PAYG_COMMON_SMALL_ARRAY_H_
