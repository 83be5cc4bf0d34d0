// The bytes of one simulated message.
//
// A commit-protocol frame is 33 bytes, and every commit sends O(r^2) of
// them, so a frame must not cost an allocation. Payload holds up to
// kInline bytes in place; a larger frame (a storage put, a history reply)
// spills to a std::string inside the same value, taken over by move when
// the sender already built one. Handlers read the bytes as a
// std::string_view.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <utility>

namespace asa_repro::sim {

class Payload {
 public:
  /// Bytes held in place; at least one commit frame.
  static constexpr std::size_t kInline = 40;

  Payload() noexcept {}
  // Implicit from every byte-string type, so Network::send takes whatever
  // the caller holds.
  Payload(std::string_view bytes) {
    char* out = reserve(bytes.size());
    if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  }
  Payload(const std::string& bytes) : Payload(std::string_view(bytes)) {}
  Payload(const char* bytes) : Payload(std::string_view(bytes)) {}
  /// A spilled frame adopts the string's buffer instead of copying it.
  Payload(std::string&& bytes) : size_(bytes.size()) {
    if (spilled()) {
      new (&heap_) std::string(std::move(bytes));
    } else {
      std::memcpy(inline_, bytes.data(), size_);
    }
  }

  /// `size` bytes of unspecified content, to be written through data().
  static Payload uninitialized(std::size_t size) {
    Payload p;
    (void)p.reserve(size);
    return p;
  }

  Payload(const Payload& other) : Payload(other.view()) {}
  Payload(Payload&& other) noexcept { take(std::move(other)); }
  Payload& operator=(const Payload& other) {
    if (this != &other) *this = Payload(other);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      take(std::move(other));
    }
    return *this;
  }
  ~Payload() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const char* data() const {
    return spilled() ? heap_.data() : inline_;
  }
  [[nodiscard]] char* data() { return spilled() ? heap_.data() : inline_; }
  [[nodiscard]] std::string_view view() const { return {data(), size_}; }
  operator std::string_view() const { return view(); }

 private:
  [[nodiscard]] bool spilled() const { return size_ > kInline; }

  /// Size an empty payload to `size` bytes and return its buffer.
  char* reserve(std::size_t size) {
    size_ = size;
    if (!spilled()) return inline_;
    new (&heap_) std::string(size, '\0');
    return heap_.data();
  }
  void take(Payload&& other) noexcept {
    size_ = other.size_;
    if (other.spilled()) {
      new (&heap_) std::string(std::move(other.heap_));
      other.heap_.~basic_string();
    } else {
      std::memcpy(inline_, other.inline_, size_);
    }
    other.size_ = 0;
  }
  void release() noexcept {
    if (spilled()) heap_.~basic_string();
    size_ = 0;
  }

  union {
    char inline_[kInline];
    std::string heap_;  // Active exactly when size_ > kInline.
  };
  std::size_t size_ = 0;
};

}  // namespace asa_repro::sim
