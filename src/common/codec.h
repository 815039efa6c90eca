// The one byte codec: everything the project ships (wire), persists
// (store, journal) or hashes (fingerprint) goes through these primitives.
//
// A serialized type describes its fields ONCE, in a templated
//
//   template <class V, codec::Is<T> U> void visit(V& v, U& t);
//
// found by argument-dependent lookup in T's namespace. That one visit
// drives every direction:
//   Writer<ByteSink>   the canonical little-endian encoding;
//   Writer<any sink>   the same bytes streamed into a digest (the campaign
//                      fingerprint) or a counter, never materialized;
//   Reader             the strict inverse: bounds-checked, fail-latching,
//                      rejecting out-of-range enums, hostile counts and
//                      every v.check() the visit states.
//
// Field encodings (all integers little-endian):
//   bool              1 byte, exactly 0 or 1
//   integer           its own width (1, 4 or 8 bytes)
//   enum              u32, rejected above codec::Last<E>::value
//   double            u64 bit pattern
//   std::string       u64 length + bytes
//   vector / span     u64 count + elements
//   std::array        elements, no count
//   codec::as<W>(x)   integer x stored as the wider W, range-checked back
//   anything else     its visit
//
// Coverage by construction: every visit opens with a structured binding of
// ALL members (`auto& [a, b, c] = t;`), so adding a member to a visited
// aggregate stops the build until the visit names it.
//
// Sealed frames: seal(fields...) encodes a fixed header (usually ending in
// a length-prefixed payload) and appends a u64 FNV-1a trailer over it;
// unseal() verifies that trailer BEFORE a single field is parsed, so a
// frame with any flipped or missing byte is rejected up front.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace sck::codec {

/// `T` is `X`, possibly const: the constraint of every visit, which takes
/// const objects when encoding/hashing and mutable ones when decoding.
template <class T, class X>
concept Is = std::same_as<std::remove_const_t<T>, X>;

/// Highest valid enumerator of a serialized enum (specialize next to the
/// enum's visit). Decoders reject larger wire values before the cast.
template <class E>
struct Last;

inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const unsigned char> bytes, std::uint64_t h = kFnvBasis) {
  for (const unsigned char b : bytes) h = (h ^ b) * kFnvPrime;
  return h;
}

/// An integer field stored as the wider integer W (see as()).
template <class W, class T>
struct Widened {
  using Wire = W;
  T& field;
};

template <class W, class T>
[[nodiscard]] constexpr Widened<W, T> as(T& field) {
  return {field};
}

namespace detail {
template <class T>
inline constexpr bool kWidened = false;
template <class W, class T>
inline constexpr bool kWidened<Widened<W, T>> = true;
template <class T>
inline constexpr bool kArray = false;
template <class T, std::size_t N>
inline constexpr bool kArray<std::array<T, N>> = true;
template <class T>
inline constexpr bool kSequence = false;
template <class T, class A>
inline constexpr bool kSequence<std::vector<T, A>> = true;
template <class T, std::size_t N>
inline constexpr bool kSequence<std::span<T, N>> = true;
}  // namespace detail

/// The canonical encoding itself.
struct ByteSink {
  std::vector<unsigned char> bytes;
  void write(const unsigned char* data, std::size_t n) {
    bytes.insert(bytes.end(), data, data + n);
  }
};

/// Encoded length only.
struct CountSink {
  std::size_t bytes = 0;
  void write(const unsigned char* /*data*/, std::size_t n) { bytes += n; }
};

/// Little-endian encoder into any sink with write(data, n).
template <class Sink = ByteSink>
class Writer {
 public:
  static constexpr bool kDecodes = false;

  template <class... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }
  /// Decode-side validation: nothing to check on the way out.
  void check(bool /*ok*/) const {}
  [[nodiscard]] Sink& sink() { return sink_; }

 private:
  void le(std::uint64_t v, std::size_t n) {
    unsigned char b[8];
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    sink_.write(b, n);
  }

  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      le(v ? 1 : 0, 1);
    } else if constexpr (std::is_enum_v<T>) {
      le(static_cast<std::uint32_t>(v), 4);
    } else if constexpr (std::is_integral_v<T>) {
      le(static_cast<std::uint64_t>(v), sizeof(T));
    } else if constexpr (std::is_same_v<T, double>) {
      le(std::bit_cast<std::uint64_t>(v), 8);
    } else if constexpr (std::is_same_v<T, std::string>) {
      le(v.size(), 8);
      sink_.write(reinterpret_cast<const unsigned char*>(v.data()), v.size());
    } else if constexpr (detail::kWidened<T>) {
      put(static_cast<typename T::Wire>(v.field));
    } else if constexpr (detail::kArray<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (detail::kSequence<T>) {
      le(v.size(), 8);
      if constexpr (std::is_same_v<std::remove_cv_t<typename T::value_type>,
                                   unsigned char>) {
        sink_.write(v.data(), v.size());
      } else {
        for (const auto& e : v) put(e);
      }
    } else {
      visit(*this, v);
    }
  }

  Sink sink_;
};

/// Length of the canonical encoding of `fields`.
template <class... T>
[[nodiscard]] std::size_t encoded_size(const T&... fields) {
  Writer<CountSink> w;
  w(fields...);
  return w.sink().bytes;
}

/// Bounds-checked little-endian decoder over a byte span. Every read
/// latches failure: after the first malformed field nothing else is
/// read, and the caller checks ok()/done() once — malformed bytes can
/// only produce a clean parse failure, never UB or an abort.
class Reader {
 public:
  static constexpr bool kDecodes = true;

  explicit Reader(std::span<const unsigned char> bytes) : bytes_(bytes) {}

  template <class... T>
  void operator()(T&&... fields) {
    (get(fields), ...);
  }
  /// A decode-side validation the visit states: false fails the read.
  void check(bool valid) {
    if (!valid) fail();
  }
  /// Element count whose elements occupy at least `min_bytes` each: a
  /// count the remaining bytes cannot possibly hold is rejected BEFORE any
  /// allocation sized by it.
  [[nodiscard]] bool count(std::uint64_t& n, std::size_t min_bytes) {
    if (!le(n, 8)) return false;
    if (min_bytes == 0) min_bytes = 1;
    if (n > remaining() / min_bytes) return fail();
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - at_; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// Parsed cleanly AND consumed every byte: trailing garbage is rejected.
  [[nodiscard]] bool done() const { return ok_ && at_ == bytes_.size(); }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  bool le(std::uint64_t& v, std::size_t n) {
    if (!ok_ || remaining() < n) return fail();
    v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[at_ + i]) << (8 * i);
    }
    at_ += n;
    return true;
  }

  /// A u64 length prefix and that many bytes, viewed in place.
  bool blob(std::span<const unsigned char>& out) {
    std::uint64_t n = 0;
    if (!le(n, 8)) return false;
    if (n > remaining()) return fail();
    out = bytes_.subspan(at_, static_cast<std::size_t>(n));
    at_ += static_cast<std::size_t>(n);
    return true;
  }

  template <class T>
  void get(T& v) {
    std::uint64_t raw = 0;
    if constexpr (std::is_same_v<T, bool>) {
      if (le(raw, 1)) check(raw <= 1);
      if (ok_) v = raw != 0;
    } else if constexpr (std::is_enum_v<T>) {
      if (le(raw, 4)) check(raw <= static_cast<std::uint64_t>(Last<T>::value));
      if (ok_) v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      if (le(raw, sizeof(T))) v = static_cast<T>(raw);
    } else if constexpr (std::is_same_v<T, double>) {
      if (le(raw, 8)) v = std::bit_cast<double>(raw);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::span<const unsigned char> b;
      if (blob(b)) v.assign(b.begin(), b.end());
    } else if constexpr (std::is_same_v<T, std::span<const unsigned char>>) {
      blob(v);  // a sealed payload, viewed in place
    } else if constexpr (detail::kWidened<T>) {
      using F = std::remove_reference_t<decltype(v.field)>;
      typename T::Wire wide{};
      get(wide);
      if (ok_) check(std::in_range<F>(wide));
      if (ok_) v.field = static_cast<F>(wide);
    } else if constexpr (detail::kArray<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (detail::kSequence<T>) {
      using E = typename T::value_type;
      if (!count(raw, encoded_size(E{}))) return;
      v.clear();
      v.resize(static_cast<std::size_t>(raw));
      for (E& e : v) {
        get(e);
        if (!ok_) return;
      }
    } else {
      visit(*this, v);
    }
  }

  std::span<const unsigned char> bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

/// The canonical encoding of `fields`, back to back.
template <class... T>
[[nodiscard]] std::vector<unsigned char> encode(const T&... fields) {
  Writer<> w;
  w(fields...);
  return std::move(w.sink().bytes);
}

/// Strict inverse of encode(value): nullopt unless the bytes parse, pass
/// every check of T's visit and are consumed exactly.
template <class T>
[[nodiscard]] std::optional<T> decode(std::span<const unsigned char> bytes) {
  Reader r(bytes);
  T value{};
  r(value);
  if (!r.done()) return std::nullopt;
  return value;
}

inline constexpr std::size_t kTrailerBytes = 8;

/// Sealed frame: the encoded `fields` (a fixed header, then usually a
/// length-prefixed payload) followed by a u64 FNV-1a trailer over them.
template <class... T>
[[nodiscard]] std::vector<unsigned char> seal(const T&... fields) {
  Writer<> w;
  w.sink().bytes.reserve(encoded_size(fields...) + kTrailerBytes);
  w(fields...);
  w(fnv1a(w.sink().bytes));
  return std::move(w.sink().bytes);
}

/// Verifies a sealed frame's trailer FIRST and returns a Reader over the
/// sealed fields, or nullopt when the checksum does not match.
[[nodiscard]] inline std::optional<Reader> unseal(
    std::span<const unsigned char> frame) {
  if (frame.size() < kTrailerBytes) return std::nullopt;
  const std::span<const unsigned char> body =
      frame.first(frame.size() - kTrailerBytes);
  std::uint64_t sum = 0;
  Reader trailer(frame.subspan(body.size()));
  trailer(sum);
  if (fnv1a(body) != sum) return std::nullopt;
  return Reader(body);
}

}  // namespace sck::codec
