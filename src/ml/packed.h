// Shared by the unpack() codecs of StandardScaler, KrrClassifier and
// KrrFeatureMap. Their packed arrays carry counts and enum codes as
// doubles, and a model bundle whose digest verifies can still hold any
// double there: the digest has no key, so whoever can write the model
// directory can forge one. Every such value is checked before it is cast.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace sy::ml {

// `v` as a count or code in [0, limit]. Throws std::invalid_argument naming
// `what` unless v is finite, integral and in range; casting anything else
// to an integer is undefined. Counts pass the remaining length as `limit`,
// so a count never exceeds what the array holds and sizes derived from it
// are compared by division, not by a product that can wrap.
inline std::size_t unpack_count(double v, std::size_t limit,
                                const char* what) {
  if (!(v >= 0.0 && v <= static_cast<double>(limit) && v == std::trunc(v))) {
    throw std::invalid_argument(std::string(what) + " out of range");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace sy::ml
