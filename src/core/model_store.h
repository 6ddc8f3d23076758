// On-phone model persistence with integrity protection (paper §IV-C,
// "protecting data at rest").
//
// Wire format (little-endian doubles in a simple tagged layout):
//   [magic "SYMD"] [format u32] [user u32] [version u32] [n_contexts u32]
//   per context: [context u32] [scaler_len u64] [scaler doubles]
//                [krr_len u64] [krr doubles]
//   [32-byte SHA-256 over everything above]
// load() recomputes the digest and refuses tampered files.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/auth_model.h"

namespace sy::core {

// Base of every model-store failure; the two subclasses let callers (e.g. a
// gateway's cache miss path) distinguish "model was never persisted" from
// "model exists but is corrupt or tampered" — the former is retrainable, the
// latter is a security event.
struct ModelStoreError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct ModelMissingError : ModelStoreError {
  using ModelStoreError::ModelStoreError;
};
struct ModelCorruptError : ModelStoreError {
  using ModelStoreError::ModelStoreError;
};

class ModelStore {
 public:
  // Magic + format + user + version, readable without parsing (or
  // digest-verifying) the whole bundle.
  struct Header {
    int user_id{0};
    int version{0};
  };
  static constexpr std::size_t kHeaderBytes = 16;

  // Serializes the bundle (including digest).
  static std::vector<std::uint8_t> serialize(const AuthModel& model);
  // Parses and verifies; throws ModelCorruptError on corruption, naming
  // `origin` (the file the bytes came from) when one is given.
  static AuthModel deserialize(const std::vector<std::uint8_t>& bytes,
                               const std::string& origin = {});

  // File round-trip. load() throws ModelMissingError when `path` does not
  // exist and ModelCorruptError (with the offending path in the message)
  // when the bundle fails parsing or integrity verification.
  static void save(const AuthModel& model, const std::string& path);
  // Writes an already-serialized bundle (callers that also need the bytes
  // for size accounting serialize once and reuse them).
  static void save_bytes(const std::vector<std::uint8_t>& bytes,
                         const std::string& path);
  static AuthModel load(const std::string& path);

  // Parses only the fixed kHeaderBytes header of a bundle's bytes (a longer
  // buffer is fine): magic and
  // format are validated, but the integrity digest is NOT — the result is a
  // hint (e.g. for a gateway rebuilding its version table after a restart),
  // and any actual model use still goes through the verified deserialize().
  // Throws ModelCorruptError when the header does not parse.
  static Header peek_header(const std::vector<std::uint8_t>& bytes);

  // Hex digest of a serialized bundle (for audit logs).
  static std::string digest_hex(const std::vector<std::uint8_t>& bytes);
};

}  // namespace sy::core
