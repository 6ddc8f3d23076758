#include "core/model_store.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "util/framing.h"
#include "util/sha256.h"

namespace sy::core {

namespace {

constexpr char kMagic[4] = {'S', 'Y', 'M', 'D'};
constexpr std::uint32_t kMagicU32 = util::magic_u32('S', 'Y', 'M', 'D');
constexpr std::uint32_t kFormatVersion = 1;

}  // namespace

std::vector<std::uint8_t> ModelStore::serialize(const AuthModel& model) {
  std::vector<std::uint8_t> out;
  util::put_u32(out, kMagicU32);  // same bytes as kMagic, little-endian
  util::put_u32(out, kFormatVersion);
  util::put_u32(out, static_cast<std::uint32_t>(model.user_id()));
  util::put_u32(out, static_cast<std::uint32_t>(model.version()));
  util::put_u32(out, static_cast<std::uint32_t>(model.context_count()));
  for (const auto& [context, cm] : model.models()) {
    util::put_u32(out, static_cast<std::uint32_t>(context));
    util::put_doubles(out, cm.scaler.pack());
    util::put_doubles(out, cm.classifier.pack());
  }
  const auto digest = util::Sha256::hash(out.data(), out.size());
  out.insert(out.end(), digest.begin(), digest.end());
  return out;
}

namespace {

AuthModel parse_bundle(const std::vector<std::uint8_t>& bytes) {
  try {
    util::ByteReader reader =
        util::ByteReader::open_digest_framed(bytes, kMagicU32);
    const std::uint32_t format = reader.u32();
    if (format != kFormatVersion) {
      throw ModelCorruptError("ModelStore: unsupported format version");
    }
    const auto user = static_cast<int>(reader.u32());
    const auto version = static_cast<int>(reader.u32());
    const std::uint32_t n_contexts = reader.u32();

    AuthModel model(user, version);
    for (std::uint32_t i = 0; i < n_contexts; ++i) {
      const auto context = static_cast<sensors::DetectedContext>(reader.u32());
      const auto scaler_pack = reader.doubles();
      const auto krr_pack = reader.doubles();
      ContextModel cm(ml::StandardScaler::unpack(scaler_pack),
                      ml::KrrClassifier::unpack(krr_pack));
      model.set_context_model(context, std::move(cm));
    }
    if (reader.remaining() != 0) {
      throw ModelCorruptError("ModelStore: trailing bytes in model file");
    }
    return model;
  } catch (const util::EnvelopeError& e) {
    throw ModelCorruptError(std::string("ModelStore: ") + e.what());
  } catch (const util::ShortReadError&) {
    throw ModelCorruptError("ModelStore: truncated model file");
  }
}

}  // namespace

AuthModel ModelStore::deserialize(const std::vector<std::uint8_t>& bytes,
                                  const std::string& origin) {
  try {
    return parse_bundle(bytes);
  } catch (const ModelCorruptError& e) {
    if (origin.empty()) throw;
    // A serving fleet sees thousands of bundles and a bare "digest mismatch"
    // is undebuggable.
    throw ModelCorruptError(std::string(e.what()) + " (" + origin + ")");
  }
}

void ModelStore::save(const AuthModel& model, const std::string& path) {
  save_bytes(serialize(model), path);
}

void ModelStore::save_bytes(const std::vector<std::uint8_t>& bytes,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ModelStoreError("ModelStore: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw ModelStoreError("ModelStore: write failed " + path);
}

AuthModel ModelStore::load(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!util::read_file_bytes(path, bytes)) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      throw ModelMissingError("ModelStore: no such model file: " + path);
    }
    throw ModelStoreError("ModelStore: cannot read " + path);
  }
  return deserialize(bytes, path);
}

ModelStore::Header ModelStore::peek_header(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw ModelCorruptError("ModelStore: file too small");
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    throw ModelCorruptError("ModelStore: bad magic");
  }
  util::ByteReader reader(bytes.data(), kHeaderBytes);
  reader.u32();  // magic
  if (reader.u32() != kFormatVersion) {
    throw ModelCorruptError("ModelStore: unsupported format version");
  }
  Header header;
  header.user_id = static_cast<int>(reader.u32());
  header.version = static_cast<int>(reader.u32());
  return header;
}

std::string ModelStore::digest_hex(const std::vector<std::uint8_t>& bytes) {
  return util::Sha256::hex(bytes.data(), bytes.size());
}

}  // namespace sy::core
