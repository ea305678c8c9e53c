// Binary serialization of enrollment state and protocol messages.
//
// A real deployment stores one EnrollmentRecord per device in the
// verifier's database: the delay table H (the only secret in the system),
// the expected memory image and the timing profile.  The format is a
// little-endian tagged container with an explicit version, so databases
// survive library upgrades; readers validate sizes and magic before
// trusting any field.
//
// Protocol messages additionally get a *wire frame* — magic, explicit
// lengths and a trailing CRC-32 — because they cross the unreliable radio:
// the deserializers must turn any truncated, oversized, bit-flipped or
// otherwise malformed byte stream into a clean SerializationError, never
// undefined slicing.  The attestation session layer relies on the CRC to
// classify corrupted frames as transport faults (retryable) rather than
// protocol rejections (evidence).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/enrollment.hpp"
#include "core/protocol.hpp"
#include "support/bytes.hpp"

namespace pufatt::core {

/// Raised on malformed or incompatible input.
class SerializationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends a record (the bytes save_record_file writes).
void save_record(support::ByteWriter& out, const EnrollmentRecord& record);

/// Reads one record at the cursor; throws SerializationError on bad
/// magic/version/shape or truncation.
EnrollmentRecord load_record(support::ByteReader<SerializationError>& in);

/// File-path wrappers; a file holding anything after the record is
/// refused.
void save_record_file(const std::string& path, const EnrollmentRecord& record);
EnrollmentRecord load_record_file(const std::string& path);

// --- protocol wire frames ---------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) over a byte buffer.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Largest helper transcript a verifier will accept on the wire.  Honest
/// transcripts carry 8 words per PUF call; anything bigger than this is an
/// attempted resource-exhaustion, not a response.
constexpr std::size_t kMaxWireHelperWords = 1u << 20;

/// Hard ceiling on any single protocol frame, sized to the largest frame an
/// honest peer can produce: a response carrying kMaxWireHelperWords helper
/// words plus its header and trailing CRC.  Every deserializer rejects a
/// buffer above this bound before touching its contents, and every stream
/// decoder (src/net FrameDecoder) must check a *declared* length against it
/// before allocating or buffering a frame body — an attacker-supplied length
/// field must never size an allocation.
constexpr std::size_t kMaxWireFrameBytes =
    4 + 4 + 8 * 4 + kMaxWireHelperWords * 4 + 4;

/// Request frame: [magic][nonce lo][nonce hi][crc32].
std::vector<std::uint8_t> serialize_request(const AttestationRequest& request);
AttestationRequest deserialize_request(const std::vector<std::uint8_t>& frame);

/// Response frame: [magic][helper count][checksum x8][helpers...][crc32].
/// Deserialization rejects bad magic, truncated or oversized buffers,
/// helper counts that are absurd or not a multiple of 8 (8 words per PUF
/// call), and any frame whose CRC does not match.
std::vector<std::uint8_t> serialize_response(
    const AttestationResponse& response);
AttestationResponse deserialize_response(
    const std::vector<std::uint8_t>& frame);

}  // namespace pufatt::core
