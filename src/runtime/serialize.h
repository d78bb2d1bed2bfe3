#ifndef DIABLO_RUNTIME_SERIALIZE_H_
#define DIABLO_RUNTIME_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/value.h"

namespace diablo::runtime {

/// Binary serialization of Values — the wire format rows take across a
/// shuffle. Format: one tag byte per node, little-endian fixed-width
/// scalars, varint-free u32 lengths for strings and sequences.
/// Deterministic: equal values serialize to equal bytes.
///
/// The engine can be configured (EngineConfig::serialize_shuffles) to
/// round-trip every shuffled row through this codec, validating it under
/// load and making SerializedBytes() an exact figure rather than an
/// estimate. The distributed backend (src/dist/) ships these bytes over
/// real sockets, so every decoder below must reject truncated, oversized
/// and bit-flipped input with a Status — never UB.

/// Little-endian fixed-width primitives shared by every layer of the
/// wire format (values, HashedRow batches, dist/ frame payloads).
/// A double travels as its IEEE-754 bit pattern in a u64, so every
/// value, NaN payloads and signed zeros included, round-trips exactly.
void PutWireU32(uint32_t v, std::string* out);
void PutWireU64(uint64_t v, std::string* out);
void PutWireDouble(double v, std::string* out);
StatusOr<uint32_t> GetWireU32(const std::string& data, size_t* offset);
StatusOr<uint64_t> GetWireU64(const std::string& data, size_t* offset);
StatusOr<double> GetWireDouble(const std::string& data, size_t* offset);

/// Appends the encoding of `v` to `out`.
void SerializeValue(const Value& v, std::string* out);

/// Convenience: the encoding of `v`.
std::string Serialize(const Value& v);

/// Decodes one value from `data` starting at `*offset`, advancing it.
/// Errors on truncated or corrupt input.
StatusOr<Value> DeserializeValue(const std::string& data, size_t* offset);

/// Decodes a buffer that contains exactly one value.
StatusOr<Value> Deserialize(const std::string& data);

/// Shuffle rows cross the network with their memoized key hash so the
/// receive side never rehashes: u64 hash, then the encoded row.
void SerializeHashedRow(const HashedRow& hr, std::string* out);
StatusOr<HashedRow> DeserializeHashedRow(const std::string& data,
                                         size_t* offset);

/// A length-prefixed batch of hashed rows (u32 count, then each row).
/// The decoder bounds the declared count against the remaining bytes,
/// so an oversized length prefix fails fast instead of reserving.
void SerializeHashedVec(const HashedVec& rows, std::string* out);
StatusOr<HashedVec> DeserializeHashedVec(const std::string& data,
                                         size_t* offset);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_SERIALIZE_H_
