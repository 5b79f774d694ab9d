// CNB1 — the versioned binary columnar on-disk format (DESIGN.md §11).
//
// A CNB1 file is the byte-layout twin of the audit substrate: the same
// per-block / per-transaction column arrays and CSR spans that
// core::AuditDataset holds in memory, laid out little-endian in one
// file so that loading is a checksum pass plus bulk column copies
// instead of a CSV parse (the CSV path tops out at ~137 k rows/s; this
// path is memory-bandwidth bound).
//
// File layout:
//   [ 64-byte header ]
//   [ section directory: section_count × 32-byte entries ]
//   [ section payloads, each 8-byte aligned, in directory order ]
//
// Header (all fields little-endian):
//   offset  size  field
//        0     8  magic "CNB1\r\n\x1a\n" (the PNG trick: text-mode
//                 transfer mangles the \r\n and truncation eats the ^Z)
//        8     4  version (this writer: 1)
//       12     4  endianness tag 0x01020304 as written by the producer
//       16     4  section_count
//       20     4  header_bytes (= 64; room to grow within a version)
//       24     8  genesis_height   (block heights are contiguous by
//                 construction — Chain::append enforces it — so ordinal
//                 b has height genesis_height + b and no height column
//                 is stored)
//       32     8  block_count
//       40     8  tx_count
//       48     8  flags (bit 0 snapshots, bit 1 first-seen, bit 2
//                 derived audit-dataset sections, bit 3 sealed block
//                 headers present, bit 4 simulator ground truth for
//                 cached worlds)
//       56     8  registry_fingerprint (CoinbaseTagRegistry::fingerprint
//                 of the registry the derived sections were built under;
//                 0 when flags bit 2 is clear)
//
// Directory entry: {section_id u32, reserved u32, offset u64,
// byte_size u64, checksum u64}. The checksum is four interleaved
// FNV-1a-64 lanes over u64 words, folded into one digest (cnb_checksum
// below) — cheap enough that verifying every section on load costs one
// streaming read even on a single core.
//
// Versioning / forward compatibility: readers MUST reject a different
// magic, endianness tag, or major version, and MUST ignore directory
// entries whose section_id they do not recognise — a newer writer may
// append new optional sections without breaking old readers. Removing
// or re-typing a section requires a version bump. Duplicate directory
// entries keep the first occurrence; the duplicate itself is a defect
// (droppable in lenient mode for optional sections, fatal for required
// ones). Payload offsets MUST be 8-byte aligned — the reader rejects a
// misaligned entry (kSectionLayout) rather than form a misaligned view.
//
// Failure model: every defect surfaces as a typed LoadError (never a
// crash) — kBadMagic / kUnsupportedVersion / kTruncatedFile /
// kMmapFailed at file level, kSectionChecksum / kSectionLayout /
// kMissingSection per section with `line` = the 1-based directory index
// and `detail` naming the section. Strict aborts at the first defect in
// file order; lenient drops corrupt OPTIONAL section groups (snapshots,
// first-seen, derived audit columns) and still yields the chain, per
// the §8 strict/lenient contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/dataset_source.hpp"
#include "io/load_report.hpp"

namespace cn::io {

inline constexpr std::uint8_t kCnbMagic[8] = {'C', 'N', 'B', '1',
                                              '\r', '\n', 0x1a, '\n'};
inline constexpr std::uint32_t kCnbVersion = 1;
inline constexpr std::uint32_t kCnbEndianTag = 0x01020304;
inline constexpr std::uint32_t kCnbHeaderBytes = 64;

// Header flag bits.
inline constexpr std::uint64_t kCnbFlagSnapshots = 1u << 0;
inline constexpr std::uint64_t kCnbFlagFirstSeen = 1u << 1;
inline constexpr std::uint64_t kCnbFlagAuditDataset = 1u << 2;
inline constexpr std::uint64_t kCnbFlagSealedHeaders = 1u << 3;
inline constexpr std::uint64_t kCnbFlagSimWorld = 1u << 4;

/// Section ids. Relational sections (< 64) round-trip to the CSV export;
/// derived sections (>= 64) cache core::AuditDataset columns that a
/// loader may also rebuild from the relational ones. Columns that would
/// be byte-identical to a relational section (txids, vsizes, issue
/// times, the tx/output CSR begins) are stored once, relationally.
enum class CnbSection : std::uint32_t {
  // --- relational: blocks (count = block_count) ---
  kBlockMinedAt = 1,     ///< i64[nb]
  kBlockRewardAddr = 2,  ///< u64[nb]
  kBlockRewardSat = 3,   ///< i64[nb]
  kBlockTagOffsets = 4,  ///< u64[nb+1] into kBlockTagBytes
  kBlockTagBytes = 5,    ///< u8[*] concatenated coinbase tags
  kBlockTxBegin = 6,     ///< u64[nb+1] CSR: txs of block b
  // --- relational: transactions (count = tx_count) ---
  kTxId = 7,      ///< 32 B[nt]
  kTxIssued = 8,  ///< i64[nt]
  kTxVsize = 9,   ///< u32[nt]
  kTxFeeSat = 10, ///< i64[nt]
  // --- relational: inputs (CSR over transactions) ---
  kTxInBegin = 11,   ///< u64[nt+1]
  kInPrevTxid = 12,  ///< 32 B[ni]
  kInPrevVout = 13,  ///< u32[ni]
  kInOwner = 14,     ///< u64[ni]
  // --- relational: outputs (CSR over transactions) ---
  kTxOutBegin = 15,  ///< u64[nt+1]
  kOutTo = 16,       ///< u64[no]
  kOutValueSat = 17, ///< i64[no]
  // --- optional: sealed block headers (flag bit 3) ---
  kBlockMerkleRoot = 23,  ///< 32 B[nb] Merkle roots as sealed by Chain::append;
                          ///< lets a loader adopt headers instead of
                          ///< re-hashing every txid (prev-hashes re-derive
                          ///< from the header chain itself)
  // --- optional: snapshot series (flag bit 0) ---
  kSnapTime = 18,     ///< i64[ns], strictly increasing
  kSnapTxCount = 19,  ///< u64[ns]
  kSnapVsize = 20,    ///< u64[ns]
  // --- optional: first-seen series (flag bit 1) ---
  kFirstSeenTxid = 21,  ///< 32 B[nf], sorted by byte order for determinism
  kFirstSeenTime = 22,  ///< i64[nf]
  // --- optional: simulator ground truth (flag bit 4; cached worlds) ---
  kWorldSpecFingerprint = 24,  ///< u64[1] sim::WorldSpec::fingerprint()
  kWorldScamAddress = 25,      ///< u64[1] planted scam address (0 = none)
  kWorldAcceleratedTxid = 26,  ///< 32 B[k], sorted by byte order
  // --- optional: derived audit-dataset columns (flag bit 2) ---
  kPoolNameOffsets = 64,    ///< u64[np+1] into kPoolNameBytes
  kPoolNameBytes = 65,      ///< u8[*]
  kPoolsByBlocks = 66,      ///< u32[np] pool ids by descending block count
  kBlockPool = 67,          ///< u32[nb]
  kBlockFees = 68,          ///< i64[nb]
  kBlockPpe = 69,           ///< f64[nb], NaN = undefined
  kTxFeeRate = 70,          ///< f64[nt]
  kTxFlags = 71,            ///< u8[nt]
  kTxSppe = 72,             ///< f64[nt], NaN = undefined
  kOutAddrId = 73,          ///< u32[no] interned AddressId per output
  kAddrById = 74,           ///< u64[na] address table in id order
  kPoolBlocksBegin = 75,    ///< u64[np+1]
  kPoolBlocksIdx = 76,      ///< u32[*] ascending block ordinals per pool
  kPoolTxCounts = 77,       ///< u64[np]
  kSelfInterestBegin = 78,  ///< u64[np+1]
  kSelfInterestIdx = 79,    ///< u32[*] ascending TxIdx per pool
};

/// Stable label for a section id ("block-mined-at", ...); "unknown" for
/// ids this build does not recognise.
const char* to_string(CnbSection section);

/// The checksum the format uses: four interleaved FNV-1a-64 lanes over
/// u64 words (little-endian, zero-padded tail), folded into one digest
/// and then over the byte length — the independent lanes hide the
/// multiply latency so the verify pass stays memory-bound.
std::uint64_t cnb_checksum(const void* data, std::size_t size) noexcept;

/// One parsed directory entry.
struct CnbSectionInfo {
  std::uint32_t id = 0;  ///< raw section id (may be unrecognised)
  std::uint64_t offset = 0;
  std::uint64_t byte_size = 0;
  std::uint64_t checksum = 0;
};

/// Parsed header + directory, with no payload validation. The cheap
/// inspection tools (cninject's section-corruption mode, cnconvert's
/// summary) use this; read_cnb does the full checksum/layout pass.
struct CnbInfo {
  std::uint32_t version = 0;
  std::uint64_t genesis_height = 0;
  std::uint64_t block_count = 0;
  std::uint64_t tx_count = 0;
  std::uint64_t flags = 0;
  std::uint64_t registry_fingerprint = 0;
  std::uint64_t file_size = 0;
  std::vector<CnbSectionInfo> sections;  ///< in directory order
};

/// Parses the header and directory of @p path without touching payloads.
/// Returns nullopt (and a reason in @p error) on open failure, bad
/// magic/version, or a directory that extends past EOF.
std::optional<CnbInfo> inspect_cnb(const std::string& path,
                                   std::string* error = nullptr);

/// What write_cnb stores beyond the chain itself.
struct CnbWriteOptions {
  const node::SnapshotSeries* snapshots = nullptr;
  const FirstSeenMap* first_seen = nullptr;
  /// Derived audit columns to embed; requires registry_fingerprint to
  /// identify the CoinbaseTagRegistry they were built under.
  const core::AuditDataset* dataset = nullptr;
  std::uint64_t registry_fingerprint = 0;
  /// Simulator ground truth for cached worlds (flag bit 4); the
  /// accelerated txid list is re-sorted on write.
  const SimWorldInfo* world = nullptr;
};

/// Writes @p chain (plus optional series / derived columns) as a CNB1
/// file at @p path. Atomic like the CSV exports: the bytes go to
/// `<path>.tmp` and are renamed into place only after every write
/// succeeded. Returns false on any I/O failure, with a human-readable
/// reason in @p error when non-null.
bool write_cnb(const btc::Chain& chain, const std::string& path,
               const CnbWriteOptions& options = {},
               std::string* error = nullptr);

/// Convenience: writes everything @p handle carries.
bool write_cnb(const DatasetHandle& handle, const std::string& path,
               std::string* error = nullptr);

/// Writes the complete export of one observed world under @p dir (which
/// is emptied first): the CSV data set, snapshots.csv, first_seen.csv and
/// dataset.cnb. Returns the lower-case hex SHA-256 over every file's
/// name, size and bytes, in name order, so equal digests mean
/// byte-identical exports; the simulator's determinism goldens pin it.
/// Returns "" on an I/O failure, with the reason in @p error when
/// non-null.
std::string export_digest(const btc::Chain& chain,
                          const node::SnapshotSeries& snapshots,
                          const FirstSeenMap& first_seen,
                          const std::string& dir,
                          std::string* error = nullptr);

/// Loads a CNB1 file: mmap, verify every recognised section's checksum
/// and layout, copy the columns into an owning DatasetHandle, unmap.
/// See the failure model in the file comment; open_dataset is the
/// caller-facing wrapper.
LoadResult<DatasetHandle> read_cnb(const std::string& path, LoadPolicy policy);

}  // namespace cn::io
