#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "mor/reduced_model.h"

namespace varmor::mor {

/// Text serialization of a parametric reduced model, so a model extracted
/// once (expensively, from the full netlist) can be shipped to and reused by
/// downstream timing/yield tools without the netlist.
///
/// Format (version 2; version 1 files — no meta line — are still readable):
///   varmor-rom 2           ; magic + version
///   meta key K content H   ; K = cache key ("-" if none), H = content hash
///   size q ports m params np
///   G0 <q*q numbers, column-major> C0 <...> B <...> L <...>
///   dG0 <...> dC0 <...> dG1 ...
/// All numbers are printed with 17 significant digits, which round-trips
/// IEEE-754 doubles exactly — save/load is bit-identical, and therefore
/// content-hash stable (the disk cache tier depends on both).

/// Provenance carried alongside a persisted model: the content-addressed
/// cache key it was stored under and the stable hash of the model payload
/// itself (model_content_hash), which the cache verifies on reload so a
/// corrupted or hand-edited file is rebuilt instead of served.
struct ModelMeta {
    std::string cache_key;          ///< hex key; empty = none recorded
    std::uint64_t content_hash = 0; ///< 0 = none recorded (version-1 file)
};

/// Stable content hash of a model: FNV-1a over the dimensions and the
/// IEEE-754 bit patterns of every matrix entry, identical across processes.
/// Two models hash equal iff they are bitwise-identical.
std::uint64_t model_content_hash(const ReducedModel& model);

/// Writes the model (with a meta line when `meta` is non-null; the content
/// hash is recomputed during the write, so meta->content_hash may be 0).
void write_model(const ReducedModel& model, std::ostream& os,
                 const ModelMeta* meta = nullptr);
void write_model_file(const ReducedModel& model, const std::string& path,
                      const ModelMeta* meta = nullptr);

/// Reads a model; throws varmor::Error on malformed input (bad magic,
/// unsupported version, truncated data, inconsistent dimensions, a header
/// declaring more numbers than the remaining bytes can hold, a token that is
/// not exactly one finite number, out-of-range values). The stream is read
/// to its end into one buffer first, and nothing is allocated for the
/// matrices before the header passes these checks. When `meta` is non-null
/// it receives the file's metadata (empty/0 for a version-1 file). The
/// content hash is parsed, not verified — callers that care (the model
/// cache) compare against model_content_hash().
ReducedModel read_model(std::istream& is, ModelMeta* meta = nullptr);
ReducedModel read_model_file(const std::string& path, ModelMeta* meta = nullptr);

}  // namespace varmor::mor
