#pragma once
/// \file isa_audit.hpp
/// Binary-level audit of the per-TU ISA policy that backs the
/// determinism contract (sequential ≡ parallel for any rank × thread ×
/// backend combination). The runtime dispatcher guarantees an
/// AVX-512 instruction is never *executed* on a machine without AVX-512
/// — but only if no such instruction leaks out of its dedicated
/// translation unit (the COMDAT hazard: a shared inline function
/// compiled under -mavx512f can be the copy the linker keeps). Likewise
/// the bit-identity argument (every row backend ≡ the legacy reference
/// kernels) requires that no kernel TU
/// contracts a*b+c into an FMA. Both properties are invisible at the
/// source level; this tool enforces them where they actually live, in
/// the object files, by parsing `objdump -d` output and checking every
/// instruction against a policy manifest (tools/isa_policy.conf).
///
/// The core is a library (no process spawning, pure text in / report
/// out) so tests can feed it synthetic listings with planted
/// violations; the CLI in main.cpp walks a CMake build tree and runs
/// objdump itself.

#include <array>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slipflow::tools {

/// ISA classes ordered by inclusion: an object allowed `avx512` may
/// also contain `avx2` and `baseline` instructions, never the reverse.
/// `baseline` is plain x86-64 (SSE2 included); `avx2` is any
/// VEX-encoded instruction (AVX/AVX2/FMA encodings — illegal on a
/// pre-AVX machine); `avx512` is any EVEX-encoded instruction (zmm or
/// opmask registers, xmm16..31, or an EVEX-only mnemonic).
enum class IsaLevel : int { baseline = 0, avx2 = 1, avx512 = 2 };

const char* isa_level_name(IsaLevel level);
std::optional<IsaLevel> parse_isa_level(std::string_view name);

/// Classification of one disassembled instruction. FMA is tracked as a
/// separate flag (orthogonal to width: vfmadd exists in xmm/ymm/zmm
/// forms) because the determinism contract forbids it independently of
/// the ISA level the TU is allowed to use.
struct InsnClass {
  IsaLevel level = IsaLevel::baseline;
  bool fma = false;
};

/// Classify an AT&T-syntax mnemonic + operand string as printed by
/// `objdump -d --no-show-raw-insn`. Legacy prefixes (lock, rep, ...)
/// must already be stripped — parse_listing_line() does that.
InsnClass classify_instruction(std::string_view mnemonic,
                               std::string_view operands);

/// One parsed instruction line of an objdump listing.
struct ListingInsn {
  std::string address;   // hex address text, e.g. "1a2b"
  std::string mnemonic;  // prefix-stripped mnemonic, e.g. "vfmadd231pd"
  std::string operands;  // remainder of the line, may be empty
};

/// Parse one line of `objdump -d` output. Returns nullopt for
/// everything that is not an instruction (section headers, symbol
/// labels, blank lines, "..." padding, "(bad)" bytes). Tolerates the
/// raw-bytes column when --no-show-raw-insn was not passed.
std::optional<ListingInsn> parse_listing_line(std::string_view line);

/// `*`-wildcard match (no character classes; `?` matches one char).
bool glob_match(std::string_view pattern, std::string_view text);

/// Per-TU policy rule. `pattern` is matched against the TU id, which is
/// the object path relative to the build's src/ directory with the
/// CMakeFiles/<target>.dir/ infix removed — e.g.
/// "lbm/kernels_tile_avx2.cpp.o".
struct TuRule {
  std::string pattern;
  IsaLevel max_level = IsaLevel::baseline;
  bool allow_fma = true;
  int line = 0;  // manifest line, for diagnostics
};

/// Parsed policy manifest. First matching rule wins; the `default` line
/// (required) is the fallback for TUs no rule matches.
struct IsaPolicy {
  std::vector<TuRule> rules;
  TuRule fallback{"<default>", IsaLevel::baseline, true, 0};

  const TuRule& rule_for(std::string_view tu) const;

  /// Parse the manifest format:
  ///   # comment
  ///   default max=<level> fma=<allow|forbid>
  ///   tu <glob> max=<level> fma=<allow|forbid>
  /// Throws slipflow::contract_error on malformed input.
  static IsaPolicy parse(std::istream& in);
  static IsaPolicy parse_file(const std::string& path);
};

/// strict checks both the ISA-level ceiling and the FMA rule — the
/// default-build contract where every non-kernel TU must stay runnable
/// on baseline x86-64. contract_only checks just the FMA rule: under
/// -march=native every TU legitimately uses the host's full ISA, but
/// the kernel TUs must STILL be FMA-free or the -ffp-contract=off
/// bit-identity argument (and with it legacy ≡ SIMD) silently breaks.
enum class AuditMode { strict, contract_only };

struct IsaViolation {
  std::string address;
  std::string mnemonic;
  std::string reason;
};

/// Audit result for one object file.
struct TuAudit {
  std::string tu;
  std::string rule_pattern;  // which policy rule matched
  std::size_t instructions = 0;
  std::array<std::size_t, 3> level_counts{};  // indexed by IsaLevel
  std::size_t fma_count = 0;
  std::vector<IsaViolation> violations;  // detail capped; see truncated
  std::size_t violation_count = 0;       // true total
  bool truncated = false;
};

inline constexpr std::size_t kMaxViolationDetail = 20;

/// Run the audit over one objdump listing.
TuAudit audit_listing(std::string_view tu, std::istream& listing,
                      const IsaPolicy& policy, AuditMode mode);

/// Deterministic JSON report for the whole run (CI artifact).
std::string audit_report_json(const std::vector<TuAudit>& audits,
                              AuditMode mode, std::string_view policy_path);

}  // namespace slipflow::tools
