#ifndef POPP_TRANSFORM_COMPILED_H_
#define POPP_TRANSFORM_COMPILED_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "parallel/exec_policy.h"
#include "transform/piecewise.h"
#include "transform/plan.h"

/// \file
/// Compiled encode/decode kernels: a PiecewiseTransform flattened into
/// structure-of-arrays tables, evaluated by tag-switch dispatch instead of
/// per-value virtual calls.
///
/// Contract (see DESIGN.md, "Compiled kernel contract"): the compiled
/// evaluation is **bit-identical** to the interpreted one — for every input
/// (in-domain, gap, or out-of-hull), `CompiledTransform::Apply/Inverse`
/// returns exactly the double `PiecewiseTransform::Apply/Inverse` would.
/// This is achieved by replicating the interpreted path's floating-point
/// operation sequence per function tag (precomputation is limited to values
/// that are themselves deterministic, e.g. log1p(alpha)), and by building
/// the value-indexed LUT from the interpreted transform itself. Because of
/// bit-identity, every downstream guarantee (no outcome change, stream ==
/// batch, thread-count independence) carries over unchanged.
///
/// Two fast paths:
///  * a dense value-indexed LUT when the fitted hull is a small integer
///    range (the covertype case): one load per value;
///  * branch-light binary search over the flat breakpoint array otherwise
///    (no pointer chasing, no virtual dispatch).

namespace popp {

/// Function tag of one compiled piece (the dispatch table's opcode).
enum class PieceTag : uint8_t {
  kLinear = 0,  ///< identity shape
  kPower,       ///< t^k               (param = k)
  kLog,         ///< log1p(a t)/log1p(a)   (param = a, denom = log1p(a))
  kSqrtLog,     ///< sqrt of the log shape (param = a, denom = log1p(a))
  kPerm,        ///< F_bi permutation over flat sorted arrays
};

/// Domain bounds of one fitted transform: the active-domain hull plus the
/// aggregate output hull and extrapolation slope. This is the single
/// implementation of the out-of-domain (OOD) semantics shared by the
/// streaming helpers (stream/ood_policy) and the compiled kernels.
struct DomainBounds {
  AttrValue lo = 0;       ///< fitted hull minimum (first piece's domain_lo)
  AttrValue hi = 0;       ///< fitted hull maximum (last piece's domain_hi)
  AttrValue out_min = 0;  ///< smallest output-interval bound over all pieces
  AttrValue out_max = 0;  ///< largest output-interval bound over all pieces
  AttrValue slope = 1.0;  ///< aggregate slope (out width / domain width)
  bool anti = false;      ///< global direction of the transform

  bool Contains(AttrValue x) const { return x >= lo && x <= hi; }

  /// Extracts the bounds of a fitted transform (pieces in domain order).
  static DomainBounds Of(const PiecewiseTransform& t);
};

/// kClamp OOD semantics: encode the nearest hull endpoint. `apply` is the
/// encode function (interpreted or compiled — bit-identical either way).
template <typename ApplyFn>
AttrValue OodEncodeClamped(const DomainBounds& b, AttrValue x,
                           const ApplyFn& apply) {
  return apply(std::clamp(x, b.lo, b.hi));
}

/// kExtendPiece OOD semantics: linear extrapolation beyond the output hull,
/// sloped like the aggregate transform and aimed in the global direction,
/// so order against every in-domain image is exactly what the global
/// invariant promises. In-hull values fall through to `apply`.
template <typename ApplyFn>
AttrValue OodEncodeExtended(const DomainBounds& b, AttrValue x,
                            const ApplyFn& apply) {
  if (x < b.lo) {
    const AttrValue excess = b.lo - x;
    return b.anti ? b.out_max + b.slope * excess : b.out_min - b.slope * excess;
  }
  if (x > b.hi) {
    const AttrValue excess = x - b.hi;
    return b.anti ? b.out_min - b.slope * excess : b.out_max + b.slope * excess;
  }
  return apply(x);
}

/// One attribute's transform compiled to SoA tables.
///
/// Value type: copyable, movable, cheap to default-construct. Thread-safe
/// for concurrent reads (it is immutable after Compile).
class CompiledTransform {
 public:
  struct CompileOptions {
    /// Build the dense integer LUT when the hull qualifies. Worth it when
    /// many values will be encoded (a column); skip it for short-lived
    /// transforms applied to a handful of values (risk-trial inner loops),
    /// where the build cost would exceed the work it accelerates.
    bool enable_lut = true;
    /// Hard cap on LUT entries (65536 covers every covertype attribute).
    size_t max_lut_entries = 65536;
  };

  CompiledTransform() = default;

  /// Flattens `t`. The source transform is only needed during the call.
  static CompiledTransform Compile(const PiecewiseTransform& t,
                                   const CompileOptions& options);
  static CompiledTransform Compile(const PiecewiseTransform& t) {
    return Compile(t, CompileOptions{});
  }

  /// Encodes one value; bit-identical to PiecewiseTransform::Apply.
  AttrValue Apply(AttrValue x) const {
    if (has_lut_ && x >= lut_base_ && x <= lut_last_ && x == std::floor(x)) {
      return lut_[static_cast<size_t>(x - lut_base_)];
    }
    return ApplySearch(x);
  }

  /// Decodes one value; bit-identical to PiecewiseTransform::Inverse.
  AttrValue Inverse(AttrValue y) const;

  /// Batched encode/decode over spans (out may alias in).
  void ApplyColumn(const AttrValue* in, AttrValue* out, size_t n) const;
  void InverseColumn(const AttrValue* in, AttrValue* out, size_t n) const;
  /// In-place convenience overload.
  void ApplyColumn(std::vector<AttrValue>& values) const;

  /// Shared OOD semantics over the compiled bounds; bit-identical to the
  /// interpreted references check::ReferenceEncodeClamped /
  /// ReferenceEncodeExtended on the source transform.
  AttrValue EncodeClamped(AttrValue x) const;
  AttrValue EncodeExtended(AttrValue x) const;

  const DomainBounds& bounds() const { return bounds_; }
  size_t NumPieces() const { return tag_.size(); }
  bool empty() const { return tag_.empty(); }
  bool global_anti_monotone() const { return global_anti_; }
  bool has_lut() const { return has_lut_; }
  size_t LutEntries() const { return lut_.size(); }

 private:
  /// Binary-search path (LUT miss): piece routing + tag dispatch.
  AttrValue ApplySearch(AttrValue x) const;
  AttrValue EvalPiece(size_t d, AttrValue x) const;
  AttrValue InvertPiece(size_t d, AttrValue y) const;
  size_t OutToDomain(size_t p) const {
    return global_anti_ ? tag_.size() - 1 - p : p;
  }

  bool global_anti_ = false;

  // Parallel SoA arrays, one slot per piece, in domain order.
  std::vector<AttrValue> domain_lo_, domain_hi_;  // piece domain intervals
  std::vector<AttrValue> out_lo_, out_hi_;        // piece output intervals
  std::vector<uint8_t> tag_;                      // PieceTag per piece
  std::vector<uint8_t> anti_;                     // F_mono direction
  std::vector<double> fdlo_, fdhi_;               // RescaledFunction domain
  std::vector<double> folo_, fohi_;               // RescaledFunction output
  std::vector<double> param_;                     // exponent or alpha
  std::vector<double> denom_;                     // precomputed log1p(alpha)

  // F_bi flattening: piece d's pairs live at [perm_off_[d], perm_off_[d+1])
  // in the shared flat arrays (empty range for F_mono pieces).
  std::vector<size_t> perm_off_;
  std::vector<AttrValue> perm_domain_, perm_image_;      // domain-sorted
  std::vector<AttrValue> perm_img_sorted_, perm_preimage_;  // image-sorted

  // Output-interval bounds in *output* order (Inverse piece routing).
  std::vector<AttrValue> oolo_, oohi_;

  DomainBounds bounds_;

  // Dense integer LUT over [lut_base_, lut_last_], built by evaluating the
  // interpreted transform — LUT hits equal the interpreted result *by
  // construction*.
  bool has_lut_ = false;
  AttrValue lut_base_ = 0, lut_last_ = 0;
  std::vector<AttrValue> lut_;
};

/// A TransformPlan compiled attribute by attribute, with batched parallel
/// dataset encoding.
class CompiledPlan {
 public:
  CompiledPlan() = default;

  static CompiledPlan Compile(const TransformPlan& plan,
                              const CompiledTransform::CompileOptions& options);
  static CompiledPlan Compile(const TransformPlan& plan) {
    return Compile(plan, CompiledTransform::CompileOptions{});
  }

  size_t NumAttributes() const { return transforms_.size(); }
  bool empty() const { return transforms_.empty(); }
  const CompiledTransform& transform(size_t attr) const;

  /// Encodes one attribute column (out may alias in). Row blocks are
  /// distributed over `exec`; output is index-addressed, so the bytes are
  /// identical at every thread count.
  void EncodeColumn(size_t attr, const AttrValue* in, AttrValue* out,
                    size_t n, const ExecPolicy& exec = {}) const;

  /// Produces D' — bit-identical to TransformPlan::EncodeDataset at every
  /// thread count. Work is distributed over (attribute x row-block) tasks,
  /// so the kernel scales even on wide-row, few-attribute tables.
  Dataset EncodeDataset(const Dataset& data, const ExecPolicy& exec = {}) const;

 private:
  std::vector<CompiledTransform> transforms_;
};

}  // namespace popp

#endif  // POPP_TRANSFORM_COMPILED_H_
